// Package dtm implements distributed transaction management (paper §5):
// coordinator-assigned distributed transaction identifiers, distributed
// snapshots (the in-progress dxid list plus the largest committed dxid), the
// two-phase commit protocol, and the one-phase commit optimization for
// transactions that write exactly one segment.
package dtm

import (
	"slices"
	"sync"
)

// DXID is a distributed transaction identifier: a monotonically increasing
// integer assigned by the coordinator (paper §5). 0 is invalid.
type DXID uint64

// InvalidDXID is the zero distributed xid.
const InvalidDXID DXID = 0

// DistSnapshot is a distributed snapshot: every dxid in InProgress
// (ascending) was running when the snapshot was created; MaxCommitted is
// the largest dxid committed at creation time; Xmax is the next dxid to be
// assigned.
type DistSnapshot struct {
	Xmax         DXID
	MaxCommitted DXID
	InProgress   []DXID
	// registered is true from Coordinator.Snapshot until Release (guarded by
	// the coordinator's mutex), so a second Release is a no-op.
	registered bool
}

// Xmin is the oldest dxid the snapshot still sees as running (Xmax when it
// sees none): every dxid below it had finished when the snapshot was taken.
func (s *DistSnapshot) Xmin() DXID {
	if len(s.InProgress) > 0 {
		return s.InProgress[0]
	}
	return s.Xmax
}

// Sees reports whether the snapshot considers dxid committed-before-snapshot.
func (s *DistSnapshot) Sees(dxid DXID) bool {
	if dxid == InvalidDXID || dxid >= s.Xmax {
		return false
	}
	if _, running := slices.BinarySearch(s.InProgress, dxid); running {
		return false
	}
	// Not in-progress and older than xmax: it completed before the snapshot.
	// Aborted transactions never reach MaxCommitted but their tuples are
	// filtered by the local clog on each segment; treating "completed" as
	// visible here is safe because visibility conjuncts with the local
	// commit status (see txn.VisibilityChecker).
	return true
}

// Coordinator is the coordinator-side distributed transaction state.
type Coordinator struct {
	mu           sync.Mutex
	nextDxid     DXID
	inProgress   []DXID // ascending: Begin hands dxids out in order
	maxCommitted DXID
	// snapXmins holds the Xmin of every registered (live) snapshot,
	// ascending: a snapshot's Xmin is the oldest in-progress dxid or nextDxid
	// at the time it is taken, which never decreases, so Snapshot appends.
	snapXmins []DXID
	// commitLog is the set of dxids whose two-phase commit decision was
	// durably recorded between the PREPARE and COMMIT waves. Promotion-time
	// 2PC recovery resolves an in-doubt prepared transaction by this set:
	// commit record present → commit wins; absent (and the protocol is no
	// longer running) → abort (the paper's presumed-abort resolution).
	commitLog map[DXID]struct{}
}

// NewCoordinator returns a coordinator whose first transaction gets dxid 1.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		nextDxid:  1,
		commitLog: make(map[DXID]struct{}),
	}
}

// LogCommitRecord durably notes the commit decision for dxid (called by the
// cluster's coordinator-WAL hook between the 2PC waves).
func (c *Coordinator) LogCommitRecord(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.commitLog[dxid] = struct{}{}
}

// HasCommitRecord reports whether the commit decision for dxid was durably
// recorded.
func (c *Coordinator) HasCommitRecord(dxid DXID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.commitLog[dxid]
	return ok
}

// TruncateCommitLog discards commit records below the horizon (see
// Horizon): a transaction below it has fully acknowledged, so its outcome
// record reached every segment log — and therefore every mirror's queue —
// and promotion-time recovery can never need the coordinator copy again.
// Same role as XidMapping.Truncate: keep the metadata small. It returns the
// number of records removed.
func (c *Coordinator) TruncateCommitLog(horizon DXID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for d := range c.commitLog {
		if d < horizon {
			delete(c.commitLog, d)
			n++
		}
	}
	return n
}

// Begin assigns a new distributed transaction id.
func (c *Coordinator) Begin() DXID {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.nextDxid
	c.nextDxid++
	c.inProgress = append(c.inProgress, d)
	return d
}

// Snapshot captures the distributed in-progress set and registers the
// snapshot as live until Release. Called per statement (read committed) by
// the session layer.
func (c *Coordinator) Snapshot() *DistSnapshot { return c.SnapshotInto(new(DistSnapshot)) }

// SnapshotInto is Snapshot into s, a released snapshot (or a zero one)
// whose InProgress storage it reuses; it returns s.
func (c *Coordinator) SnapshotInto(s *DistSnapshot) *DistSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	*s = DistSnapshot{Xmax: c.nextDxid, MaxCommitted: c.maxCommitted, InProgress: append(s.InProgress[:0], c.inProgress...), registered: true}
	c.snapXmins = append(c.snapXmins, s.Xmin())
	return s
}

// Release unregisters a snapshot taken by Snapshot: its statement is over,
// so it no longer holds the horizon back. Releasing twice is a no-op.
func (c *Coordinator) Release(s *DistSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !s.registered {
		return
	}
	s.registered = false
	if i, ok := slices.BinarySearch(c.snapXmins, s.Xmin()); ok {
		c.snapXmins = slices.Delete(c.snapXmins, i, i+1)
	}
}

// LiveSnapshots returns the number of registered snapshots.
func (c *Coordinator) LiveSnapshots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snapXmins)
}

// Horizon is the dxid below which no live or future snapshot can see a
// transaction as running: min(oldest registered snapshot's Xmin, oldest
// in-progress dxid, or nextDxid when idle). Below it a segment's
// local↔distributed mapping and the coordinator's commit records may be
// forgotten (paper §5.1). It never decreases: a new snapshot's Xmin is at
// least the oldest in-progress dxid of its moment.
func (c *Coordinator) Horizon() DXID {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.nextDxid
	if len(c.inProgress) > 0 {
		h = c.inProgress[0]
	}
	if len(c.snapXmins) > 0 && c.snapXmins[0] < h {
		h = c.snapXmins[0]
	}
	return h
}

// MarkCommitted removes dxid from the in-progress set after the commit
// protocol fully acknowledges — for 1PC, only after "Commit OK" arrives
// (paper §5.2), so concurrent snapshots keep seeing it as running until the
// segment has durably committed.
func (c *Coordinator) MarkCommitted(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stop(dxid)
	if dxid > c.maxCommitted {
		c.maxCommitted = dxid
	}
}

// MarkAborted removes dxid from the in-progress set without advancing
// MaxCommitted.
func (c *Coordinator) MarkAborted(dxid DXID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stop(dxid)
}

func (c *Coordinator) stop(dxid DXID) {
	if i, ok := slices.BinarySearch(c.inProgress, dxid); ok {
		c.inProgress = slices.Delete(c.inProgress, i, i+1)
	}
}

// IsInProgress reports whether dxid is still in the coordinator's
// in-progress set (i.e. its commit protocol has not fully acknowledged).
func (c *Coordinator) IsInProgress(dxid DXID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := slices.BinarySearch(c.inProgress, dxid)
	return ok
}

// InProgressCount returns the number of live distributed transactions.
func (c *Coordinator) InProgressCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inProgress)
}
