// Package txn implements per-segment local transaction management: local
// transaction identifiers, a commit log (clog), local snapshots, and the MVCC
// visibility rules. Distributed coordination (distributed xids, snapshots and
// the commit protocols) lives in internal/dtm and plugs into this package via
// the DistributedView interface.
package txn

import (
	"fmt"
	"slices"
	"sync"
)

// XID is a local transaction identifier, unique within one segment. XID 0 is
// invalid ("no transaction").
type XID uint64

// InvalidXID is the zero transaction id.
const InvalidXID XID = 0

// Status is a transaction's clog state.
type Status uint8

// Transaction states.
const (
	// StatusInProgress means the transaction has not finished.
	StatusInProgress Status = iota
	// StatusCommitted means the transaction committed.
	StatusCommitted
	// StatusAborted means the transaction rolled back.
	StatusAborted
	// StatusPrepared means the transaction finished phase one of 2PC and is
	// awaiting the coordinator's decision.
	StatusPrepared
)

func (s Status) String() string {
	switch s {
	case StatusInProgress:
		return "in-progress"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusPrepared:
		return "prepared"
	default:
		return "unknown"
	}
}

// Snapshot is a local MVCC snapshot: transactions with xid < Xmin are
// finished; xid >= Xmax had not started; xids in InProgress (ascending)
// were running at snapshot time.
type Snapshot struct {
	Xmin       XID
	Xmax       XID
	InProgress []XID
}

// Sees reports whether the snapshot considers xid's effects potentially
// visible (i.e. xid is not in-progress from the snapshot's point of view and
// started before the snapshot). The caller still must check the clog for
// commit/abort.
func (s *Snapshot) Sees(xid XID) bool {
	if xid >= s.Xmax {
		return false
	}
	_, running := slices.BinarySearch(s.InProgress, xid)
	return !running
}

// Manager is a segment's transaction manager.
type Manager struct {
	mu      sync.Mutex
	nextXID XID
	status  map[XID]Status
	// running holds currently in-progress or prepared xids, ascending: Begin
	// hands xids out in increasing order.
	running []XID
}

// NewManager returns a manager whose first transaction will get XID 1.
func NewManager() *Manager {
	return &Manager{
		nextXID: 1,
		status:  make(map[XID]Status),
	}
}

// Begin allocates a new local transaction.
func (m *Manager) Begin() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	xid := m.nextXID
	m.nextXID++
	m.status[xid] = StatusInProgress
	m.running = append(m.running, xid)
	return xid
}

// Status returns the clog state of xid.
func (m *Manager) Status(xid XID) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.status[xid]
	if !ok {
		// Unknown old xids are treated as aborted; the clog here is never
		// truncated below a live reference in this in-memory engine.
		return StatusAborted
	}
	return st
}

// Prepare transitions xid to the prepared state (2PC phase one).
func (m *Manager) Prepare(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.status[xid] != StatusInProgress {
		return fmt.Errorf("txn: cannot prepare %d in state %s", xid, m.status[xid])
	}
	m.status[xid] = StatusPrepared
	return nil
}

// Commit marks xid committed and removes it from the running set.
func (m *Manager) Commit(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status[xid]
	if st != StatusInProgress && st != StatusPrepared {
		return fmt.Errorf("txn: cannot commit %d in state %s", xid, st)
	}
	m.status[xid] = StatusCommitted
	m.stopRunning(xid)
	return nil
}

// Abort marks xid aborted and removes it from the running set.
func (m *Manager) Abort(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status[xid]
	if st != StatusInProgress && st != StatusPrepared {
		return fmt.Errorf("txn: cannot abort %d in state %s", xid, st)
	}
	m.status[xid] = StatusAborted
	m.stopRunning(xid)
	return nil
}

func (m *Manager) stopRunning(xid XID) {
	if i, ok := slices.BinarySearch(m.running, xid); ok {
		m.running = slices.Delete(m.running, i, i+1)
	}
}

// BeginReplay registers xid as in-progress with its logged identity — the
// WAL-replay counterpart of Begin. Mirrors use it so their local xid space
// is identical to the primary's even when the primary allocated xids that
// never reached the log (read-only transactions are not fully logged).
func (m *Manager) BeginReplay(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.status[xid]; ok {
		return
	}
	m.status[xid] = StatusInProgress
	i, _ := slices.BinarySearch(m.running, xid)
	m.running = slices.Insert(m.running, i, xid)
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
}

// AbortInFlight is crash recovery's first step: every in-progress (not
// prepared) transaction is aborted — its writes can never become visible on
// the recovered copy. Prepared transactions are left alone; they are
// in-doubt and resolved against the coordinator's commit records. It
// returns the aborted xids.
func (m *Manager) AbortInFlight() []XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var aborted []XID
	m.running = slices.DeleteFunc(m.running, func(xid XID) bool {
		if m.status[xid] != StatusInProgress {
			return false
		}
		m.status[xid] = StatusAborted
		aborted = append(aborted, xid)
		return true
	})
	return aborted
}

// PreparedXIDs returns the transactions sitting in the prepared state — the
// in-doubt set a recovered segment must resolve.
func (m *Manager) PreparedXIDs() []XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []XID
	for _, xid := range m.running {
		if m.status[xid] == StatusPrepared {
			out = append(out, xid)
		}
	}
	return out
}

// IsRunning reports whether xid is in-progress or prepared.
func (m *Manager) IsRunning(xid XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := slices.BinarySearch(m.running, xid)
	return ok
}

// TakeSnapshot captures the local in-progress set.
func (m *Manager) TakeSnapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &Snapshot{Xmin: m.oldestLocked(), Xmax: m.nextXID, InProgress: slices.Clone(m.running)}
}

// OldestRunning returns the smallest in-progress xid, or nextXID when idle.
// It is the truncation horizon for the local↔distributed xid mapping.
func (m *Manager) OldestRunning() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.oldestLocked()
}

func (m *Manager) oldestLocked() XID {
	if len(m.running) > 0 {
		return m.running[0]
	}
	return m.nextXID
}

// RunningCount returns the number of live transactions (for metrics).
func (m *Manager) RunningCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running)
}
