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
	"sync/atomic"
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
	// clog is the commit log, read without m.mu: every begun xid's status
	// in pages of atomic words, written only under m.mu.
	clog clog
	// running holds currently in-progress or prepared xids, ascending: Begin
	// hands xids out in increasing order.
	running []XID
	// oldest publishes oldestLocked for readers that take no m.mu.
	oldest atomic.Uint64
}

// clog holds a 4-bit code per xid, eight to a word: 0 for an xid never
// begun (read as aborted), else its Status plus one. Pages are never moved
// or freed, so a reader loads the page table once and indexes it.
type clog struct {
	pages atomic.Pointer[[]*clogPage]
}

const (
	clogPageWords = 1024
	xidsPerWord   = 8
	xidsPerPage   = clogPageWords * xidsPerWord
)

type clogPage [clogPageWords]atomic.Uint32

// word returns xid's word and the shift of its code in it, or nil when
// xid's page does not exist yet.
func (c *clog) word(xid XID) (*atomic.Uint32, uint) {
	pages := c.pages.Load()
	if pages == nil || xid/xidsPerPage >= XID(len(*pages)) {
		return nil, 0
	}
	return &(*pages)[xid/xidsPerPage][xid%xidsPerPage/xidsPerWord], uint(xid%xidsPerWord) * 4
}

// get returns xid's status, ok=false when it was never begun.
func (c *clog) get(xid XID) (Status, bool) {
	w, shift := c.word(xid)
	if w == nil {
		return 0, false
	}
	code := w.Load() >> shift & 0xf
	return Status(code) - 1, code != 0
}

// set records xid's status; the caller holds the manager's mutex.
func (c *clog) set(xid XID, st Status) {
	w, shift := c.word(xid)
	for w == nil {
		var pages []*clogPage
		if p := c.pages.Load(); p != nil {
			pages = *p
		}
		pages = append(slices.Clip(pages), new(clogPage))
		c.pages.Store(&pages)
		w, shift = c.word(xid)
	}
	w.Store(w.Load()&^(0xf<<shift) | uint32(st+1)<<shift)
}

// NewManager returns a manager whose first transaction will get XID 1.
func NewManager() *Manager {
	m := &Manager{nextXID: 1}
	m.oldest.Store(1)
	return m
}

// Begin allocates a new local transaction.
func (m *Manager) Begin() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	xid := m.nextXID
	m.nextXID++
	m.clog.set(xid, StatusInProgress)
	m.running = append(m.running, xid)
	m.publishOldest()
	return xid
}

// Status returns the clog state of xid without taking the manager's mutex.
// An xid never begun here reads as aborted.
func (m *Manager) Status(xid XID) Status {
	if st, ok := m.clog.get(xid); ok {
		return st
	}
	return StatusAborted
}

// transition moves xid from one of the states from to st; the caller holds
// m.mu.
func (m *Manager) transition(xid XID, st Status, verb string, from ...Status) error {
	cur, ok := m.clog.get(xid)
	if !ok {
		return fmt.Errorf("txn: cannot %s %d: never begun", verb, xid)
	}
	if !slices.Contains(from, cur) {
		return fmt.Errorf("txn: cannot %s %d in state %s", verb, xid, cur)
	}
	m.clog.set(xid, st)
	if st != StatusPrepared {
		m.stopRunning(xid)
	}
	return nil
}

// Prepare transitions xid to the prepared state (2PC phase one).
func (m *Manager) Prepare(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transition(xid, StatusPrepared, "prepare", StatusInProgress)
}

// Commit marks xid committed and removes it from the running set.
func (m *Manager) Commit(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transition(xid, StatusCommitted, "commit", StatusInProgress, StatusPrepared)
}

// Abort marks xid aborted and removes it from the running set.
func (m *Manager) Abort(xid XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.transition(xid, StatusAborted, "abort", StatusInProgress, StatusPrepared)
}

func (m *Manager) stopRunning(xid XID) {
	if i, ok := slices.BinarySearch(m.running, xid); ok {
		m.running = slices.Delete(m.running, i, i+1)
	}
	m.publishOldest()
}

// BeginReplay registers xid as in-progress with its logged identity — the
// WAL-replay counterpart of Begin. Mirrors use it so their local xid space
// stays identical to the primary's. Every xid the primary allocates is a
// transaction's first write on the segment and logs a begin record, but an
// append the log failed to write leaves a gap the replica must skip.
func (m *Manager) BeginReplay(xid XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.clog.get(xid); ok {
		return
	}
	m.clog.set(xid, StatusInProgress)
	i, _ := slices.BinarySearch(m.running, xid)
	m.running = slices.Insert(m.running, i, xid)
	if xid >= m.nextXID {
		m.nextXID = xid + 1
	}
	m.publishOldest()
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
		if m.Status(xid) != StatusInProgress {
			return false
		}
		m.clog.set(xid, StatusAborted)
		aborted = append(aborted, xid)
		return true
	})
	m.publishOldest()
	return aborted
}

// PreparedXIDs returns the transactions sitting in the prepared state — the
// in-doubt set a recovered segment must resolve.
func (m *Manager) PreparedXIDs() []XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []XID
	for _, xid := range m.running {
		if m.Status(xid) == StatusPrepared {
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
func (m *Manager) TakeSnapshot() *Snapshot { return m.TakeSnapshotInto(new(Snapshot)) }

// TakeSnapshotInto captures the local in-progress set into s, reusing its
// InProgress storage, and returns s.
func (m *Manager) TakeSnapshotInto(s *Snapshot) *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	*s = Snapshot{Xmin: m.oldestLocked(), Xmax: m.nextXID, InProgress: append(s.InProgress[:0], m.running...)}
	return s
}

// OldestRunning returns the smallest in-progress xid, or nextXID when idle:
// the dead-version rule's local bound on the deleters it may treat as
// finished. It takes no mutex.
func (m *Manager) OldestRunning() XID { return XID(m.oldest.Load()) }

// publishOldest refreshes what OldestRunning reads; the caller holds m.mu.
func (m *Manager) publishOldest() { m.oldest.Store(uint64(m.oldestLocked())) }

func (m *Manager) oldestLocked() XID {
	if len(m.running) > 0 {
		return m.running[0]
	}
	return m.nextXID
}

// NextXID returns the xid the next Begin will allocate (tests count
// allocations with it).
func (m *Manager) NextXID() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextXID
}

// RunningCount returns the number of live transactions (for metrics).
func (m *Manager) RunningCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.running)
}
