package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TxnID identifies a transaction globally (the distributed transaction id);
// the GDD's wait-for graph vertices are TxnIDs, so the same transaction
// waiting on two segments is one vertex.
type TxnID uint64

// TagKind classifies lockable objects.
type TagKind uint8

// Lock tag kinds.
const (
	// TagRelation locks a table (by table id).
	TagRelation TagKind = iota
	// TagTuple locks one tuple during a write's critical section; tuple locks
	// are released before transaction end, making their wait edges dotted.
	TagTuple
	// TagTransaction is the per-transaction lock every transaction holds
	// exclusively on itself; waiting for a tuple's uncommitted writer means
	// share-locking the writer's transaction tag. Released only at txn end,
	// so its wait edges are solid.
	TagTransaction
	// TagObject locks miscellaneous catalog objects.
	TagObject
)

func (k TagKind) String() string {
	switch k {
	case TagRelation:
		return "relation"
	case TagTuple:
		return "tuple"
	case TagTransaction:
		return "transaction"
	default:
		return "object"
	}
}

// Tag names a lockable object. It is a comparable value.
type Tag struct {
	Kind TagKind
	A, B uint64
}

// RelationTag locks table rel.
func RelationTag(rel uint64) Tag { return Tag{Kind: TagRelation, A: rel} }

// TupleTag locks tuple slot of table rel.
func TupleTag(rel, slot uint64) Tag { return Tag{Kind: TagTuple, A: rel, B: slot} }

// TransactionTag locks transaction txn.
func TransactionTag(txn TxnID) Tag { return Tag{Kind: TagTransaction, A: uint64(txn)} }

// ObjectTag locks an arbitrary object id.
func ObjectTag(id uint64) Tag { return Tag{Kind: TagObject, A: id} }

func (t Tag) String() string {
	switch t.Kind {
	case TagTuple:
		return fmt.Sprintf("tuple(%d,%d)", t.A, t.B)
	case TagTransaction:
		return fmt.Sprintf("xact(%d)", t.A)
	default:
		return fmt.Sprintf("%s(%d)", t.Kind, t.A)
	}
}

// ErrDeadlockVictim is returned from Acquire when the GDD (or a direct call
// to Kill) chose the waiting transaction as a deadlock victim.
var ErrDeadlockVictim = errors.New("lockmgr: transaction killed as deadlock victim")

// ErrLockTimeout is returned when the caller's context expires while waiting.
var ErrLockTimeout = errors.New("lockmgr: lock wait cancelled")

// ErrShutdown is returned from Acquire — immediately, including to waiters
// already queued — after the manager is shut down: the segment owning this
// lock table died, so its lock state is gone and every conversation with it
// is over (the moral equivalent of connections breaking with the host).
var ErrShutdown = errors.New("lockmgr: lock manager shut down")

// waiter is one queued lock request.
type waiter struct {
	txn   TxnID
	mode  Mode
	toEnd bool          // the grant is kept to transaction end (AcquireToEnd)
	ready chan struct{} // closed on grant
	err   error         // set before ready is closed on failure
	t0    time.Time
}

// grant is one transaction's hold on a lock: the set of held modes
// (bitmask), whether the hold lasts to transaction end whatever its tag kind
// (AcquireToEnd), and the hold's index in the transaction's held list.
type grant struct {
	txn   TxnID
	modes uint16
	toEnd bool
	at    int
}

// lock is the per-object lock state. Locks rarely have more than a few
// holders, so the grants are a slice searched linearly.
type lock struct {
	grants []grant
	queue  []*waiter
}

// grantOf returns txn's grant on l, or nil.
func (l *lock) grantOf(txn TxnID) *grant {
	for i := range l.grants {
		if l.grants[i].txn == txn {
			return &l.grants[i]
		}
	}
	return nil
}

func (l *lock) holderConflicts(txn TxnID, mode Mode) bool {
	for _, g := range l.grants {
		if g.txn != txn && conflicts[mode]&g.modes != 0 {
			return true
		}
	}
	return false
}

// hold is one entry of a transaction's held list.
type hold struct {
	tag Tag
	l   *lock
}

// holds is a transaction's held list, for ReleaseAll; Release finds its
// entry through the grant's index and fills the gap with the last entry.
type holds struct{ list []hold }

// freeCap bounds each free list, so a transaction that once held many tuple
// locks does not pin as many structs after it ends.
const freeCap = 64

// Manager is one segment's lock table.
type Manager struct {
	mu    sync.Mutex
	locks map[Tag]*lock
	// held lists, per transaction, every lock it holds, for ReleaseAll.
	held map[TxnID]*holds
	// Locks and held lists left empty, recycled under mu.
	freeLocks []*lock
	freeHolds []*holds

	// killed marks transactions chosen as deadlock victims so future
	// acquires fail fast until the transaction releases its locks.
	killed map[TxnID]struct{}

	// down marks the whole manager dead (segment failure); every wait —
	// queued or future — fails with ErrShutdown.
	down bool

	// Waits and WaitNanos count finished waits and the time they took (the
	// Fig. 2 experiment). NewManager gives a manager its own counters; a
	// cluster swaps in its registry handles, so the totals outlive the
	// manager.
	Waits, WaitNanos *obs.Counter
	acquireCnt       atomic.Int64

	// faultHook, when set, runs at the top of every Acquire. The cluster
	// layer wires it to the lock_acquire fault point (this package stays
	// fault-framework-agnostic); a returned error fails the acquisition.
	faultHook atomic.Pointer[func() error]
}

// SetFaultHook installs fn to run at the start of every Acquire (nil
// clears). Used by fault injection to provoke lock-path errors and stalls.
func (m *Manager) SetFaultHook(fn func() error) {
	if fn == nil {
		m.faultHook.Store(nil)
		return
	}
	m.faultHook.Store(&fn)
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		locks:     make(map[Tag]*lock),
		held:      make(map[TxnID]*holds),
		killed:    make(map[TxnID]struct{}),
		Waits:     new(obs.Counter),
		WaitNanos: new(obs.Counter),
	}
}

func (m *Manager) lockFor(tag Tag) *lock {
	l, ok := m.locks[tag]
	if !ok {
		if n := len(m.freeLocks); n > 0 {
			l, m.freeLocks = m.freeLocks[n-1], m.freeLocks[:n-1]
		} else {
			l = &lock{}
		}
		m.locks[tag] = l
	}
	return l
}

// queueConflicts reports whether any waiter queued before position i
// conflicts with mode (fair FIFO: a newcomer must not overtake an earlier
// conflicting waiter).
func queueConflicts(l *lock, txn TxnID, mode Mode, upto int) bool {
	for j := 0; j < upto && j < len(l.queue); j++ {
		w := l.queue[j]
		if w.txn == txn {
			continue
		}
		if Conflicts(mode, w.mode) {
			return true
		}
	}
	return false
}

// Acquire takes tag in mode on behalf of txn, blocking until granted. It
// returns ErrDeadlockVictim if the transaction is killed while waiting and
// the context error if ctx is cancelled.
//
// Re-acquiring a tag in an already-held mode is a no-op; holding a stronger
// mode does not absorb weaker ones (matching PostgreSQL, which tracks each
// mode separately).
func (m *Manager) Acquire(ctx context.Context, txn TxnID, tag Tag, mode Mode) error {
	return m.acquire(ctx, txn, tag, mode, false)
}

// AcquireToEnd is Acquire for a lock the caller will keep until the
// transaction ends, recorded on the grant. It matters for tuple locks, which
// are otherwise taken to be released mid-transaction: WaitGraph reports an
// edge into such a holder as solid (paper §4.3), so the deadlock detector
// does not discount a wait that only the holder's commit or abort can end.
func (m *Manager) AcquireToEnd(ctx context.Context, txn TxnID, tag Tag, mode Mode) error {
	return m.acquire(ctx, txn, tag, mode, true)
}

func (m *Manager) acquire(ctx context.Context, txn TxnID, tag Tag, mode Mode, toEnd bool) error {
	m.acquireCnt.Add(1)
	if hook := m.faultHook.Load(); hook != nil {
		if err := (*hook)(); err != nil {
			return err
		}
	}
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return ErrShutdown
	}
	if _, dead := m.killed[txn]; dead {
		m.mu.Unlock()
		return ErrDeadlockVictim
	}
	l := m.lockFor(tag)
	if g := l.grantOf(txn); g != nil && g.modes&(1<<mode) != 0 {
		g.toEnd = g.toEnd || toEnd
		m.mu.Unlock()
		return nil // already held
	}
	if !l.holderConflicts(txn, mode) && !queueConflicts(l, txn, mode, len(l.queue)) {
		m.grantLocked(l, txn, tag, mode, toEnd)
		m.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: mode, toEnd: toEnd, ready: make(chan struct{}), t0: time.Now()}
	l.queue = append(l.queue, w)
	m.mu.Unlock()

	select {
	case <-w.ready:
		m.WaitNanos.Add(time.Since(w.t0).Nanoseconds())
		m.Waits.Inc()
		return w.err
	case <-ctx.Done():
		m.WaitNanos.Add(time.Since(w.t0).Nanoseconds())
		m.Waits.Inc()
		m.mu.Lock()
		// The grant may have raced with cancellation.
		select {
		case <-w.ready:
			m.mu.Unlock()
			return w.err
		default:
		}
		if l := m.locks[tag]; l != nil {
			l.removeWaiter(w)
			m.promoteLocked(tag, l)
		}
		m.mu.Unlock()
		if ctx.Err() == context.DeadlineExceeded {
			return ErrLockTimeout
		}
		return ctx.Err()
	}
}

// TryAcquire takes the lock only if immediately available.
func (m *Manager) TryAcquire(txn TxnID, tag Tag, mode Mode) bool {
	m.acquireCnt.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return false
	}
	if _, dead := m.killed[txn]; dead {
		return false
	}
	l := m.lockFor(tag)
	if g := l.grantOf(txn); g != nil && g.modes&(1<<mode) != 0 {
		return true
	}
	if l.holderConflicts(txn, mode) || queueConflicts(l, txn, mode, len(l.queue)) {
		return false
	}
	m.grantLocked(l, txn, tag, mode, false)
	return true
}

func (m *Manager) grantLocked(l *lock, txn TxnID, tag Tag, mode Mode, toEnd bool) {
	if g := l.grantOf(txn); g != nil {
		g.modes |= 1 << mode
		g.toEnd = g.toEnd || toEnd
		return
	}
	h := m.held[txn]
	if h == nil {
		if n := len(m.freeHolds); n > 0 {
			h, m.freeHolds = m.freeHolds[n-1], m.freeHolds[:n-1]
		} else {
			h = &holds{}
		}
		m.held[txn] = h
	}
	l.grants = append(l.grants, grant{txn: txn, modes: 1 << mode, toEnd: toEnd, at: len(h.list)})
	h.list = append(h.list, hold{tag: tag, l: l})
}

// dropGrant removes txn's grant from l and returns its held-list index.
func (l *lock) dropGrant(txn TxnID) int {
	g := l.grantOf(txn)
	at := g.at
	last := len(l.grants) - 1
	*g = l.grants[last]
	l.grants = l.grants[:last]
	return at
}

func (l *lock) removeWaiter(w *waiter) {
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			return
		}
	}
}

// promoteLocked grants every queued waiter that is now compatible, in FIFO
// order, stopping the scan past a conflicting waiter only for requests that
// conflict with it (fair but work-conserving).
func (m *Manager) promoteLocked(tag Tag, l *lock) {
	i := 0
	for i < len(l.queue) {
		w := l.queue[i]
		if !l.holderConflicts(w.txn, w.mode) && !queueConflicts(l, w.txn, w.mode, i) {
			m.grantLocked(l, w.txn, tag, w.mode, w.toEnd)
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			close(w.ready)
			continue
		}
		i++
	}
	if len(l.grants) == 0 && len(l.queue) == 0 {
		delete(m.locks, tag)
		if len(m.freeLocks) < freeCap {
			l.queue = nil
			m.freeLocks = append(m.freeLocks, l)
		}
	}
}

// Release drops every mode txn holds on tag (tuple locks use this to release
// before transaction end, which is what makes their edges dotted).
func (m *Manager) Release(txn TxnID, tag Tag) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(txn, tag)
}

func (m *Manager) releaseLocked(txn TxnID, tag Tag) {
	l := m.locks[tag]
	if l == nil || l.grantOf(txn) == nil {
		return
	}
	h := m.held[txn]
	at, last := l.dropGrant(txn), len(h.list)-1
	if at != last {
		moved := h.list[last]
		h.list[at] = moved
		moved.l.grantOf(txn).at = at
	}
	h.list[last] = hold{}
	h.list = h.list[:last]
	if last == 0 {
		delete(m.held, txn)
		m.freeHoldsLocked(h)
	}
	m.promoteLocked(tag, l)
}

// ReleaseAll drops every lock txn holds (two-phase locking: called at commit
// or abort) and clears any victim mark.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.killed, txn)
	h := m.held[txn]
	if h == nil {
		return
	}
	// Unlisted first: a promotion below may grant a waiter of txn itself,
	// which then starts a new list.
	delete(m.held, txn)
	for _, hd := range h.list {
		hd.l.dropGrant(txn)
		m.promoteLocked(hd.tag, hd.l)
	}
	m.freeHoldsLocked(h)
}

func (m *Manager) freeHoldsLocked(h *holds) {
	if len(m.freeHolds) < freeCap && cap(h.list) <= freeCap {
		clear(h.list)
		h.list = h.list[:0]
		m.freeHolds = append(m.freeHolds, h)
	}
}

// Kill marks txn as a deadlock victim: its queued waits fail immediately
// with ErrDeadlockVictim and subsequent Acquire calls fail until ReleaseAll.
func (m *Manager) Kill(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.killed[txn] = struct{}{}
	for tag, l := range m.locks {
		changed := false
		for i := 0; i < len(l.queue); {
			w := l.queue[i]
			if w.txn == txn {
				w.err = ErrDeadlockVictim
				close(w.ready)
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				changed = true
				continue
			}
			i++
		}
		if changed {
			m.promoteLocked(tag, l)
		}
	}
}

// Shutdown declares the owning segment dead: every queued waiter wakes with
// ErrShutdown and all future acquisitions fail the same way. Without this a
// statement that entered the segment just before it was killed could wait
// forever on a lock whose holder's release will never arrive (the dead
// incarnation's lock table is no longer part of any deadlock detection).
func (m *Manager) Shutdown() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.down {
		return
	}
	m.down = true
	for _, l := range m.locks {
		for _, w := range l.queue {
			w.err = ErrShutdown
			close(w.ready)
		}
		l.queue = nil
	}
}

// HoldsAny reports whether txn holds or awaits any lock (used by GDD to
// verify a transaction still exists).
func (m *Manager) HoldsAny(txn TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held[txn] != nil {
		return true
	}
	for _, l := range m.locks {
		for _, w := range l.queue {
			if w.txn == txn {
				return true
			}
		}
	}
	return false
}

// WaitStats returns cumulative lock-wait time and counts (Fig. 2 harness).
// The wait time includes the elapsed portion of still-queued requests, so a
// snapshot taken mid-benchmark reflects waiters that have not yet been
// granted.
func (m *Manager) WaitStats() (waited time.Duration, waits, acquires int64) {
	return time.Duration(m.WaitNanos.Load()) + m.QueuedWait(), m.Waits.Load(), m.acquireCnt.Load()
}

// QueuedWait returns the time the requests still queued have waited so far.
func (m *Manager) QueuedWait() (waited time.Duration) {
	now := time.Now()
	m.mu.Lock()
	for _, l := range m.locks {
		for _, w := range l.queue {
			waited += now.Sub(w.t0)
		}
	}
	m.mu.Unlock()
	return waited
}
