package lockmgr

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
	// TagTransaction is the per-transaction lock every writer holds
	// exclusively on itself — implicitly, until a waiter enters it (see
	// AcquireBehind); waiting for a tuple's uncommitted writer means
	// share-locking the writer's transaction tag. Released only at txn end,
	// so its wait edges are solid.
	TagTransaction
)

func (k TagKind) String() string {
	switch k {
	case TagRelation:
		return "relation"
	case TagTuple:
		return "tuple"
	default:
		return "transaction"
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
	o     *Owner
	txn   TxnID
	mode  Mode
	toEnd bool          // the grant is kept to transaction end (AcquireToEnd)
	ready chan struct{} // closed on grant
	err   error         // set before ready is closed on failure
	t0    time.Time
}

// grant is one owner's hold on a lock in the table: the set of held modes
// (bitmask), whether the hold lasts to transaction end whatever its tag kind
// (AcquireToEnd), and the hold's index in the owner's held list.
type grant struct {
	o     *Owner
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

// grantOf returns o's grant on l, or nil.
func (l *lock) grantOf(o *Owner) *grant {
	for i := range l.grants {
		if l.grants[i].o == o {
			return &l.grants[i]
		}
	}
	return nil
}

func (l *lock) holderConflicts(o *Owner, mode Mode) bool {
	for _, g := range l.grants {
		if g.o != o && conflicts[mode]&g.modes != 0 {
			return true
		}
	}
	return false
}

// hold is one entry of an owner's held list.
type hold struct {
	tag Tag
	l   *lock
}

// Fast-path locking (PostgreSQL's "Fast Path Locking"): while no strong
// mode is held or wanted on a relation, an owner records the weak ones,
// which conflict with no weak mode, in its own array. A strong request
// first raises its relation slot's strong-lock counter, keeping new ones
// out, then moves every owner's on the relation into the table, which so
// sees every conflict and wait. freeCap bounds the free locks and an
// owner's kept held list.
const (
	freeCap     = 64
	fastModes   = 1<<AccessShare | 1<<RowShare | 1<<RowExclusive
	strongModes = 1<<Share | 1<<ShareRowExclusive | 1<<Exclusive | 1<<AccessExclusive
	fastSlots   = 16
	strongSlots = 64
)

func strongSlot(rel uint64) uint64 { return rel * 0x9E3779B97F4A7C15 >> 58 }

// Owner state bits: it holds locks in the table; it is a deadlock victim.
const (
	inTable = 1 << iota
	victim
)

// Owner is one transaction's presence in one lock table, kept by the
// caller (and Reset for its next transaction) so a lock looks nothing up.
// mu guards id, state and the fast path, which a strong request may move;
// with a clear state, ReleaseAll needs nothing else.
type Owner struct {
	m     *Manager
	id    TxnID
	mu    sync.Mutex
	state uint8
	nfast int
	fast  [fastSlots]struct {
		rel   uint64
		modes uint16
	}
	held []hold // the owner's grants in the table, under m.mu
}

// Manager is one segment's lock table.
type Manager struct {
	mu    sync.Mutex
	locks map[Tag]*lock
	// owners are the table's owners, byID those Owner made; locks left
	// empty are recycled under mu. killed marks deadlock victims, whose
	// acquires fail until they release their locks; down a dead table
	// (segment failure), where every wait fails with ErrShutdown.
	owners    []*Owner
	byID      map[TxnID]*Owner
	freeLocks []*lock
	strong    [strongSlots]atomic.Int32
	killed    map[TxnID]struct{}
	down      atomic.Bool

	// Waits and WaitNanos count finished waits and the time they took (the
	// Fig. 2 experiment). NewManager gives a manager its own counters; a
	// cluster swaps in its registry handles, so the totals outlive the
	// manager. acquireCnt counts requests, the fast path's too.
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
		byID:      make(map[TxnID]*Owner),
		killed:    make(map[TxnID]struct{}),
		Waits:     new(obs.Counter),
		WaitNanos: new(obs.Counter),
	}
}

// NewOwner registers an owner for transaction id in the table.
func (m *Manager) NewOwner(id TxnID) *Owner {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.newOwnerLocked(id)
}

func (m *Manager) newOwnerLocked(id TxnID) *Owner {
	o := &Owner{m: m, id: id}
	if _, dead := m.killed[id]; dead {
		o.state = victim
	}
	m.owners = append(m.owners, o)
	return o
}

// Owner returns the table's owner for txn (registered at the first call),
// for a caller that keeps no Owner: probes, tests.
func (m *Manager) Owner(txn TxnID) *Owner {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byID[txn] == nil {
		m.byID[txn] = m.newOwnerLocked(txn)
	}
	return m.byID[txn]
}

// Acquire is Owner(txn).Acquire.
func (m *Manager) Acquire(ctx context.Context, txn TxnID, tag Tag, mode Mode) error {
	return m.Owner(txn).Acquire(ctx, tag, mode)
}

// Release is Owner(txn).Release.
func (m *Manager) Release(txn TxnID, tag Tag) { m.Owner(txn).Release(tag) }

// Drop unregisters an owner that holds nothing and will not be used again.
func (o *Owner) Drop() {
	o.m.mu.Lock()
	defer o.m.mu.Unlock()
	o.m.owners = slices.DeleteFunc(o.m.owners, func(x *Owner) bool { return x == o })
}

// Reset gives an owner that holds nothing to transaction id (each
// transaction has an id of its own, so GDD vertices stay unique).
func (o *Owner) Reset(id TxnID) {
	o.mu.Lock()
	o.id = id
	o.state &^= victim
	o.mu.Unlock()
}

// ID returns the transaction id the owner holds its locks under.
func (o *Owner) ID() TxnID { return o.id }

// Manager returns the lock table the owner belongs to.
func (o *Owner) Manager() *Manager { return o.m }

// fastAcquire reports whether it recorded weak mode on rel on o's fast
// path: not when o is in the table or a victim, or rel's slot counts a
// strong lock held or wanted.
func (o *Owner) fastAcquire(rel uint64, mode Mode) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.state != 0 || o.m.down.Load() || o.m.strong[strongSlot(rel)].Load() != 0 {
		return false
	}
	for i := range o.fast[:o.nfast] {
		if o.fast[i].rel == rel {
			o.fast[i].modes |= 1 << mode
			return true
		}
	}
	if o.nfast == fastSlots {
		return false
	}
	o.fast[o.nfast].rel, o.fast[o.nfast].modes = rel, 1<<mode
	o.nfast++
	return true
}

// takeFast removes and returns o's fast-path modes on rel; o.mu is held.
func (o *Owner) takeFast(rel uint64) uint16 {
	for i, f := range o.fast[:o.nfast] {
		if f.rel == rel {
			o.nfast--
			o.fast[i] = o.fast[o.nfast]
			return f.modes
		}
	}
	return 0
}

// moveFast moves o's fast-path locks on rel into the table, marking o in
// the table in the step that empties the entry: a racing ReleaseAll then
// takes the table's mutex and finds the grants.
func (m *Manager) moveFast(o *Owner, rel uint64) {
	o.mu.Lock()
	modes := o.takeFast(rel)
	if modes != 0 {
		o.state |= inTable
	}
	o.mu.Unlock()
	for mode := AccessShare; mode <= RowExclusive; mode++ {
		if modes&(1<<mode) != 0 {
			m.grantLocked(m.lockFor(RelationTag(rel)), o, RelationTag(rel), mode, false)
		}
	}
}

// unstrong lowers the strong-lock counter by the strong relation modes in
// modes: their grant was dropped or their request failed.
func (m *Manager) unstrong(tag Tag, modes uint16) {
	if n := bits.OnesCount16(modes & strongModes); n > 0 && tag.Kind == TagRelation {
		m.strong[strongSlot(tag.A)].Add(-int32(n))
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
func queueConflicts(l *lock, o *Owner, mode Mode, upto int) bool {
	for j := 0; j < upto && j < len(l.queue); j++ {
		if w := l.queue[j]; w.o != o && Conflicts(mode, w.mode) {
			return true
		}
	}
	return false
}

// Acquire takes tag in mode on behalf of o's transaction, blocking until
// granted. It returns ErrDeadlockVictim if the transaction is killed while
// waiting and the context error if ctx is cancelled.
//
// Re-acquiring a tag in an already-held mode is a no-op; holding a stronger
// mode does not absorb weaker ones (matching PostgreSQL, which tracks each
// mode separately).
func (o *Owner) Acquire(ctx context.Context, tag Tag, mode Mode) error {
	return o.acquire(ctx, tag, mode, false, nil, nil)
}

// AcquireToEnd is Acquire for a lock the caller will keep until the
// transaction ends, recorded on the grant. It matters for tuple locks, which
// are otherwise taken to be released mid-transaction: WaitGraph reports an
// edge into such a holder as solid (paper §4.3), so the deadlock detector
// does not discount a wait that only the holder's commit or abort can end.
func (o *Owner) AcquireToEnd(ctx context.Context, tag Tag, mode Mode) error {
	return o.acquire(ctx, tag, mode, true, nil, nil)
}

// AcquireBehind is Acquire of a transaction tag that holder keeps
// implicitly in Exclusive mode while running() reports it in progress: the
// request enters holder's grant on its behalf, then re-checks running(), so
// it queues behind a live holder only (InnoDB's implicit lock conversion).
// The holder's end cannot miss the grant: it marks itself finished, then
// ReleaseAll reads its state under its mutex, where the request set the
// inTable bit before reading running(). Read after, the bit sends
// ReleaseAll through the table's mutex; read before, running() sees the
// finish, and the request takes the grant back.
func (o *Owner) AcquireBehind(ctx context.Context, tag Tag, mode Mode, holder *Owner, running func() bool) error {
	return o.acquire(ctx, tag, mode, false, holder, running)
}

func (o *Owner) acquire(ctx context.Context, tag Tag, mode Mode, toEnd bool, holder *Owner, running func() bool) error {
	m := o.m
	m.acquireCnt.Add(1)
	if hook := m.faultHook.Load(); hook != nil {
		if err := (*hook)(); err != nil {
			return err
		}
	}
	if tag.Kind == TagRelation && fastModes&(1<<mode) != 0 && o.fastAcquire(tag.A, mode) {
		return nil
	}
	if tag.Kind == TagRelation && strongModes&(1<<mode) != 0 {
		m.strong[strongSlot(tag.A)].Add(1)
	}
	m.mu.Lock()
	w, err := m.requestLocked(o, tag, mode, toEnd, holder, running)
	m.mu.Unlock()
	if w != nil {
		err = m.wait(ctx, w, tag)
	}
	if err != nil {
		m.unstrong(tag, 1<<mode)
	}
	return err
}

// requestLocked grants o's request, or queues it and returns its waiter.
func (m *Manager) requestLocked(o *Owner, tag Tag, mode Mode, toEnd bool, holder *Owner, running func() bool) (*waiter, error) {
	if _, dead := m.killed[o.id]; m.down.Load() {
		return nil, ErrShutdown
	} else if dead {
		return nil, ErrDeadlockVictim
	}
	// A strong request moves every owner's fast-path locks on the relation
	// into the table, any other its own: each held mode is in one place.
	if tag.Kind == TagRelation && strongModes&(1<<mode) != 0 {
		for _, h := range m.owners {
			m.moveFast(h, tag.A)
		}
	} else if tag.Kind == TagRelation {
		m.moveFast(o, tag.A)
	}
	l := m.lockFor(tag)
	if holder != nil && l.grantOf(holder) == nil {
		m.grantLocked(l, holder, tag, Exclusive, false)
		if !running() {
			m.unhold(l, holder, tag)
		}
	}
	if g := l.grantOf(o); g != nil && g.modes&(1<<mode) != 0 || // already held
		!l.holderConflicts(o, mode) && !queueConflicts(l, o, mode, len(l.queue)) {
		m.grantLocked(l, o, tag, mode, toEnd)
		return nil, nil
	}
	w := &waiter{o: o, txn: o.id, mode: mode, toEnd: toEnd, ready: make(chan struct{}), t0: time.Now()}
	l.queue = append(l.queue, w)
	return w, nil
}

// wait blocks until w is granted or fails, or ctx ends.
func (m *Manager) wait(ctx context.Context, w *waiter, tag Tag) error {
	defer func() { m.WaitNanos.Add(time.Since(w.t0).Nanoseconds()); m.Waits.Inc() }()
	select {
	case <-w.ready:
		return w.err
	case <-ctx.Done():
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-w.ready: // the grant raced with cancellation
		return w.err
	default:
	}
	if l := m.locks[tag]; l != nil {
		l.queue = slices.DeleteFunc(l.queue, func(q *waiter) bool { return q == w })
		m.promoteLocked(tag, l)
	}
	if ctx.Err() == context.DeadlineExceeded {
		return ErrLockTimeout
	}
	return ctx.Err()
}

func (m *Manager) grantLocked(l *lock, o *Owner, tag Tag, mode Mode, toEnd bool) {
	if g := l.grantOf(o); g != nil {
		if g.modes&(1<<mode) != 0 {
			m.unstrong(tag, 1<<mode) // a second request of a held mode
		}
		g.modes |= 1 << mode
		g.toEnd = g.toEnd || toEnd
		return
	}
	o.mu.Lock() // the id too: an implicit lock's entry may race a Reset
	id := o.id
	o.state |= inTable
	o.mu.Unlock()
	l.grants = append(l.grants, grant{o: o, txn: id, modes: 1 << mode, toEnd: toEnd, at: len(o.held)})
	o.held = append(o.held, hold{tag: tag, l: l})
}

// dropGrant removes o's grant from l and returns its held-list index.
func (m *Manager) dropGrant(l *lock, o *Owner, tag Tag) int {
	g := l.grantOf(o)
	at := g.at
	m.unstrong(tag, g.modes)
	last := len(l.grants) - 1
	*g = l.grants[last]
	l.grants = l.grants[:last]
	return at
}

// promoteLocked grants every queued waiter that is now compatible, in FIFO
// order, stopping the scan past a conflicting waiter only for requests that
// conflict with it (fair but work-conserving).
func (m *Manager) promoteLocked(tag Tag, l *lock) {
	i := 0
	for i < len(l.queue) {
		w := l.queue[i]
		if !l.holderConflicts(w.o, w.mode) && !queueConflicts(l, w.o, w.mode, i) {
			m.grantLocked(l, w.o, tag, w.mode, w.toEnd)
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

// Release drops every mode o holds on tag (tuple locks use this to release
// before transaction end, which is what makes their edges dotted).
func (o *Owner) Release(tag Tag) {
	o.mu.Lock()
	if tag.Kind == TagRelation {
		o.takeFast(tag.A)
	}
	inTable := o.state&inTable != 0
	o.mu.Unlock()
	if m := o.m; inTable {
		m.mu.Lock()
		if l := m.locks[tag]; l != nil && l.grantOf(o) != nil {
			m.unhold(l, o, tag)
			m.promoteLocked(tag, l)
		}
		m.mu.Unlock()
	}
}

// unhold drops o's grant on l and its held-list entry.
func (m *Manager) unhold(l *lock, o *Owner, tag Tag) {
	at, last := m.dropGrant(l, o, tag), len(o.held)-1
	if at != last {
		moved := o.held[last]
		o.held[at] = moved
		moved.l.grantOf(o).at = at
	}
	o.held[last] = hold{}
	if o.held = o.held[:last]; last == 0 {
		if cap(o.held) > freeCap {
			o.held = nil
		}
		o.mu.Lock()
		o.state &^= inTable
		o.mu.Unlock()
	}
}

// ReleaseAll drops every lock o holds (two-phase locking: called at commit
// or abort) and clears any victim mark; an owner with nothing in the table
// and no victim mark does it under its own mutex alone.
func (o *Owner) ReleaseAll() {
	o.mu.Lock()
	o.nfast = 0
	clean := o.state == 0
	o.mu.Unlock()
	if clean {
		return
	}
	m := o.m
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.killed, o.id)
	o.mu.Lock()
	o.nfast, o.state = 0, 0
	o.mu.Unlock()
	list := o.held
	o.held = nil // a promotion below may grant o anew
	for _, hd := range list {
		m.dropGrant(hd.l, o, hd.tag)
		m.promoteLocked(hd.tag, hd.l)
	}
	if clear(list); o.held == nil && cap(list) <= freeCap {
		o.held = list[:0]
	}
}

// Kill marks txn as a deadlock victim: its queued waits fail immediately
// with ErrDeadlockVictim and subsequent Acquire calls fail until ReleaseAll.
func (m *Manager) Kill(txn TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.killed[txn] = struct{}{}
	for _, o := range m.owners {
		o.mu.Lock()
		if o.id == txn {
			o.state |= victim
		}
		o.mu.Unlock()
	}
	for tag, l := range m.locks {
		n := len(l.queue)
		l.queue = slices.DeleteFunc(l.queue, func(w *waiter) bool {
			if w.txn == txn {
				w.err = ErrDeadlockVictim
				close(w.ready)
			}
			return w.txn == txn
		})
		if len(l.queue) < n {
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
	if m.down.Swap(true) {
		return
	}
	for _, l := range m.locks {
		for _, w := range l.queue {
			w.err = ErrShutdown
			close(w.ready)
		}
		l.queue = nil
	}
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
