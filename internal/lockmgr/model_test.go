package lockmgr

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// modelWaiter is one queued request of the reference model.
type modelWaiter struct {
	txn   TxnID
	mode  Mode
	toEnd bool
	done  chan error // the real Acquire's result
}

// modelHold is one holder's state in the reference model: the modes it
// holds in the table and those on its fast path.
type modelHold struct {
	modes, fast map[Mode]bool
	toEnd       bool
}

// modelLock is the reference model's per-tag state, kept in plain maps.
type modelLock struct {
	holders map[TxnID]*modelHold
	queue   []*modelWaiter
}

// model is a naive lock table: the manager's documented behaviour written
// as directly as possible, to check the real one against.
type model struct {
	locks  map[Tag]*modelLock
	killed map[TxnID]struct{}
	// resolved collects the waiters a step granted (nil) or failed.
	resolved map[*modelWaiter]error
}

func (md *model) lock(tag Tag) *modelLock {
	l := md.locks[tag]
	if l == nil {
		l = &modelLock{holders: map[TxnID]*modelHold{}}
		md.locks[tag] = l
	}
	return l
}

// blocked reports whether txn's request for mode must wait: a conflicting
// other holder, or a conflicting other waiter among the first upto queued.
func (l *modelLock) blocked(txn TxnID, mode Mode, upto int) bool {
	for h, hold := range l.holders {
		for _, held := range []map[Mode]bool{hold.modes, hold.fast} {
			for m := range held {
				if h != txn && Conflicts(mode, m) {
					return true
				}
			}
		}
	}
	for _, w := range l.queue[:upto] {
		if w.txn != txn && Conflicts(mode, w.mode) {
			return true
		}
	}
	return false
}

func (l *modelLock) hold(txn TxnID) *modelHold {
	h := l.holders[txn]
	if h == nil {
		h = &modelHold{modes: map[Mode]bool{}, fast: map[Mode]bool{}}
		l.holders[txn] = h
	}
	return h
}

func (l *modelLock) grant(txn TxnID, mode Mode, toEnd bool) {
	h := l.hold(txn)
	h.modes[mode] = true
	h.toEnd = h.toEnd || toEnd
}

func isStrong(tag Tag, mode Mode) bool { return tag.Kind == TagRelation && mode >= Share }

// fastPath reports whether txn's request goes on its fast path: a weak
// relation mode, while txn holds nothing in the table and is no victim, and
// no relation of the tag's strong-lock slot is held or wanted strongly.
func (md *model) fastPath(txn TxnID, tag Tag, mode Mode) bool {
	if tag.Kind != TagRelation || mode > RowExclusive {
		return false
	}
	if _, dead := md.killed[txn]; dead {
		return false
	}
	for t, l := range md.locks {
		if h := l.holders[txn]; h != nil && len(h.modes) > 0 {
			return false
		}
		if t.Kind != TagRelation || strongSlot(t.A) != strongSlot(tag.A) {
			continue
		}
		for _, h := range l.holders {
			for m := range h.modes {
				if isStrong(t, m) {
					return false
				}
			}
		}
		for _, w := range l.queue {
			if isStrong(t, w.mode) {
				return false
			}
		}
	}
	return true
}

// acquire returns granted, or queues w and returns false. A request that
// misses the fast path first moves its own fast-path modes on the tag into
// the table, and a strong relation request every holder's.
func (md *model) acquire(w *modelWaiter, tag Tag) bool {
	if md.fastPath(w.txn, tag, w.mode) {
		md.lock(tag).hold(w.txn).fast[w.mode] = true
		return true
	}
	l := md.lock(tag)
	for txn, h := range l.holders {
		if isStrong(tag, w.mode) || txn == w.txn {
			for m := range h.fast {
				h.modes[m] = true
			}
			clear(h.fast)
		}
	}
	if h := l.holders[w.txn]; h != nil && (h.modes[w.mode] || h.fast[w.mode]) {
		h.toEnd = h.toEnd || w.toEnd
		return true
	}
	if !l.blocked(w.txn, w.mode, len(l.queue)) {
		l.grant(w.txn, w.mode, w.toEnd)
		return true
	}
	l.queue = append(l.queue, w)
	return false
}

func (md *model) promote(tag Tag) {
	l := md.locks[tag]
	for i := 0; i < len(l.queue); {
		if w := l.queue[i]; !l.blocked(w.txn, w.mode, i) {
			l.grant(w.txn, w.mode, w.toEnd)
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			md.resolved[w] = nil
			continue
		}
		i++
	}
	md.tidy(tag)
}

// tidy drops tag's state once nobody holds or wants it.
func (md *model) tidy(tag Tag) {
	l := md.locks[tag]
	for h, hold := range l.holders {
		if len(hold.modes)+len(hold.fast) == 0 {
			delete(l.holders, h)
		}
	}
	if len(l.holders) == 0 && len(l.queue) == 0 {
		delete(md.locks, tag)
	}
}

// enterImplicit is a request behind holder's implicit transaction lock on
// tag: a running holder's Exclusive grant enters the table, unless it
// holds the tag already.
func (md *model) enterImplicit(tag Tag, holder TxnID, running bool) {
	if l := md.lock(tag); running && l.holders[holder] == nil {
		l.grant(holder, Exclusive, false)
	}
}

func (md *model) release(txn TxnID, tag Tag) {
	if l := md.locks[tag]; l != nil && l.holders[txn] != nil {
		delete(l.holders, txn)
		md.promote(tag)
	}
}

func (md *model) releaseAll(txn TxnID) {
	delete(md.killed, txn)
	for tag := range md.locks {
		md.release(txn, tag)
	}
}

func (md *model) kill(txn TxnID) {
	md.killed[txn] = struct{}{}
	for tag, l := range md.locks {
		n := len(l.queue)
		for i := 0; i < len(l.queue); {
			if w := l.queue[i]; w.txn == txn {
				md.resolved[w] = ErrDeadlockVictim
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				continue
			}
			i++
		}
		if len(l.queue) != n {
			md.promote(tag)
		}
	}
}

func (md *model) waiting(txn TxnID) bool {
	for _, l := range md.locks {
		for _, w := range l.queue {
			if w.txn == txn {
				return true
			}
		}
	}
	return false
}

func (md *model) dump() []string {
	var out []string
	for tag, l := range md.locks {
		for h, hold := range l.holders {
			for m := range hold.modes {
				out = append(out, fmt.Sprintf("%s held by txn %d in %s", tag, h, m))
			}
			for m := range hold.fast {
				out = append(out, fmt.Sprintf("%s held by txn %d in %s fastpath", tag, h, m))
			}
		}
		for i, w := range l.queue {
			out = append(out, fmt.Sprintf("%s wanted by txn %d in %s (queue pos %d)", tag, w.txn, w.mode, i))
		}
	}
	sort.Strings(out)
	return out
}

func (md *model) waitGraph() map[Edge]bool {
	edges := map[Edge]bool{}
	for tag, l := range md.locks {
		solid := tag.Kind != TagTuple
		for i, w := range l.queue {
			for h, hold := range l.holders {
				for m := range hold.modes {
					if h != w.txn && Conflicts(w.mode, m) {
						edges[Edge{Waiter: w.txn, Holder: h, Solid: solid || hold.toEnd}] = true
					}
				}
			}
			for _, prev := range l.queue[:i] {
				if prev.txn != w.txn && Conflicts(w.mode, prev.mode) {
					edges[Edge{Waiter: w.txn, Holder: prev.txn, Solid: solid || prev.toEnd}] = true
				}
			}
		}
	}
	return edges
}

// TestLockTableMatchesModel runs seeded random sequences of every lock
// operation over 4 transactions and 7 tags — blocking acquires in
// goroutines — and after each step compares the real table's Dump,
// WaitGraph, Waiting and HoldsAny with the reference model's. The model
// knows which grants sit on a fast path (Dump marks them), moves them into
// the table at a strong request, and enters a running holder's implicit
// transaction lock for a request behind it; a transaction ends (not
// running, then ReleaseAll) and begins again.
func TestLockTableMatchesModel(t *testing.T) {
	tags := []Tag{RelationTag(1), RelationTag(2), RelationTag(3), TupleTag(1, 1), TupleTag(1, 2), TransactionTag(3), TupleTag(2, 9)}
	modes := []Mode{AccessShare, RowShare, RowExclusive, Share, Exclusive, AccessExclusive}
	const txns = 4
	if strongSlot(1) == strongSlot(2) || strongSlot(1) == strongSlot(3) {
		t.Fatal("relations 1 and 2 (or 3) share a strong-lock slot: the test wants 1 apart")
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newTable()
		var running [txns + 1]atomic.Bool
		for txn := range running {
			running[txn].Store(true)
		}
		md := &model{locks: map[Tag]*modelLock{}, killed: map[TxnID]struct{}{}, resolved: map[*modelWaiter]error{}}
		ctx := context.Background()
		step := 0
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		// settle collects the results of the waiters the last step resolved.
		settle := func() {
			for w, want := range md.resolved {
				select {
				case err := <-w.done:
					if err != want {
						fail("txn %d's wait ended with %v, want %v", w.txn, err, want)
					}
				case <-time.After(2 * time.Second):
					fail("txn %d's wait did not end (want %v)", w.txn, want)
				}
				delete(md.resolved, w)
			}
		}
		compare := func() {
			if got, want := m.Dump(), md.dump(); fmt.Sprint(got) != fmt.Sprint(want) {
				fail("Dump\n got %q\nwant %q", got, want)
			}
			got := map[Edge]bool{}
			for _, e := range m.WaitGraph() {
				if got[e] {
					fail("WaitGraph repeats %+v", e)
				}
				got[e] = true
			}
			if want := md.waitGraph(); fmt.Sprint(got) != fmt.Sprint(want) {
				fail("WaitGraph\n got %v\nwant %v", got, want)
			}
			for txn := TxnID(1); txn <= txns; txn++ {
				holds := md.waiting(txn)
				for _, l := range md.locks {
					holds = holds || l.holders[txn] != nil
				}
				if m.Waiting(txn) != md.waiting(txn) || m.HoldsAny(txn) != holds {
					fail("txn %d: Waiting %v HoldsAny %v, model %v %v", txn, m.Waiting(txn), m.HoldsAny(txn), md.waiting(txn), holds)
				}
			}
		}
		for ; step < 300; step++ {
			txn := TxnID(1 + rng.Intn(txns))
			tag, mode := tags[rng.Intn(len(tags))], modes[rng.Intn(len(modes))]
			op := rng.Intn(13)
			if md.waiting(txn) && op != 9 {
				continue // a waiting transaction can only be killed
			}
			_, killed := md.killed[txn]
			holder := 1 + (txn+TxnID(rng.Intn(txns-1)))%txns // another transaction
			switch {
			case op < 4 || op == 10: // Acquire, AcquireToEnd, AcquireBehind
				w := &modelWaiter{txn: txn, mode: mode, toEnd: op%2 == 1, done: make(chan error, 1)}
				if op == 10 {
					tag, w.mode = TransactionTag(holder), Share
				}
				go func() {
					switch {
					case op == 10:
						w.done <- m.Owner(w.txn).AcquireBehind(ctx, tag, w.mode, m.Owner(holder), running[holder].Load)
					case w.toEnd:
						w.done <- m.AcquireToEnd(ctx, w.txn, tag, w.mode)
					default:
						w.done <- m.Acquire(ctx, w.txn, tag, w.mode)
					}
				}()
				if op == 10 && !killed {
					md.enterImplicit(tag, holder, running[holder].Load())
				}
				switch {
				case killed:
					md.resolved[w] = ErrDeadlockVictim
				case md.acquire(w, tag):
					md.resolved[w] = nil
				default:
					for deadline := time.Now().Add(2 * time.Second); !m.Waiting(txn); time.Sleep(50 * time.Microsecond) {
						if time.Now().After(deadline) {
							fail("txn %d never queued for %s in %s", txn, tag, mode)
						}
					}
				}
			case op == 4:
				want := !killed && md.acquire(&modelWaiter{txn: txn, mode: mode}, tag)
				if !want && !killed {
					l := md.locks[tag] // the model queued it: take it back out
					l.queue = l.queue[:len(l.queue)-1]
				}
				if got := m.TryAcquire(txn, tag, mode); got != want {
					fail("TryAcquire(%d, %s, %s) = %v, want %v", txn, tag, mode, got, want)
				}
			case op < 7:
				m.Release(txn, tag)
				md.release(txn, tag)
			case op < 9:
				m.ReleaseAll(txn)
				md.releaseAll(txn)
			case op == 9:
				m.Kill(txn)
				md.kill(txn)
			case op == 11: // the transaction ends: no longer running, then ReleaseAll
				running[txn].Store(false)
				m.ReleaseAll(txn)
				md.releaseAll(txn)
			default: // and begins again
				running[txn].Store(true)
			}
			settle()
			compare()
		}
		for txn := TxnID(1); txn <= txns; txn++ {
			m.Kill(txn)
			md.kill(txn)
		}
		settle()
		for txn := TxnID(1); txn <= txns; txn++ {
			m.ReleaseAll(txn)
			md.releaseAll(txn)
		}
		settle()
		compare()
		if d := m.Dump(); len(d) != 0 {
			t.Fatalf("seed %d: table not empty at the end: %q", seed, d)
		}
	}
}

// TestManyTupleLocksRelease: one transaction holds 20 000 tuple locks to
// its end (SELECT … FOR UPDATE), then takes and releases a short lock on
// each (the UPDATE). Release finds its entry without a search, so this is
// linear; a quadratic Release would take seconds.
func TestManyTupleLocksRelease(t *testing.T) {
	m := newTable()
	ctx := context.Background()
	const n = 20000
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		if err := m.AcquireToEnd(ctx, 1, TupleTag(1, i), Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		tag := TupleTag(1, i)
		if err := m.Acquire(ctx, 1, tag, Exclusive); err != nil {
			t.Fatal(err)
		}
		m.Release(1, tag)
	}
	m.ReleaseAll(1)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("20 000 tuple locks took %v", el)
	}
	if m.HoldsAny(1) || len(m.Dump()) != 0 {
		t.Fatal("locks left behind")
	}
	if o := m.Owner(1); len(m.freeLocks) > freeCap || cap(o.held) > freeCap {
		t.Fatalf("kept past %d: %d free locks, a held list of %d", freeCap, len(m.freeLocks), cap(o.held))
	}
}

// TestLockTableAllocations: a statement's steady-state lock traffic — a
// fast-path relation lock, a tuple lock in the table, release at commit,
// the owner reused for the next transaction — allocates nothing.
func TestLockTableAllocations(t *testing.T) {
	m := NewManager()
	o := m.NewOwner(0)
	ctx := context.Background()
	txn := TxnID(0)
	cycle := func() {
		txn++
		o.Reset(txn)
		if err := o.Acquire(ctx, RelationTag(7), RowExclusive); err != nil {
			t.Fatal(err)
		}
		if err := o.AcquireToEnd(ctx, TupleTag(7, 1), Exclusive); err != nil {
			t.Fatal(err)
		}
		o.ReleaseAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("lock cycle allocates %.1f times, want 0", allocs)
	}
}

// TestLockTableConcurrentChurn: sessions on several goroutines, each
// reusing one owner, take and drop fast-path relation locks and contended
// tuple locks, and wait behind each other's implicit transaction locks,
// while another takes a strong lock on the relation now and then — so
// fast-path locks move into the table under concurrent acquires and
// releases, and recycled locks and held lists pass between transactions
// while others wait. The table ends empty.
func TestLockTableConcurrentChurn(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	const sessions = 4
	var owners [sessions]*Owner
	var running [sessions]atomic.Bool
	for g := range owners {
		owners[g] = m.NewOwner(0)
	}
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := owners[g]
			for i := 0; i < 2000; i++ {
				txn := TxnID(g*10000 + i + 1)
				o.Reset(txn)
				running[g].Store(true)
				var err error
				if h := g + 1; h < sessions && i%3 == 0 {
					// Racing the next session's end and Reset is the point:
					// the request must never queue behind a finished holder.
					// Holding nothing yet, and only ever waiting on a higher
					// session, the sessions cannot deadlock.
					err = o.AcquireBehind(ctx, TransactionTag(TxnID(h)), Share, owners[h], running[h].Load)
					o.Release(TransactionTag(TxnID(h)))
				}
				tup := TupleTag(1, uint64(i%5))
				if err == nil {
					err = o.Acquire(ctx, RelationTag(1), RowExclusive)
				}
				if err == nil {
					err = o.AcquireToEnd(ctx, tup, Exclusive)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					o.Release(tup)
				}
				running[g].Store(false)
				o.ReleaseAll()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		o := m.NewOwner(99999)
		for i := 0; i < 200; i++ {
			if err := o.Acquire(ctx, RelationTag(1), Share); err != nil {
				t.Error(err)
				return
			}
			o.ReleaseAll()
		}
	}()
	wg.Wait()
	if d := m.Dump(); len(d) != 0 {
		t.Fatalf("locks left behind: %q", d)
	}
	if n := m.strong[strongSlot(1)].Load(); n != 0 {
		t.Fatalf("strong-lock counter left at %d", n)
	}
}
