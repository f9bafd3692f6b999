package lockmgr

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
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

// modelHold is one holder's state in the reference model.
type modelHold struct {
	modes map[Mode]bool
	toEnd bool
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
		for m := range hold.modes {
			if h != txn && Conflicts(mode, m) {
				return true
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

func (l *modelLock) grant(txn TxnID, mode Mode, toEnd bool) {
	h := l.holders[txn]
	if h == nil {
		h = &modelHold{modes: map[Mode]bool{}}
		l.holders[txn] = h
	}
	h.modes[mode] = true
	h.toEnd = h.toEnd || toEnd
}

// acquire returns granted, or queues w and returns false.
func (md *model) acquire(w *modelWaiter, tag Tag) bool {
	l := md.lock(tag)
	if h := l.holders[w.txn]; h != nil && h.modes[w.mode] {
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
	if len(l.holders) == 0 && len(l.queue) == 0 {
		delete(md.locks, tag)
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
// operation over 4 transactions and 6 tags — blocking acquires in
// goroutines — and after each step compares the real table's Dump,
// WaitGraph, Waiting and HoldsAny with the reference model's.
func TestLockTableMatchesModel(t *testing.T) {
	tags := []Tag{RelationTag(1), RelationTag(2), TupleTag(1, 1), TupleTag(1, 2), TransactionTag(3), ObjectTag(9)}
	modes := []Mode{AccessShare, RowShare, RowExclusive, Share, Exclusive, AccessExclusive}
	const txns = 4
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
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
			op := rng.Intn(10)
			if md.waiting(txn) && op != 9 {
				continue // a waiting transaction can only be killed
			}
			_, killed := md.killed[txn]
			switch {
			case op < 4: // Acquire or AcquireToEnd
				w := &modelWaiter{txn: txn, mode: mode, toEnd: op%2 == 1, done: make(chan error, 1)}
				go func() {
					if w.toEnd {
						w.done <- m.AcquireToEnd(ctx, w.txn, tag, w.mode)
					} else {
						w.done <- m.Acquire(ctx, w.txn, tag, w.mode)
					}
				}()
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
			default:
				m.Kill(txn)
				md.kill(txn)
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
	m := NewManager()
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
	if len(m.freeLocks) > freeCap || len(m.freeHolds) > freeCap {
		t.Fatalf("free lists grew past %d: %d locks, %d held lists", freeCap, len(m.freeLocks), len(m.freeHolds))
	}
}

// TestLockTableAllocations: a statement's steady-state lock traffic — a
// relation lock, the transaction's own lock, release at commit — recycles
// the table's structs and allocates nothing.
func TestLockTableAllocations(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	txn := TxnID(0)
	cycle := func() {
		txn++
		if err := m.Acquire(ctx, txn, RelationTag(7), RowExclusive); err != nil {
			t.Fatal(err)
		}
		if !m.TryAcquire(txn, TransactionTag(txn), Exclusive) {
			t.Fatal("transaction lock refused")
		}
		m.ReleaseAll(txn)
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("lock cycle allocates %.1f times, want 0", allocs)
	}
}

// TestLockTableConcurrentChurn: sessions on several goroutines take and
// drop relation, transaction and contended tuple locks, so recycled locks
// and held lists pass between transactions while others wait. The table
// ends empty.
func TestLockTableConcurrentChurn(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				txn := TxnID(g*10000 + i + 1)
				if !m.TryAcquire(txn, TransactionTag(txn), Exclusive) {
					t.Error("transaction lock refused")
					return
				}
				tup := TupleTag(1, uint64(i%5))
				err := m.Acquire(ctx, txn, RelationTag(1), RowExclusive)
				if err == nil {
					err = m.AcquireToEnd(ctx, txn, tup, Exclusive)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					m.Release(txn, tup)
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	if d := m.Dump(); len(d) != 0 {
		t.Fatalf("locks left behind: %q", d)
	}
}
