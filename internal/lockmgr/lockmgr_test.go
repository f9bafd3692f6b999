package lockmgr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// table is a Manager driven by transaction id, the way these tests are
// written.
type table struct{ *Manager }

func newTable() *table { return &table{NewManager()} }

func (tb *table) AcquireToEnd(ctx context.Context, txn TxnID, tag Tag, mode Mode) error {
	return tb.Owner(txn).AcquireToEnd(ctx, tag, mode)
}

// TryAcquire takes the lock only if it is free at once: an Acquire whose
// context is already cancelled.
func (tb *table) TryAcquire(txn TxnID, tag Tag, mode Mode) bool {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return tb.Acquire(ctx, txn, tag, mode) == nil
}

func (tb *table) ReleaseAll(txn TxnID) { tb.Owner(txn).ReleaseAll() }

// Waiting reports whether txn is blocked in the table.
func (tb *table) Waiting(txn TxnID) bool {
	found := false
	tb.each(func(_ Tag, t TxnID, _ uint16, pos int) { found = found || t == txn && pos >= 0 })
	return found
}

// TestConflictMatrixMatchesPaperTable1 transcribes the paper's Table 1 and
// checks every cell of the 8×8 matrix.
func TestConflictMatrixMatchesPaperTable1(t *testing.T) {
	conflictsWith := map[Mode][]Mode{
		AccessShare:          {8},
		RowShare:             {7, 8},
		RowExclusive:         {5, 6, 7, 8},
		ShareUpdateExclusive: {4, 5, 6, 7, 8},
		Share:                {3, 4, 6, 7, 8},
		ShareRowExclusive:    {3, 4, 5, 6, 7, 8},
		Exclusive:            {2, 3, 4, 5, 6, 7, 8},
		AccessExclusive:      {1, 2, 3, 4, 5, 6, 7, 8},
	}
	for a := AccessShare; a <= AccessExclusive; a++ {
		want := map[Mode]bool{}
		for _, lvl := range conflictsWith[a] {
			want[lvl] = true
		}
		for b := AccessShare; b <= AccessExclusive; b++ {
			if got := Conflicts(a, b); got != want[b] {
				t.Errorf("Conflicts(%s, %s) = %v, want %v", a, b, got, want[b])
			}
		}
	}
}

// TestConflictSymmetry: the matrix must be symmetric.
func TestConflictSymmetry(t *testing.T) {
	for a := AccessShare; a <= AccessExclusive; a++ {
		for b := AccessShare; b <= AccessExclusive; b++ {
			if Conflicts(a, b) != Conflicts(b, a) {
				t.Errorf("asymmetry at (%s, %s)", a, b)
			}
		}
	}
}

// TestModeForName covers the SQL spellings.
func TestModeForName(t *testing.T) {
	cases := map[string]Mode{
		"ACCESS SHARE":           AccessShare,
		"ROW SHARE":              RowShare,
		"ROW EXCLUSIVE":          RowExclusive,
		"SHARE UPDATE EXCLUSIVE": ShareUpdateExclusive,
		"SHARE":                  Share,
		"SHARE ROW EXCLUSIVE":    ShareRowExclusive,
		"EXCLUSIVE":              Exclusive,
		"ACCESS EXCLUSIVE":       AccessExclusive,
		"":                       AccessExclusive, // LOCK TABLE default
		"BOGUS":                  0,
	}
	for name, want := range cases {
		if got := ModeForName(name); got != want {
			t.Errorf("ModeForName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestSharedGrantsDoNotBlock(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	for txn := TxnID(1); txn <= 5; txn++ {
		if err := m.Acquire(ctx, txn, tag, AccessShare); err != nil {
			t.Fatalf("share grant %d: %v", txn, err)
		}
	}
	if m.TryAcquire(6, tag, AccessExclusive) {
		t.Fatal("AccessExclusive must conflict with holders")
	}
}

func TestExclusiveBlocksAndReleases(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, tag, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, tag, Exclusive) }()
	select {
	case <-done:
		t.Fatal("second exclusive should block")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("grant after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not granted after release")
	}
}

// TestFIFOFairness: a queued conflicting waiter must not be overtaken by a
// newcomer that conflicts with it.
func TestFIFOFairness(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, tag, AccessShare); err != nil {
		t.Fatal(err)
	}
	exclDone := make(chan error, 1)
	go func() { exclDone <- m.Acquire(ctx, 2, tag, AccessExclusive) }()
	time.Sleep(10 * time.Millisecond)
	// A new AccessShare request conflicts with the queued AccessExclusive:
	// it must queue behind it rather than starve it.
	shareDone := make(chan error, 1)
	go func() { shareDone <- m.Acquire(ctx, 3, tag, AccessShare) }()
	select {
	case <-shareDone:
		t.Fatal("newcomer share overtook queued exclusive")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-exclDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-shareDone; err != nil {
		t.Fatal(err)
	}
}

func TestReacquireHeldModeIsNoop(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := m.Acquire(ctx, 1, tag, RowExclusive); err != nil {
			t.Fatal(err)
		}
	}
	m.ReleaseAll(1)
	if !m.TryAcquire(2, tag, AccessExclusive) {
		t.Fatal("lock not fully released")
	}
}

func TestKillWakesWaiterWithVictimError(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, tag, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, tag, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	m.Kill(2)
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlockVictim) {
			t.Fatalf("err = %v, want ErrDeadlockVictim", err)
		}
	case <-time.After(time.Second):
		t.Fatal("killed waiter still blocked")
	}
	// Further acquires by the victim fail until ReleaseAll.
	if m.TryAcquire(2, RelationTag(9), AccessShare) {
		t.Fatal("killed txn must not acquire new locks")
	}
	m.ReleaseAll(2)
	if !m.TryAcquire(2, RelationTag(9), AccessShare) {
		t.Fatal("victim mark must clear at ReleaseAll")
	}
}

func TestContextCancellationRemovesWaiter(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	if err := m.Acquire(context.Background(), 1, tag, Exclusive); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, tag, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelled waiter must not linger in the queue.
	if g := m.WaitGraph(); len(g) != 0 {
		t.Fatalf("wait graph not empty after cancellation: %v", g)
	}
}

func TestWaitGraphEdges(t *testing.T) {
	m := newTable()
	rel := RelationTag(1)
	tup := TupleTag(1, 42)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, rel, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(ctx, 1, tup, Exclusive); err != nil {
		t.Fatal(err)
	}
	go m.Acquire(ctx, 2, rel, Exclusive) //nolint:errcheck
	go m.Acquire(ctx, 3, tup, Exclusive) //nolint:errcheck
	time.Sleep(20 * time.Millisecond)
	g := m.WaitGraph()
	if len(g) != 2 {
		t.Fatalf("edges = %v, want 2", g)
	}
	var sawSolid, sawDotted bool
	for _, e := range g {
		if e.Holder != 1 {
			t.Errorf("edge holder = %d, want 1", e.Holder)
		}
		if e.Solid {
			sawSolid = true
			if e.Waiter != 2 {
				t.Errorf("solid (relation) edge from %d, want 2", e.Waiter)
			}
		} else {
			sawDotted = true
			if e.Waiter != 3 {
				t.Errorf("dotted (tuple) edge from %d, want 3", e.Waiter)
			}
		}
	}
	if !sawSolid || !sawDotted {
		t.Fatalf("expected one solid and one dotted edge: %v", g)
	}
	m.Kill(2)
	m.Kill(3)
}

// TestWaitGraphTupleLockHeldToEnd: a tuple lock taken with AcquireToEnd
// gives solid edges — into the holder, and into a queued AcquireToEnd that
// will become one — and turns dotted again once released and re-taken with
// plain Acquire.
func TestWaitGraphTupleLockHeldToEnd(t *testing.T) {
	m := newTable()
	tup := TupleTag(1, 42)
	ctx := context.Background()
	if err := m.AcquireToEnd(ctx, 1, tup, Exclusive); err != nil {
		t.Fatal(err)
	}
	waitFor := func(txn TxnID) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !m.Waiting(txn); {
			if time.Now().After(deadline) {
				t.Fatalf("txn %d never queued", txn)
			}
			time.Sleep(time.Millisecond)
		}
	}
	granted := make(chan TxnID, 2)
	go func() { _ = m.AcquireToEnd(ctx, 2, tup, Exclusive); granted <- 2 }()
	waitFor(2)
	go func() { _ = m.Acquire(ctx, 3, tup, Exclusive); granted <- 3 }()
	waitFor(3)
	want := map[Edge]bool{
		{Waiter: 2, Holder: 1, Solid: true}: true,
		{Waiter: 3, Holder: 1, Solid: true}: true,
		{Waiter: 3, Holder: 2, Solid: true}: true, // 2 will keep it to its end too
	}
	g := m.WaitGraph()
	if len(g) != len(want) {
		t.Fatalf("edges = %v, want %v", g, want)
	}
	for _, e := range g {
		if !want[e] {
			t.Fatalf("unexpected edge %+v in %v", e, g)
		}
	}
	m.ReleaseAll(1)
	if txn := <-granted; txn != 2 {
		t.Fatalf("txn %d granted before txn 2", txn)
	}
	if g := m.WaitGraph(); len(g) != 1 || g[0] != (Edge{Waiter: 3, Holder: 2, Solid: true}) {
		t.Fatalf("after promotion: edges = %v, want 3 -> 2 solid", g)
	}
	// The flag goes with the hold: released, then taken the short way, the
	// same tuple lock gives a dotted edge.
	m.Kill(3)
	<-granted
	m.ReleaseAll(3)
	m.ReleaseAll(2)
	if err := m.Acquire(ctx, 2, tup, Exclusive); err != nil {
		t.Fatal(err)
	}
	go func() { _ = m.Acquire(ctx, 3, tup, Exclusive); granted <- 3 }()
	waitFor(3)
	if g := m.WaitGraph(); len(g) != 1 || g[0] != (Edge{Waiter: 3, Holder: 2, Solid: false}) {
		t.Fatalf("short tuple lock: edges = %v, want 3 -> 2 dotted", g)
	}
	m.ReleaseAll(2)
	<-granted
}

func TestWaitStatsAccumulate(t *testing.T) {
	m := newTable()
	tag := RelationTag(1)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, tag, Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = m.Acquire(ctx, 2, tag, Exclusive)
	}()
	time.Sleep(30 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	waited, waits, acquires := m.WaitStats()
	if waits != 1 || waited < 20*time.Millisecond {
		t.Fatalf("waited=%v waits=%d", waited, waits)
	}
	if acquires < 2 {
		t.Fatalf("acquires = %d", acquires)
	}
}

func TestTupleLockEarlyRelease(t *testing.T) {
	m := newTable()
	tup := TupleTag(7, 7)
	ctx := context.Background()
	if err := m.Acquire(ctx, 1, tup, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, 2, tup, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// Early release (before transaction end) — the dotted-edge behaviour.
	m.Release(1, tup)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHoldsAny(t *testing.T) {
	m := newTable()
	if m.HoldsAny(1) {
		t.Fatal("fresh txn holds nothing")
	}
	_ = m.Acquire(context.Background(), 1, RelationTag(3), AccessShare)
	if !m.HoldsAny(1) {
		t.Fatal("holder not found")
	}
	m.ReleaseAll(1)
	if m.HoldsAny(1) {
		t.Fatal("still holding after ReleaseAll")
	}
}
