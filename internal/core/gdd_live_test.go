package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lockmgr"
	"repro/internal/types"
)

// keyOnSegment finds a small int key whose hash routes to the wanted
// segment under nseg segments.
func keyOnSegment(nseg, want int) int {
	for k := 1; k < 100000; k++ {
		row := types.Row{types.NewInt(int64(k))}
		if types.Bucket(row.HashKey(), nseg) == want {
			return k
		}
	}
	panic("no key found")
}

// step runs a statement on a session in a goroutine, reporting completion.
type step struct {
	err  error
	done chan struct{}
}

func goExec(s *Session, q string) *step {
	st := &step{done: make(chan struct{})}
	go func() {
		defer close(st.done)
		_, st.err = s.Exec(context.Background(), q)
	}()
	return st
}

func (st *step) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case <-st.done:
		return st.err
	case <-time.After(d):
		t.Fatal("statement did not finish in time")
		return nil
	}
}

func (st *step) blocked(t *testing.T, d time.Duration) bool {
	select {
	case <-st.done:
		return false
	case <-time.After(d):
		return true
	}
}

// TestLiveGlobalDeadlockCase1 drives the paper's Figure 6 scenario through
// real SQL on a 2-segment cluster with GDD enabled: two transactions update
// rows on opposite segments in opposite orders; the daemon must kill the
// younger transaction and let the older one finish.
func TestLiveGlobalDeadlockCase1(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	k0 := keyOnSegment(2, 0)
	k1 := keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))

	sa, _ := e.NewSession("")
	sb, _ := e.NewSession("")
	mustExec(t, sa, "BEGIN")
	mustExec(t, sb, "BEGIN")

	// (1) A updates the row on segment 0.
	mustExec(t, sa, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))
	// (2) B updates the row on segment 1.
	mustExec(t, sb, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d", k1))
	// (3) B updates A's row: blocks on segment 0.
	stB := goExec(sb, fmt.Sprintf("UPDATE t1 SET c2 = 21 WHERE c1 = %d", k0))
	if !stB.blocked(t, 50*time.Millisecond) {
		t.Fatal("B should be blocked by A")
	}
	// (4) A updates B's row: blocks on segment 1 → global deadlock.
	stA := goExec(sa, fmt.Sprintf("UPDATE t1 SET c2 = 11 WHERE c1 = %d", k1))

	// GDD must break it: B is younger (began later), so B dies.
	errB := stB.wait(t, 5*time.Second)
	errA := stA.wait(t, 5*time.Second)
	if errB == nil {
		t.Fatalf("B should have been killed as the deadlock victim (A err: %v)", errA)
	}
	if !errors.Is(errB, lockmgr.ErrDeadlockVictim) {
		t.Fatalf("B error = %v, want deadlock victim", errB)
	}
	if errA != nil {
		t.Fatalf("A should proceed after victim kill, got: %v", errA)
	}
	mustExec(t, sa, "COMMIT")

	// B's transaction was aborted; its session must report that until
	// rollback, and its first update must not have applied.
	if _, err := sb.Exec(context.Background(), "SELECT 1"); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("B's txn should be aborted, got: %v", err)
	}
	mustExec(t, sb, "ROLLBACK")
	res := mustExec(t, admin, fmt.Sprintf("SELECT c2 FROM t1 WHERE c1 = %d", k1))
	if res.Rows[0][0].Int() != 11 {
		t.Fatalf("k1 row = %v, want A's value 11", res.Rows)
	}

	deadlocks, victims := metric(e.Metrics(), "gdd.deadlocks"), metric(e.Metrics(), "txn.deadlock_victims")
	if deadlocks < 1 || victims < 1 {
		t.Fatalf("daemon stats: deadlocks=%d victims=%d", deadlocks, victims)
	}
}

// TestLiveDeadlockThroughForUpdate crosses a row-locking read with updates:
// A locks the segment-0 row FOR UPDATE, B updates the segment-1 row, B's
// update of A's row queues behind A's tuple lock, A's update of B's row
// waits on B's transaction. A keeps a FOR UPDATE lock to its end, so B's wait
// is a solid edge and the cycle is a deadlock the daemon must break — for the
// index-scan and the seq-scan form of the locking read.
func TestLiveDeadlockThroughForUpdate(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		e, admin := newTestEngine(t, 2)
		k0 := keyOnSegment(2, 0)
		k1 := keyOnSegment(2, 1)
		mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
		if indexed {
			mustExec(t, admin, "CREATE INDEX t1_c1 ON t1 (c1)")
		}
		mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))
		forUpdate := fmt.Sprintf("SELECT c2 FROM t1 WHERE c1 = %d FOR UPDATE", k0)
		if got := strings.Contains(explainText(t, admin, forUpdate), "Index Scan"); got != indexed {
			t.Fatalf("indexed=%v but the locking read's plan is:\n%s", indexed, explainText(t, admin, forUpdate))
		}

		sa, _ := e.NewSession("")
		sb, _ := e.NewSession("")
		mustExec(t, sa, "BEGIN")
		mustExec(t, sb, "BEGIN")
		mustExec(t, sa, forUpdate)
		mustExec(t, sb, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d", k1))
		stB := goExec(sb, fmt.Sprintf("UPDATE t1 SET c2 = 21 WHERE c1 = %d", k0))
		if !stB.blocked(t, 50*time.Millisecond) {
			t.Fatal("B should be blocked by A's row lock")
		}
		stA := goExec(sa, fmt.Sprintf("UPDATE t1 SET c2 = 11 WHERE c1 = %d", k1))

		// B is younger, so B dies, within a second at a 5 ms detector period.
		errB := stB.wait(t, time.Second)
		errA := stA.wait(t, time.Second)
		if !errors.Is(errB, lockmgr.ErrDeadlockVictim) || errA != nil {
			t.Fatalf("indexed=%v: want B the deadlock victim and A through; A err=%v B err=%v", indexed, errA, errB)
		}
		mustExec(t, sa, "COMMIT")
		mustExec(t, sb, "ROLLBACK")
		if deadlocks, victims := metric(e.Metrics(), "gdd.deadlocks"), metric(e.Metrics(), "txn.deadlock_victims"); deadlocks != 1 || victims != 1 {
			t.Fatalf("indexed=%v: daemon stats: deadlocks=%d victims=%d, want one of each", indexed, deadlocks, victims)
		}
		res := mustExec(t, admin, "SELECT c2 FROM t1 ORDER BY c2")
		if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 11 {
			t.Fatalf("indexed=%v: rows after A committed alone: %v", indexed, res.Rows)
		}
	}
}

// TestLiveNonDeadlockFigure8 drives the paper's Figure 8: B updates rows on
// both segments in one statement while A and C hold one each; this wait
// pattern contains a cycle-looking shape with a dotted edge but is NOT a
// deadlock, and must resolve by itself once C commits.
func TestLiveNonDeadlockFigure8(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	k0 := keyOnSegment(2, 0) // paper's c1=3 on seg0
	k1 := keyOnSegment(2, 1) // paper's c1=1 on seg1
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 3), (%d, 1)", k0, k1))

	sa, _ := e.NewSession("")
	sb, _ := e.NewSession("")
	sc, _ := e.NewSession("")
	mustExec(t, sa, "BEGIN")
	mustExec(t, sb, "BEGIN")
	mustExec(t, sc, "BEGIN")

	// (1) A locks k0 on segment 0.
	mustExec(t, sa, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))
	// (2) C locks k1 on segment 1.
	mustExec(t, sc, fmt.Sprintf("UPDATE t1 SET c2 = 30 WHERE c1 = %d", k1))
	// (3) B updates both rows: blocked by A on seg0 and C on seg1.
	stB := goExec(sb, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d OR c1 = %d", k0, k1))
	if !stB.blocked(t, 50*time.Millisecond) {
		t.Fatal("B should be blocked")
	}
	// (4) A updates k1: waits behind B's tuple lock / C's transaction lock.
	stA := goExec(sa, fmt.Sprintf("UPDATE t1 SET c2 = 11 WHERE c1 = %d", k1))
	if !stA.blocked(t, 100*time.Millisecond) {
		t.Fatal("A should be blocked")
	}

	// Give the daemon several periods: it must NOT kill anyone while the
	// graph matches Figure 8 — the dotted edge A→B is removable because B
	// is only blocked on the *other* segment, so C can still commit and
	// unblock everything (this is exactly what the paper's Figure 9
	// reduction proves).
	time.Sleep(150 * time.Millisecond)
	if v := metric(e.Metrics(), "txn.deadlock_victims"); v != 0 {
		t.Fatalf("GDD killed %d transactions in a non-deadlock scenario", v)
	}

	// Unwind: C commits. B then stamps the row C released — at which point
	// A's wait hardens into a solid edge on B's transaction lock while B
	// still waits for A on segment 0. That IS a genuine A↔B deadlock (the
	// paper's figure only claims the pre-commit state is safe), so GDD must
	// now kill the younger of the two (B) and let A finish.
	mustExec(t, sc, "COMMIT")
	errB := stB.wait(t, 5*time.Second)
	errA := stA.wait(t, 5*time.Second)
	if errB == nil && errA == nil {
		// Also acceptable: B finished before A's wait hardened.
		mustExec(t, sb, "COMMIT")
		mustExec(t, sa, "COMMIT")
		return
	}
	if errB == nil || errA != nil {
		t.Fatalf("expected B to be the victim of the post-commit deadlock; A err=%v B err=%v", errA, errB)
	}
	if !errors.Is(errB, lockmgr.ErrDeadlockVictim) {
		t.Fatalf("B error = %v, want deadlock victim", errB)
	}
	mustExec(t, sb, "ROLLBACK")
	mustExec(t, sa, "COMMIT")
}

// TestLiveLockTableDeadlockFigure7 drives the paper's Figure 7 flavour:
// a LOCK TABLE statement enters the cycle through the coordinator.
func TestLiveLockTableDeadlockFigure7(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	k0 := keyOnSegment(2, 0)
	k1 := keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, "CREATE TABLE t2 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))

	sa, _ := e.NewSession("")
	sc, _ := e.NewSession("")
	mustExec(t, sa, "BEGIN")
	mustExec(t, sc, "BEGIN")

	// A locks the t1 row on seg0.
	mustExec(t, sa, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))
	// C takes LOCK TABLE t2 everywhere.
	mustExec(t, sc, "LOCK t2")
	// C then tries to update A's row: blocks.
	stC := goExec(sc, fmt.Sprintf("UPDATE t1 SET c2 = 30 WHERE c1 = %d", k0))
	if !stC.blocked(t, 50*time.Millisecond) {
		t.Fatal("C should be blocked by A")
	}
	// A tries LOCK TABLE t2: blocks on C → cycle A→C→A.
	stA := goExec(sa, "LOCK t2")

	errA := stA.wait(t, 5*time.Second)
	errC := stC.wait(t, 5*time.Second)
	// One of the two must die (the younger: C began after A).
	if errA == nil && errC == nil {
		t.Fatal("deadlock not broken")
	}
	dead := errC
	if errC == nil {
		dead = errA
	}
	if !errors.Is(dead, lockmgr.ErrDeadlockVictim) {
		t.Fatalf("victim error = %v", dead)
	}
}

// TestGPDB5SerializesUpdates pins the baseline behaviour: without GDD,
// UPDATEs on the same table take Exclusive coordinator locks and cannot
// run concurrently, even on different rows (paper §4.2).
func TestGPDB5SerializesUpdates(t *testing.T) {
	cfg := cluster.GPDB5(2)
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	admin, _ := e.NewSession("")
	k0 := keyOnSegment(2, 0)
	k1 := keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))

	s1, _ := e.NewSession("")
	s2, _ := e.NewSession("")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))

	// Different row, same table: must block in GPDB5 mode.
	st := goExec(s2, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d", k1))
	if !st.blocked(t, 100*time.Millisecond) {
		t.Fatal("GPDB5 must serialize updates on the same table")
	}
	mustExec(t, s1, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatalf("second update: %v", err)
	}
}

// TestGPDB6ConcurrentUpdatesDifferentRows pins the headline improvement:
// with GDD, updates to different rows of the same table proceed in
// parallel.
func TestGPDB6ConcurrentUpdatesDifferentRows(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	k0 := keyOnSegment(2, 0)
	k1 := keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))

	s1, _ := e.NewSession("")
	s2, _ := e.NewSession("")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))

	// Different row: must NOT block with GDD enabled.
	st := goExec(s2, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d", k1))
	if err := st.wait(t, 2*time.Second); err != nil {
		t.Fatalf("concurrent update: %v", err)
	}
	mustExec(t, s1, "COMMIT")

	res := mustExec(t, admin, "SELECT c2 FROM t1 ORDER BY c2")
	got := []string{res.Rows[0][0].String(), res.Rows[1][0].String()}
	if strings.Join(got, ",") != "10,20" {
		t.Fatalf("rows after both updates: %v", got)
	}
}
