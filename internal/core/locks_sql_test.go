package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/lockmgr"
)

// waitsOn reports whether the lock table's wait-for graph has an edge from
// waiter to holder.
func waitsOn(m *lockmgr.Manager, waiter, holder lockmgr.TxnID) bool {
	for _, e := range m.WaitGraph() {
		if e.Waiter == waiter && e.Holder == holder {
			return true
		}
	}
	return false
}

// waitForEdge polls the lock table until some transaction waits on holder,
// and returns the waiter.
func waitForEdge(t *testing.T, m *lockmgr.Manager, holder lockmgr.TxnID) lockmgr.TxnID {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, e := range m.WaitGraph() {
			if e.Holder == holder {
				return e.Waiter
			}
		}
	}
	t.Fatalf("nobody queued behind txn %d", holder)
	return 0
}

// TestCreateIndexWaitsForFastPathWriter: a writer's RowExclusive relation
// locks sit on its fast paths, where no lock table sees them, until a
// strong request moves them in. CREATE INDEX (Share) must still wait for an
// open transaction that inserted into the table — at the coordinator, and
// on a segment where only the writer's segment lock is held — and build the
// index once the writer ends.
func TestCreateIndexWaitsForFastPathWriter(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	cl := e.Cluster()
	k0 := keyOnSegment(2, 0)
	mustExec(t, admin, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	writer, _ := e.NewSession("")
	mustExec(t, writer, "BEGIN")
	mustExec(t, writer, fmt.Sprintf("INSERT INTO t VALUES (%d, 1)", k0))

	st := goExec(admin, "CREATE INDEX t_c1 ON t (c1)")
	if !st.blocked(t, 50*time.Millisecond) {
		t.Fatal("CREATE INDEX ran past an open inserter")
	}
	if holder := writer.txn.Owner(); waitForEdge(t, cl.CoordinatorLocks(), holder) == 0 {
		t.Fatal("no wait edge")
	}
	mustExec(t, writer, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// On a segment: the writer's lock there is its only one.
	tab, err := cl.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	blocker := cl.BeginTxn(nil)
	seg := cl.Segments()[0]
	if err := seg.LockRelation(context.Background(), blocker, tab, lockmgr.RowExclusive); err != nil {
		t.Fatal(err)
	}
	st = goExec(admin, "CREATE INDEX t_c2 ON t (c2)")
	waiter := waitForEdge(t, seg.Locks(), blocker.Owner())
	if !waitsOn(seg.Locks(), waiter, blocker.Owner()) || !st.blocked(t, 20*time.Millisecond) {
		t.Fatal("CREATE INDEX ran past a segment's open writer")
	}
	cl.AbortTxn(blocker)
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, admin, fmt.Sprintf("EXPLAIN SELECT c2 FROM t WHERE c1 = %d", k0))
	if plan := fmt.Sprint(res.Rows); !strings.Contains(plan, "Index Scan") {
		t.Fatalf("index not used after the build:\n%s", plan)
	}
}

// TestLockTableWaitsForFastPathReader: LOCK TABLE … IN ACCESS EXCLUSIVE
// MODE waits for an open transaction that only read the table (its
// AccessShare locks on the fast path), and is granted once the reader
// commits.
func TestLockTableWaitsForFastPathReader(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	mustExec(t, admin, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, "INSERT INTO t VALUES (1, 1), (2, 2)")
	reader, _ := e.NewSession("")
	mustExec(t, reader, "BEGIN")
	mustExec(t, reader, "SELECT count(*) FROM t")

	locker, _ := e.NewSession("")
	mustExec(t, locker, "BEGIN")
	st := goExec(locker, "LOCK TABLE t IN ACCESS EXCLUSIVE MODE")
	if !st.blocked(t, 50*time.Millisecond) {
		t.Fatal("LOCK TABLE ran past an open reader")
	}
	waitForEdge(t, e.Cluster().CoordinatorLocks(), reader.txn.Owner())
	mustExec(t, reader, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The reader's next statement now waits for the lock holder.
	st = goExec(reader, "SELECT count(*) FROM t")
	if !st.blocked(t, 50*time.Millisecond) {
		t.Fatal("a read ran past ACCESS EXCLUSIVE")
	}
	mustExec(t, locker, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestGPDB5UpdateWaitsForFastPathWriter: under GPDB 5 locking an UPDATE
// takes Exclusive on the table, so it waits for an open transaction that
// holds RowExclusive there — an INSERT's lock, on the fast path until the
// UPDATE's request moves it in — and two UPDATE transactions serialize.
func TestGPDB5UpdateWaitsForFastPathWriter(t *testing.T) {
	e := NewEngine(cluster.GPDB5(2))
	t.Cleanup(e.Close)
	admin, _ := e.NewSession("")
	k0, k1 := keyOnSegment(2, 0), keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE t1 (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 1), (%d, 2)", k0, k1))
	s1, _ := e.NewSession("")
	s2, _ := e.NewSession("")

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, fmt.Sprintf("INSERT INTO t1 VALUES (%d, 3)", k0))
	st := goExec(s2, fmt.Sprintf("UPDATE t1 SET c2 = 20 WHERE c1 = %d", k1))
	if !st.blocked(t, 50*time.Millisecond) {
		t.Fatal("a GPDB 5 UPDATE ran past an open inserter")
	}
	mustExec(t, s1, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, fmt.Sprintf("UPDATE t1 SET c2 = 10 WHERE c1 = %d", k0))
	st = goExec(s2, fmt.Sprintf("UPDATE t1 SET c2 = 30 WHERE c1 = %d", k1))
	if !st.blocked(t, 50*time.Millisecond) {
		t.Fatal("GPDB 5 UPDATE transactions on one table ran together")
	}
	mustExec(t, s1, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, admin, "SELECT sum(c2) FROM t1")
	if got := res.Rows[0][0].String(); got != "50" {
		t.Fatalf("sum(c2) = %s, want 50", got)
	}
}

// TestImplicitLockConversionUnderContention: 8 sessions update the same 4
// rows for 200 rounds each — autocommit or in a block that commits or
// rolls back — so writers keep meeting each other's uncommitted versions
// and converting the writer's implicit transaction lock while it commits
// or aborts. A third of the segments' lock requests pause first, which
// holds a waiter between finding the writer open and entering its lock
// while the writer commits. Every wait must end (a conversion that entered
// a finished writer's lock would never be released), and the rows must sum
// to the committed deltas.
func TestImplicitLockConversionUnderContention(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	mustExec(t, admin, "CREATE TABLE hot (k int, v int) DISTRIBUTED BY (k)")
	mustExec(t, admin, "INSERT INTO hot VALUES (1, 0), (2, 0), (3, 0), (4, 0)")
	for seg := 0; seg < 2; seg++ {
		spec := fault.Spec{Point: fault.LockAcquire, Seg: seg, Action: fault.ActSleep, Sleep: 200 * time.Microsecond, Probability: 33, Seed: 1}
		if err := e.Cluster().Faults().Arm(spec); err != nil {
			t.Fatal(err)
		}
	}
	const sessions, rounds = 8, 200
	var wg sync.WaitGroup
	committed := make([]int64, sessions)
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			defer s.Close()
			rng := rand.New(rand.NewSource(int64(g)))
			exec := func(q string) error {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				_, err := s.Exec(ctx, q)
				return err
			}
			for i := 0; i < rounds; i++ {
				d := int64(1 + rng.Intn(9))
				upd := fmt.Sprintf("UPDATE hot SET v = v + %d WHERE k = %d", d, 1+rng.Intn(4))
				var err error
				switch mode := rng.Intn(3); mode {
				case 0:
					if err = exec(upd); err == nil {
						committed[g] += d
					}
				default:
					if err = exec("BEGIN"); err == nil {
						err = exec(upd)
					}
					if err == nil && mode == 1 {
						if err = exec("COMMIT"); err == nil {
							committed[g] += d
						}
					} else if err == nil {
						err = exec("ROLLBACK")
					}
				}
				if err != nil {
					errs <- fmt.Errorf("session %d round %d: %w", g, i, err)
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var want int64
	for _, d := range committed {
		want += d
	}
	res := mustExec(t, admin, "SELECT sum(v) FROM hot")
	if got := res.Rows[0][0].String(); got != fmt.Sprint(want) {
		t.Fatalf("sum(v) = %s, want the committed deltas' %d", got, want)
	}
	cl := e.Cluster()
	if _, waits := cl.LockWaitStats(); waits == 0 {
		t.Fatal("no writer ever waited: the test converted no implicit lock")
	} else {
		t.Logf("%d lock waits", waits)
	}
	for _, m := range append([]*lockmgr.Manager{cl.CoordinatorLocks()}, cl.Segments()[0].Locks(), cl.Segments()[1].Locks()) {
		if d := m.Dump(); len(d) != 0 {
			t.Fatalf("locks left behind: %q", d)
		}
	}
}
