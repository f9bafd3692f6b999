package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{
		Duration: 60 * time.Millisecond,
		Clients:  []int{1, 2},
		Segments: 2,
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1Conflicts()
	for _, frag := range []string{
		"AccessShareLock", "AccessExclusiveLock",
		"1,2,3,4,5,6,7,8", // the AccessExclusive row conflicts with all
		"Pure select", "Alter table",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 output missing %q", frag)
		}
	}
}

// TestCommitCostsInCounts is Fig. 10's claim in counts: committing a
// single-segment insert with one-phase commit costs one fsync and writes no
// PREPARE record; with two-phase commit it costs three fsyncs (PREPARE and
// COMMIT on the segment, the commit record on the coordinator), one PREPARE
// record and two messages.
func TestCommitCostsInCounts(t *testing.T) {
	for _, tc := range []struct {
		onePhase                   bool
		fsyncs, prepares, messages float64
	}{{true, 1, 0, 1}, {false, 3, 1, 2}} {
		c, err := commitCosts(tinyOpts(), tc.onePhase)
		if err != nil {
			t.Fatal(err)
		}
		if c.fsyncs != tc.fsyncs || c.prepares != tc.prepares || c.messages != tc.messages {
			t.Errorf("one-phase=%v: per transaction %.2f fsyncs, %.2f prepares, %.2f messages; want %v, %v, %v",
				tc.onePhase, c.fsyncs, c.prepares, c.messages, tc.fsyncs, tc.prepares, tc.messages)
		}
	}
}

// TestLockWaitsByLockingRegime is the claim of Figs. 2 and 14 in counts:
// four updaters of disjoint rows wait for each other under GPDB 5's
// Exclusive table lock, and never under GPDB 6's row locks.
func TestLockWaitsByLockingRegime(t *testing.T) {
	if waits := disjointUpdaterWaits(t, gpdb5(2)); waits == 0 {
		t.Error("GPDB 5: disjoint updaters recorded no lock waits")
	}
	if waits := disjointUpdaterWaits(t, gpdb6(2)); waits != 0 {
		t.Errorf("GPDB 6: disjoint updaters recorded %d lock waits", waits)
	}
}

// disjointUpdaterWaits runs four concurrent updaters, each on rows no other
// touches, under the experiments' cost model and returns the lock waits
// they recorded.
func disjointUpdaterWaits(t *testing.T, cfg *cluster.Config) int64 {
	const updaters, updates = 4, 10
	w := &workload.UpdateOnly{Rows: updaters * updates}
	e, err := engine(cfg, w.Schema(), w.Load, timing)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, waits0 := e.Cluster().LockWaitStats()
	ctx := context.Background()
	errs := make(chan error, updaters)
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(u int, conn bench.SessionConn) {
			defer wg.Done()
			for k := 0; k < updates; k++ {
				id := types.NewInt(int64(1 + u + updaters*k))
				if _, _, err := conn.Exec(ctx, "UPDATE upd_bench SET val = val + 1 WHERE id = $1", id); err != nil {
					errs <- err
					return
				}
			}
		}(u, bench.SessionConn{S: s})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, waits := e.Cluster().LockWaitStats()
	return waits - waits0
}

// TestTPCBMessagesInCounts is Fig. 12's claim in counts. GPDB 5 sends each
// of a TPC-B transaction's five statements and both commit waves to the
// whole gang, 7 messages per segment, and commits in two phases. GPDB 6
// sends each statement to the one segment its key pins and each commit wave
// to the segments the transaction wrote: at most 5 + 2 × segments written,
// in one phase where that is one segment.
func TestTPCBMessagesInCounts(t *testing.T) {
	const nseg, txns = 4, 20
	w := &workload.TPCB{Branches: 4, AccountsPerBranch: 25}
	for gpdb, cfg := range map[int]*cluster.Config{5: gpdb5(nseg), 6: gpdb6(nseg)} {
		var bound, oneSeg int64
		r := workload.NewRand(1)
		msgs, onePC, twoPC := commitMessages(t, cfg, w.Schema(), w.Load, txns, func(e *core.Engine, c workload.Conn) error {
			aid, tid, bid := r.Range(1, w.Accounts()), r.Range(1, w.Branches*10), r.Range(1, w.Branches)
			// The history row lands with its account (both by aid).
			written := map[int]bool{}
			for table, key := range map[string]int{"pgbench_accounts": aid, "pgbench_tellers": tid, "pgbench_branches": bid} {
				tab, err := e.Cluster().Catalog().Table(table)
				if err != nil {
					return err
				}
				written[plan.RouteRow(tab, types.Row{types.NewInt(int64(key))}, nseg)] = true
			}
			bound += 5 + 2*int64(len(written))
			if len(written) == 1 {
				oneSeg++
			}
			return w.Transfer(context.Background(), c, aid, tid, bid, 1)
		})
		if gpdb == 5 {
			if msgs != 7*nseg*txns || onePC != 0 || twoPC != txns {
				t.Errorf("GPDB 5: %d messages, %d one-phase and %d two-phase commits for %d transactions; want %d, 0, %d",
					msgs, onePC, twoPC, txns, 7*nseg*txns, txns)
			}
			continue
		}
		// One direct-dispatchable read in fifty runs on the whole gang
		// (cluster.gangSampleEvery): at most one of these txns reads.
		if msgs > bound+nseg-1 || onePC != oneSeg || twoPC != txns-oneSeg {
			t.Errorf("GPDB 6: %d messages (bound %d), %d one-phase and %d two-phase commits; want %d one-phase",
				msgs, bound+nseg-1, onePC, twoPC, oneSeg)
		}
	}
}

// TestInsertMessagesInCounts is Fig. 15's claim in counts: a one-row insert
// costs GPDB 5 the statement and two commit waves to the whole gang, 3
// messages per segment, and GPDB 6 two messages, the statement and a
// one-phase commit to the one segment the row lands on.
func TestInsertMessagesInCounts(t *testing.T) {
	const nseg, inserts = 4, 10
	for _, tc := range []struct {
		gpdb               int
		cfg                *cluster.Config
		msgs, onePC, twoPC int64
	}{{5, gpdb5(nseg), 3 * nseg, 0, 1}, {6, gpdb6(nseg), 2, 1, 0}} {
		w, r := &workload.InsertOnly{}, workload.NewRand(1)
		msgs, onePC, twoPC := commitMessages(t, tc.cfg, w.Schema(), nil, inserts, func(_ *core.Engine, c workload.Conn) error {
			return w.Transaction(context.Background(), c, r)
		})
		if msgs != tc.msgs*inserts || onePC != tc.onePC*inserts || twoPC != tc.twoPC*inserts {
			t.Errorf("GPDB %d: per insert %.1f messages, %.1f one-phase and %.1f two-phase commits; want %d, %d, %d",
				tc.gpdb, float64(msgs)/inserts, float64(onePC)/inserts, float64(twoPC)/inserts, tc.msgs, tc.onePC, tc.twoPC)
		}
	}
}

// commitMessages runs txn n times, one after another, on a cluster of cfg
// loaded with schema and load under the cost model, and returns what the
// transactions sent and how they committed: the hits of the cost model's
// dispatch_send spec, one per coordinator→segment message, and the
// txn.commits_1pc and txn.commits_2pc counts.
func commitMessages(t *testing.T, cfg *cluster.Config, schema string, load func(context.Context, workload.Conn) error, n int, txn func(e *core.Engine, c workload.Conn) error) (msgs, onePC, twoPC int64) {
	t.Helper()
	e, err := engine(cfg, schema, load, timing)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	sent := func() int64 {
		for _, ps := range e.Cluster().FaultStatus() {
			if ps.Point == fault.DispatchSend {
				return ps.Hits
			}
		}
		return 0
	}
	msgs0, reg0 := sent(), e.Metrics().Snapshot()
	for i := 0; i < n; i++ {
		if err := txn(e, bench.SessionConn{S: s}); err != nil {
			t.Fatal(err)
		}
	}
	d := e.Metrics().Snapshot().Delta(reg0)
	return sent() - msgs0, d["txn.commits_1pc"], d["txn.commits_2pc"]
}

func TestFig15InsertOnlySmoke(t *testing.T) {
	tbl, err := Fig15InsertOnly(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "GPDB 6") {
		t.Fatalf("fig15 output:\n%s", tbl.String())
	}
}
