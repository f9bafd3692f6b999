package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// obsChaosWorkload drives concurrent TPC-B transactions with query tracing
// on, runs disrupt mid-flight, and returns how many transactions committed.
func obsChaosWorkload(t *testing.T, e *core.Engine, w *workload.TPCB, clients, perClient int, disrupt func()) int64 {
	t.Helper()
	ctx := context.Background()
	var committed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := e.NewSession("")
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			if _, err := s.Exec(ctx, "SET trace_queries on"); err != nil {
				t.Error(err)
				return
			}
			r := workload.NewRand(uint64(2000 + c))
			<-start
			for i := 0; i < perClient; i++ {
				delta, aid := r.Range(-500, 500), r.Range(1, w.Accounts())
				if err := w.Transfer(ctx, SessionConn{S: s}, aid, r.Range(1, w.Branches*10), r.Range(1, w.Branches), delta); err == nil {
					committed.Add(1)
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	disrupt()
	wg.Wait()
	return committed.Load()
}

// checkObsConsistency asserts the observability invariants the chaos runs
// must preserve: the statement counter agrees exactly with the number of
// query records (no drops, no double counts), the error counter with the
// records' error flags, every retained trace is leak-free, and no
// unregistered session lingers in gp_stat_activity.
func checkObsConsistency(t *testing.T, e *core.Engine) {
	t.Helper()
	act := e.Activity()
	stmts, _ := e.Metrics().Value("query.statements")
	if rec := act.Recorded(); stmts != rec {
		t.Fatalf("query.statements=%d but %d query records recorded (lost or double-counted)", stmts, rec)
	}
	qErrs, _ := e.Metrics().Value("query.errors")
	errRecs := int64(0)
	for _, r := range act.History(0) {
		if r.Err != "" {
			errRecs++
		}
	}
	// The history ring is bounded, so it can undercount errors — never over.
	if errRecs > qErrs {
		t.Fatalf("history holds %d error records but query.errors=%d", errRecs, qErrs)
	}
	for _, tr := range act.Traces().Recent(0) {
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("trace q%d leaked %d open spans", tr.QueryID, n)
		}
	}
	// Worker sessions all closed; only the admin session remains registered.
	if got := len(act.Sessions()); got != 1 {
		t.Fatalf("%d sessions still registered after chaos, want 1 (admin)", got)
	}
}

// TestObsChaosFailover kills a primary mid-workload with tracing enabled on
// every worker: spans and counters must stay exactly consistent — failed
// statements still close their spans and record exactly one query record.
func TestObsChaosFailover(t *testing.T) {
	cfg := chaosConfig(3)
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 40}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}

	committed := obsChaosWorkload(t, e, w, 6, 25, func() {
		if err := e.Cluster().KillSegment(1); err != nil {
			t.Error(err)
		}
	})
	awaitFailovers(t, e, 1)
	if committed == 0 {
		t.Fatal("no transaction committed during failover chaos")
	}
	checkObsConsistency(t, e)
	if traces := e.Activity().Traces().Len(); traces == 0 {
		t.Fatal("no traces retained from traced workload")
	}
}

// TestObsChaosExpand grows the cluster mid-TPC-B with tracing enabled: the
// rebalance must not drop, duplicate, or leak any observability state, and
// the segment-count gauge must reflect the new topology.
func TestObsChaosExpand(t *testing.T) {
	cfg := chaosConfig(2)
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 40}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}

	committed := obsChaosWorkload(t, e, w, 6, 25, func() {
		if _, err := e.Cluster().AddSegments(1); err != nil {
			t.Error(err)
		}
	})
	if err := e.Cluster().WaitExpand(ctx); err != nil {
		t.Fatalf("expansion failed: %v", err)
	}
	if committed == 0 {
		t.Fatal("no transaction committed during expansion chaos")
	}
	checkObsConsistency(t, e)
	if segs, _ := e.Metrics().Value("cluster.segments"); segs != 3 {
		t.Fatalf("cluster.segments gauge = %d after expansion, want 3", segs)
	}
	// The expanded cluster still serves traced queries with clean spans.
	if _, err := admin.Exec(ctx, "SET trace_queries on"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(ctx, "SELECT count(*) FROM pgbench_accounts"); err != nil {
		t.Fatal(err)
	}
	trs := e.Activity().Traces().Recent(1)
	if len(trs) != 1 || trs[0].OpenSpans() != 0 {
		t.Fatalf("post-expand trace bad: %v", trs)
	}
}
