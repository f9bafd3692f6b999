package bench

import (
	"context"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// fsyncSleep makes every log flush of e's cluster take 1ms.
func fsyncSleep(t *testing.T, e *core.Engine) {
	t.Helper()
	spec := fault.Spec{Point: fault.WALFlush, Seg: fault.AllSegments, Action: fault.ActSleep, Sleep: time.Millisecond}
	if err := e.Cluster().InjectFault(spec); err != nil {
		t.Fatal(err)
	}
}

// TestSingleVisibleVersionInvariant is the regression test for the
// distributed-commit ordering bug: under heavy concurrent updates of a hot
// row, every snapshot must see exactly one version of each logical row.
//
// The failure mode it guards against: transaction B builds on a version
// whose stamper A has committed locally but whose distributed commit has
// not acknowledged; if B then completes fully before A's acknowledgement, a
// snapshot in the window orders B before A and sees two versions (paper
// §5.2's "appears in-progress until Commit Ok" applied to writers).
func TestSingleVisibleVersionInvariant(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.GDDPeriod = 5 * time.Millisecond
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 50}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}
	fsyncSleep(t, e) // widen the commit window

	stop := make(chan struct{})
	anomalies := make(chan string, 8)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := admin.Exec(ctx,
				"SELECT bid, count(*) FROM pgbench_branches GROUP BY bid HAVING count(*) > 1")
			if err == nil && len(res.Rows) > 0 {
				select {
				case anomalies <- res.Rows[0].String():
				default:
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	sessions := make([]SessionConn, 8)
	for i := range sessions {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = SessionConn{S: s}
	}
	RunConcurrent(8, 500*time.Millisecond, func(ctx context.Context, id int) error {
		r := workload.NewRand(uint64(id + 1))
		return w.Transaction(ctx, sessions[id], r)
	})
	close(stop)
	select {
	case a := <-anomalies:
		t.Fatalf("snapshot saw duplicate visible versions: %s", a)
	default:
	}
}

// TestNoSpuriousDeadlocksUnderOrderedWorkload: TPC-B acquires rows in a
// fixed table order, so genuine deadlocks are impossible; any GDD victim
// would be a detector false positive (or a write-ordering bug).
func TestNoSpuriousDeadlocksUnderOrderedWorkload(t *testing.T) {
	cfg := cluster.GPDB6(1)
	cfg.GDDPeriod = 5 * time.Millisecond
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 4, AccountsPerBranch: 100}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}
	fsyncSleep(t, e)
	sessions := make([]SessionConn, 16)
	for i := range sessions {
		s, _ := e.NewSession("")
		sessions[i] = SessionConn{S: s}
	}
	res := RunConcurrent(16, 500*time.Millisecond, func(ctx context.Context, id int) error {
		r := workload.NewRand(uint64(id + 1))
		return w.Transaction(ctx, sessions[id], r)
	})
	if v := metric(e.Metrics(), "txn.deadlock_victims"); v != 0 {
		t.Fatalf("GDD killed %d transactions in a deadlock-free workload (errors=%d)", v, res.Errors)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %d", res.Errors)
	}
}
