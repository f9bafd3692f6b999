package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/workload"
)

func newEngine(t *testing.T, cfg *cluster.Config) (*core.Engine, *core.Session) {
	t.Helper()
	e := core.NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	return e, s
}

func exec(t *testing.T, s *core.Session, q string, args ...types.Datum) *core.Result {
	t.Helper()
	res, err := s.Exec(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

// metric reads one registry series by its dotted name (0 when absent).
func metric(r *obs.Registry, name string) int64 {
	v, _ := r.Value(name)
	return v
}

// TestTPCBConsistencyUnderConcurrency runs concurrent single-row update
// transactions and checks the money-conservation invariant: the sum of
// account balances equals the sum of committed deltas.
func TestTPCBConsistencyUnderConcurrency(t *testing.T) {
	cfg := cluster.GPDB6(4)
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

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	var committed, deltaSum atomic.Int64
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
			r := workload.NewRand(uint64(c + 1))
			for i := 0; i < perClient; i++ {
				aid := r.Range(1, w.Accounts())
				delta := int64(r.Range(-500, 500))
				if _, err := s.Exec(ctx, "BEGIN"); err != nil {
					t.Error(err)
					return
				}
				_, err := s.Exec(ctx,
					"UPDATE pgbench_accounts SET abalance = abalance + $1 WHERE aid = $2",
					types.NewInt(delta), types.NewInt(int64(aid)))
				if err != nil {
					_, _ = s.Exec(ctx, "ROLLBACK")
					continue // deadlock victims are acceptable
				}
				if _, err := s.Exec(ctx, "COMMIT"); err != nil {
					continue
				}
				committed.Add(1)
				deltaSum.Add(delta)
			}
		}()
	}
	wg.Wait()

	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != deltaSum.Load() {
		t.Fatalf("balance sum = %d, committed deltas = %d (committed %d)",
			total, deltaSum.Load(), committed.Load())
	}
	if committed.Load() == 0 {
		t.Fatal("nothing committed")
	}
}

// TestTPCBFullTransactionMix drives the packaged TPC-B transaction under the
// harness and cross-checks history rows against committed transactions.
func TestTPCBFullTransactionMix(t *testing.T) {
	cfg := cluster.GPDB6(4)
	cfg.GDDPeriod = 5 * time.Millisecond
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 20}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}
	var ok64 atomic.Int64
	res := RunConcurrent(4, 300*time.Millisecond, func(ctx context.Context, id int) error {
		s, err := e.NewSession("")
		if err != nil {
			return err
		}
		r := workload.NewRand(uint64(id + 99))
		err = w.Transaction(ctx, SessionConn{S: s}, r)
		if err == nil {
			ok64.Add(1)
		}
		return err
	})
	if res.Ops == 0 {
		t.Fatal("no transactions completed")
	}
	if res.AvgLatency <= 0 || res.P95 < res.P50 {
		t.Fatalf("latency stats look wrong: %+v", res)
	}
	cnt := exec(t, admin, "SELECT count(*) FROM pgbench_history")
	if cnt.Rows[0][0].Int() != ok64.Load() {
		t.Fatalf("history rows = %d, committed = %d", cnt.Rows[0][0].Int(), ok64.Load())
	}
}

// TestOnePhaseCommitCounters verifies single-segment writes take 1PC and
// scattered writes take 2PC.
func TestOnePhaseCommitCounters(t *testing.T) {
	e, s := newEngine(t, cluster.GPDB6(4))
	exec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")

	exec(t, s, "BEGIN")
	for i := 0; i < 10; i++ {
		exec(t, s, "INSERT INTO t (c1, c2) VALUES (1, $1)", types.NewInt(int64(i)))
	}
	exec(t, s, "COMMIT")
	one, two := metric(e.Metrics(), "txn.commits_1pc"), metric(e.Metrics(), "txn.commits_2pc")
	if one != 1 {
		t.Fatalf("one-phase commits = %d, want 1 (two=%d)", one, two)
	}

	exec(t, s, "BEGIN")
	for i := 0; i < 8; i++ {
		exec(t, s, "INSERT INTO t (c1, c2) VALUES ($1, 0)", types.NewInt(int64(i)))
	}
	exec(t, s, "COMMIT")
	two2 := metric(e.Metrics(), "txn.commits_2pc")
	if two2 != two+1 {
		t.Fatalf("two-phase commits = %d, want %d", two2, two+1)
	}
}

// TestGPDB5AlwaysTwoPhase pins the baseline protocol choice.
func TestGPDB5AlwaysTwoPhase(t *testing.T) {
	e, s := newEngine(t, cluster.GPDB5(4))
	exec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	exec(t, s, "INSERT INTO t VALUES (1, 1)")
	one, two := metric(e.Metrics(), "txn.commits_1pc"), metric(e.Metrics(), "txn.commits_2pc")
	if one != 0 || two == 0 {
		t.Fatalf("GPDB5 commits: one=%d two=%d", one, two)
	}
}

// TestXidMappingTruncation checks that completed transactions drop out of
// the local↔distributed xid mapping (paper §5.1).
func TestXidMappingTruncation(t *testing.T) {
	e, s := newEngine(t, cluster.GPDB6(2))
	exec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	for i := 0; i < 300; i++ {
		exec(t, s, "INSERT INTO t VALUES ($1, 0)", types.NewInt(int64(i)))
	}
	total := 0
	for _, seg := range e.Cluster().Segments() {
		total += seg.Mapping().Len()
	}
	if total > 150 {
		t.Fatalf("mapping entries after truncation = %d", total)
	}
}

// TestRunConcurrentCountsErrors checks harness error accounting.
func TestRunConcurrentCountsErrors(t *testing.T) {
	var n atomic.Int64
	res := RunConcurrent(2, 50*time.Millisecond, func(context.Context, int) error {
		if n.Add(1)%2 == 0 {
			return context.Canceled
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if res.Ops == 0 || res.Errors == 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
}

// TestTableReport smoke-tests the report formatter.
func TestTableReport(t *testing.T) {
	tb := NewTable("Fig X", "clients", "GPDB 5", "GPDB 6")
	tb.Add("10", 1.5, 120.0)
	tb.Add("20", 1.4, 230.0)
	out := tb.String()
	for _, frag := range []string{"Fig X", "clients", "GPDB 6", "230.0"} {
		if !contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
