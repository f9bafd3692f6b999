package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

func chaosConfig(nseg int) *cluster.Config {
	cfg := cluster.GPDB6(nseg)
	cfg.GDDPeriod = 5 * time.Millisecond
	cfg.ReplicaMode = cluster.ReplicaSync
	cfg.FTSInterval = 2 * time.Millisecond
	return cfg
}

// awaitFailovers waits for the FTS daemon's asynchronous promotions to
// land (the kill is synchronous, the promotion is not).
func awaitFailovers(t *testing.T, e *core.Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metric(e.Metrics(), "fts.failovers") < n {
		if time.Now().After(deadline) {
			t.Fatalf("failovers stuck at %d, want %d", metric(e.Metrics(), "fts.failovers"), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosTPCBKillPrimaryMidWorkload runs concurrent TPC-B transactions,
// kills one primary mid-run, lets FTS promote its mirror, and checks the
// money-conservation invariant: the balance total equals the sum of deltas
// of transactions whose COMMIT was acknowledged — i.e. killing a primary
// loses zero committed transactions. The idempotent commit paths make every
// acknowledgement definitive, so there are no indeterminate outcomes to
// excuse.
func TestChaosTPCBKillPrimaryMidWorkload(t *testing.T) {
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

	const clients = 6
	const perClient = 30
	var committedDelta atomic.Int64
	var committed, failed atomic.Int64
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
			r := workload.NewRand(uint64(c + 1))
			<-start
			for i := 0; i < perClient; i++ {
				delta, aid := r.Range(-500, 500), r.Range(1, w.Accounts())
				if err := w.Transfer(ctx, SessionConn{S: s}, aid, r.Range(1, w.Branches*10), r.Range(1, w.Branches), delta); err != nil {
					failed.Add(1)
					continue
				}
				committed.Add(1)
				committedDelta.Add(int64(delta))
			}
		}()
	}
	close(start)
	// Kill a primary while the workload is in full flight.
	time.Sleep(2 * time.Millisecond)
	if err := e.Cluster().KillSegment(1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	awaitFailovers(t, e, 1)
	if committed.Load() == 0 {
		t.Fatal("no transaction committed during chaos run")
	}
	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != committedDelta.Load() {
		t.Fatalf("lost committed transactions: balance total %d, committed deltas %d (committed %d, failed %d)",
			total, committedDelta.Load(), committed.Load(), failed.Load())
	}
}

// TestChaosCHBenchKillPrimaryMidWorkload drives the CH-benCHmark OLTP mix
// (NewOrder + Payment) with analytical readers, kills a primary mid-run,
// and verifies post-promotion consistency: every committed NewOrder's
// order has its 5 order lines, and an analytical scan still answers.
func TestChaosCHBenchKillPrimaryMidWorkload(t *testing.T) {
	cfg := chaosConfig(3)
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.CHBench{Warehouses: 2, Items: 50, InitialOrders: 1}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}

	const clients = 4
	const perClient = 15
	var wg sync.WaitGroup
	var committedOrders atomic.Int64
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
			r := workload.NewRand(uint64(100 + c))
			<-start
			for i := 0; i < perClient; i++ {
				if err := w.NewOrder(ctx, SessionConn{S: s}, r); err == nil {
					committedOrders.Add(1)
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := e.Cluster().KillSegment(2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	awaitFailovers(t, e, 1)
	// Committed orders are whole: every order row has exactly 5 lines
	// (NewOrder inserts them in one transaction, so a failover can never
	// tear an order in half).
	res, err := admin.Exec(ctx, `
		SELECT o.o_id, o.o_w_id, o.o_d_id, count(*)
		FROM orders o JOIN order_line ol
		  ON o.o_w_id = ol.ol_w_id AND o.o_d_id = ol.ol_d_id AND o.o_id = ol.ol_o_id
		GROUP BY o.o_id, o.o_w_id, o.o_d_id`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[3].Int() != 5 {
			t.Fatalf("torn order %v: %d lines", r[:3], r[3].Int())
		}
	}
	// The analytical path runs post-promotion.
	res, err = admin.Exec(ctx, `SELECT ol_number, count(*), sum(ol_amount) FROM order_line GROUP BY ol_number ORDER BY ol_number`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no order lines after failover")
	}
	if committedOrders.Load() == 0 {
		t.Fatal("no NewOrder committed during chaos run")
	}
}

// TestChaosRepeatedKillRecover cycles kill → failover → recover several
// times under load, ending with a full-consistency check — the short chaos
// loop CI runs under -race.
func TestChaosRepeatedKillRecover(t *testing.T) {
	cfg := chaosConfig(2)
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 1, AccountsPerBranch: 30}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}

	var committedDelta atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := e.NewSession("")
			if err != nil {
				t.Error(err)
				return
			}
			r := workload.NewRand(uint64(31 + c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				delta, aid := r.Range(-100, 100), r.Range(1, w.Accounts())
				if err := w.Transfer(ctx, SessionConn{S: s}, aid, r.Range(1, w.Branches*10), r.Range(1, w.Branches), delta); err == nil {
					committedDelta.Add(int64(delta))
				}
			}
		}()
	}
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		victim := round % 2
		time.Sleep(10 * time.Millisecond)
		if err := e.Cluster().KillSegment(victim); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for metric(e.Metrics(), "fts.failovers") < int64(round+1) {
			if time.Now().After(deadline) {
				t.Fatal("failover stalled")
			}
			time.Sleep(time.Millisecond)
		}
		if err := e.Cluster().Recover(victim); err != nil {
			t.Fatalf("recover round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != committedDelta.Load() {
		t.Fatalf("committed transactions lost across %d failovers: balance %d, deltas %d", rounds, total, committedDelta.Load())
	}
}
