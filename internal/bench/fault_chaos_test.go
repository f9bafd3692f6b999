package bench

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestFaultChaosTPCBSeededSchedule runs concurrent TPC-B transactions under
// a seeded, deterministic fault schedule — probabilistic dispatch drops,
// two-phase prepare failures, and mirror-apply lag — and checks the
// graceful-degradation contract: every fault in the schedule either retries
// transparently or aborts its transaction whole, so the balance total equals
// the sum of acknowledged deltas exactly, and nothing (locks, sessions,
// spill files, registered snapshots) leaks.
func TestFaultChaosTPCBSeededSchedule(t *testing.T) {
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

	// The schedule is seeded so a failure replays identically. Every armed
	// action is ledger-safe: pre-send dispatch errors retry or abort whole,
	// prepare failures abort whole, mirror lag only slows commits down.
	c := e.Cluster()
	specs := []fault.Spec{
		{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError, Probability: 20, Seed: 101},
		{Point: fault.TwopcPrepare, Seg: fault.AllSegments, Action: fault.ActError, Probability: 10, Seed: 202},
		{Point: fault.MirrorApply, Seg: fault.AllSegments, Action: fault.ActSleep, Sleep: 100 * time.Microsecond, Probability: 25, Seed: 303},
	}
	for _, sp := range specs {
		if err := c.InjectFault(sp); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 6
	const perClient = 25
	var committedDelta atomic.Int64
	var committed, failed atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := e.NewSession("")
			if err != nil {
				t.Error(err)
				return
			}
			r := workload.NewRand(uint64(1000 + cl))
			<-start
			for i := 0; i < perClient; i++ {
				delta := int64(r.Range(-500, 500))
				aid := r.Range(1, w.Accounts())
				if err := tpcbTxn(ctx, s, aid, delta); err != nil {
					failed.Add(1)
					continue
				}
				committed.Add(1)
				committedDelta.Add(delta)
			}
		}()
	}
	close(start)
	wg.Wait()
	c.ResetFault("")

	st := c.FaultStats()
	if st.Triggers == 0 {
		t.Fatal("fault schedule never fired")
	}
	if st.DispatchRetries == 0 {
		t.Fatal("dispatch faults fired but no retry was counted")
	}
	if st.SpillLeaks != 0 {
		t.Fatalf("spill files leaked under chaos: %d", st.SpillLeaks)
	}
	if n := c.LiveSnapshots(); n != 0 {
		t.Fatalf("%d distributed snapshots left registered after chaos", n)
	}
	if committed.Load() == 0 {
		t.Fatalf("no transaction survived the schedule (failed %d)", failed.Load())
	}

	// No transaction left locks behind: a full-table write that needs every
	// row lock completes promptly (a leak would hang it forever).
	done := make(chan error, 1)
	go func() {
		_, err := admin.Exec(ctx, "UPDATE pgbench_accounts SET abalance = abalance + 0")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-chaos full-table update: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-chaos update hung: chaos leaked locks")
	}

	// Money conservation, exactly: every acknowledged commit is durable,
	// every failed transaction rolled back whole.
	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != committedDelta.Load() {
		t.Fatalf("ledger drift under faults: balance %d, acked deltas %d (committed %d, failed %d)",
			total, committedDelta.Load(), committed.Load(), failed.Load())
	}
}

// TestFaultChaosTornWALTruncateRecover injects a torn WAL append on an
// un-mirrored primary mid-workload: the wedged log takes the segment down
// before anything un-durable is acknowledged, and Recover truncates the torn
// tail and replays the intact prefix. The ledger must balance exactly —
// the torn transaction was never acked, everything acked survives recovery.
func TestFaultChaosTornWALTruncateRecover(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.GDDPeriod = 5 * time.Millisecond
	cfg.ReplicaMode = cluster.ReplicaNone // no mirror: Recover must truncate+replay
	cfg.WAL = true
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 1, AccountsPerBranch: 30}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}
	c := e.Cluster()

	var ackedDelta int64
	r := workload.NewRand(7)
	mustTxn := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			delta := int64(r.Range(-100, 100))
			if err := tpcbTxn(ctx, admin, r.Range(1, w.Accounts()), delta); err != nil {
				t.Fatalf("txn %d: %v", i, err)
			}
			ackedDelta += delta
		}
	}
	mustTxn(10)

	const victim = 1
	if err := c.InjectFault(fault.Spec{Point: fault.WALAppend, Seg: victim, Action: fault.ActTornWrite, Count: 1}); err != nil {
		t.Fatal(err)
	}
	// Drive transactions until one lands on the victim's wedged log; its
	// commit must NOT be acknowledged, and the segment takes itself down.
	sawFailure := false
	for i := 0; i < 200 && !sawFailure; i++ {
		delta := int64(r.Range(-100, 100))
		if err := tpcbTxn(ctx, admin, r.Range(1, w.Accounts()), delta); err != nil {
			sawFailure = true
		} else {
			ackedDelta += delta
		}
	}
	c.ResetFault(fault.WALAppend)
	if !sawFailure {
		t.Fatal("torn-write fault never surfaced as a failed transaction")
	}

	if err := c.Recover(victim); err != nil {
		t.Fatalf("Recover(%d): %v", victim, err)
	}
	st := c.FaultStats()
	if st.WALTruncations == 0 {
		t.Fatal("recovery did not truncate the torn tail")
	}
	if st.WALTruncatedBytes == 0 {
		t.Fatal("truncation dropped zero bytes")
	}

	// The revived segment serves reads and writes; the ledger is exact.
	mustTxn(10)
	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != ackedDelta {
		t.Fatalf("ledger drift across torn-WAL recovery: balance %d, acked %d", total, ackedDelta)
	}
}
