package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// TestExpandChaosTPCB expands the cluster 2→4 in the middle of a concurrent
// TPC-B run under a seeded fault schedule — dispatch flak on every segment,
// injected move_stream errors that force the mover to restart table moves,
// and a kill of one of the NEW segments while the mover is mid-stream (a
// deterministic window: the mover hangs at its first move_stream evaluation
// until the failover has promoted the new segment's mirror). The run must
// end with the expansion complete, the ledger exact, and nothing leaked.
func TestExpandChaosTPCB(t *testing.T) {
	cfg := chaosConfig(2)
	e, admin := newEngine(t, cfg)
	ctx := context.Background()
	w := &workload.TPCB{Branches: 2, AccountsPerBranch: 100}
	if err := admin.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, SessionConn{S: admin}); err != nil {
		t.Fatal(err)
	}

	// The schedule is seeded so a failure replays identically. Arming order
	// matters: the hang parks the mover's first streamed batch (the kill
	// window), the Count-limited errors then force restarts before the spec
	// exhausts and the move converges, and dispatch flak runs throughout.
	c := e.Cluster()
	specs := []fault.Spec{
		{Point: fault.MoveStream, Seg: fault.AllSegments, Action: fault.ActHang, Count: 1},
		{Point: fault.MoveStream, Seg: fault.AllSegments, Action: fault.ActError, Count: 3, Seed: 707},
		{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError, Probability: 15, Seed: 909},
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
			r := workload.NewRand(uint64(2000 + cl))
			<-start
			for i := 0; i < perClient; i++ {
				delta, aid := r.Range(-500, 500), r.Range(1, w.Accounts())
				tid, bid := r.Range(1, w.Branches*10), r.Range(1, w.Branches)
				// The online-expansion client contract: a map flip strands
				// plans built against the old placement with a retryable
				// error and fences in-flight writers with ErrTxnLostWrites;
				// both abort the transaction whole, so re-running it is
				// exactly-once safe.
				var err error
				for attempt := 0; attempt < 30; attempt++ {
					err = w.Transfer(ctx, SessionConn{S: s}, aid, tid, bid, delta)
					if err == nil || !(cluster.IsRetryableDispatch(err) || errors.Is(err, cluster.ErrTxnLostWrites)) {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					failed.Add(1)
					continue
				}
				committed.Add(1)
				committedDelta.Add(int64(delta))
			}
		}()
	}
	close(start)
	if err := c.StartExpand(4); err != nil {
		t.Fatal(err)
	}

	// Wait for the mover to park at the hang, then kill a NEW segment while
	// its shard stream is in flight. FTS promotes the new segment's mirror;
	// only then does the mover resume and run into the freshly promoted copy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		hung := false
		for _, ps := range c.FaultStatus() {
			if ps.Point == fault.MoveStream && ps.Action == fault.ActHang && ps.Triggers >= 1 {
				hung = true
			}
		}
		if hung {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mover never reached a move_stream batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.KillSegment(2); err != nil {
		t.Fatal(err)
	}
	awaitFailovers(t, e, 1)
	c.ResumeFault(fault.MoveStream)

	wg.Wait()
	if err := c.WaitExpand(ctx); err != nil {
		t.Fatalf("expansion did not survive the chaos schedule: %v", err)
	}
	c.ResetFault("")

	st := c.ExpandStatus()
	if !st.Done || st.Err != "" {
		t.Fatalf("expand status after WaitExpand: %+v", st)
	}
	if st.Restarts == 0 {
		t.Fatal("injected move_stream errors never restarted a table move")
	}
	if got := c.SegCount(); got != 4 {
		t.Fatalf("SegCount after chaos expansion = %d", got)
	}
	for _, name := range []string{"pgbench_accounts", "pgbench_branches", "pgbench_tellers", "pgbench_history"} {
		tab, err := c.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := tab.Placement(); w != 4 {
			t.Fatalf("table %s placement width = %d after expansion", name, w)
		}
	}
	if committed.Load() == 0 {
		t.Fatalf("no transaction survived the schedule (failed %d)", failed.Load())
	}

	// Nothing leaked: no spill files, and the mover released its
	// resource-group slot.
	if leaks := metric(c.Metrics(), "exec.spill.leaks"); leaks != 0 {
		t.Fatalf("spill files leaked under expansion chaos: %d", leaks)
	}
	if g, ok := c.Groups().Group("expand_mover"); !ok {
		t.Fatal("expansion never created its throttling resource group")
	} else if g.InUse() != 0 {
		t.Fatalf("mover leaked %d expand_mover slots", g.InUse())
	}

	// No leaked locks: a full-table write that needs every row completes
	// promptly (a leaked fence or row lock would hang it forever).
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
		t.Fatal("post-chaos update hung: expansion leaked locks")
	}

	// The rebalanced multiset is exact: every committed transaction's history
	// row survived the move, none was duplicated.
	res, err := admin.Exec(ctx, "SELECT count(*) FROM pgbench_history")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != committed.Load() {
		t.Fatalf("history rows after rebalance = %d, want one per committed txn (%d)", got, committed.Load())
	}

	// Money conservation, exactly, across faults + failover + rebalance.
	total, err := w.TotalBalance(ctx, SessionConn{S: admin})
	if err != nil {
		t.Fatal(err)
	}
	if total != committedDelta.Load() {
		t.Fatalf("ledger drift across expansion chaos: balance %d, acked deltas %d (committed %d, failed %d)",
			total, committedDelta.Load(), committed.Load(), failed.Load())
	}
}

// TestExpandScanSpreadsRows: after online expansion from 2 to 4 segments the
// rebalance leaves each segment 20–30 % of a hash table's rows, and a full
// scan dispatches its scan slice to all four, per EXPLAIN ANALYZE's
// per-segment detail lines under the Seq Scan.
func TestExpandScanSpreadsRows(t *testing.T) {
	const rows = 4000
	const query = "SELECT count(*), sum(v) FROM big"
	e := core.NewEngine(cluster.GPDB6(2))
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE big (k int, v int) DISTRIBUTED BY (k)"); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < rows; base += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*3)
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Cluster().StartExpand(4); err != nil {
		t.Fatal(err)
	}
	if err := e.Cluster().WaitExpand(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := s.Exec(ctx, "EXPLAIN ANALYZE "+query)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	perSeg := map[int]int{}
	inScan := false
	for _, r := range res.Rows {
		l := strings.TrimSpace(r[0].Text())
		lines = append(lines, l)
		if strings.HasPrefix(l, "->") {
			inScan = strings.HasPrefix(l, "-> Seq Scan on big")
			continue
		}
		var seg, n int
		if _, err := fmt.Sscanf(l, "seg%d: rows=%d", &seg, &n); err == nil && inScan {
			perSeg[seg] = n
		}
	}
	plan := strings.Join(lines, "\n")
	if len(perSeg) != 4 {
		t.Fatalf("scan ran on %d segments, want 4:\n%s", len(perSeg), plan)
	}
	for seg, n := range perSeg {
		if n*10 < rows*2 || n*10 > rows*3 {
			t.Fatalf("seg%d stores %d of %d rows, want 20–30 %%:\n%s", seg, n, rows, plan)
		}
	}
	got, err := s.Exec(ctx, query)
	if err != nil {
		t.Fatal(err)
	}
	if c, sum := got.Rows[0][0].Int(), got.Rows[0][1].Int(); c != rows || sum != 3*rows*(rows-1)/2 {
		t.Fatalf("after expansion: count=%d sum=%d, want %d and %d", c, sum, rows, 3*rows*(rows-1)/2)
	}
}
