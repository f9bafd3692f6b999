package server_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/types"
	"repro/internal/workload"
)

// TestConnectionChurnChaos is the connection-churn battery: a crowd of
// sockets runs TPC-B-style transactions while a killer tears connections
// down at random moments — mid-statement, mid-transaction, mid-commit.
// Afterwards the survivors' ledger must reconcile exactly:
//
//   - every transaction whose COMMIT was acknowledged is in the database;
//   - every transaction that never reached COMMIT is not;
//   - a COMMIT whose response was lost to the socket dying is ambiguous —
//     allowed either way, but if present it must be complete (atomicity);
//   - no sessions, resource-group slots, locks, registered snapshots, or
//     spill temp files leak.
//
// Run it under -race (CI does): the reader-goroutine/executor handoff and
// shared plan cache get hammered from hundreds of goroutines.
func TestConnectionChurnChaos(t *testing.T) {
	// Spill files land in TMPDIR; give this test its own so the leak check
	// cannot be confused by other tests.
	t.Setenv("TMPDIR", t.TempDir())

	clients := 150
	storm := 2500 * time.Millisecond
	if testing.Short() {
		clients = 48
		storm = 800 * time.Millisecond
	}

	ccfg := cluster.GPDB6(2)
	ccfg.GDDPeriod = 5 * time.Millisecond
	e := core.NewEngine(ccfg)
	defer e.Close()
	srv := server.New(e, server.Config{MaxConns: clients * 2, UseResourceGroups: true})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	ctx := context.Background()
	w := &workload.TPCB{Branches: 4, AccountsPerBranch: 50}
	loader, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.ExecScript(ctx, w.Schema()); err != nil {
		t.Fatal(err)
	}
	if err := w.Load(ctx, coreConn{loader}); err != nil {
		t.Fatal(err)
	}
	loader.Close()

	// Every transaction gets a globally unique id, written into
	// pgbench_history.mtime inside the transaction. The id is the ground
	// truth for the lost/phantom-commit reconciliation below.
	var txnID atomic.Int64
	var mu sync.Mutex
	acked := make(map[int64]bool)     // COMMIT acknowledged
	ambiguous := make(map[int64]bool) // COMMIT sent, response lost
	deltas := make(map[int64]int64)   // id → account delta, for atomicity check

	deadline := time.Now().Add(storm)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := workload.NewRand(uint64(seed)*2654435761 + 1)
			for time.Now().Before(deadline) {
				c, err := client.DialTimeout(srv.Addr(), "", 5*time.Second)
				if err != nil {
					continue // refused during a capacity blip; try again
				}
				// The killer: after a random fuse, drop the socket with no
				// goodbye — possibly mid-statement or mid-commit.
				var timer *time.Timer
				if r.Range(0, 2) > 0 { // 2/3 of connections die violently
					fuse := time.Duration(r.Range(0, 30)) * time.Millisecond
					timer = time.AfterFunc(fuse, func() { _ = c.Kill() })
				}
				runTxns(ctx, t, c, w, r, deadline, &txnID, &mu, acked, ambiguous, deltas)
				if timer != nil {
					timer.Stop()
				}
				_ = c.Close()
			}
		}(i)
	}
	wg.Wait()

	// Quiesce: every session torn down, every slot back, every lock free.
	waitFor(t, "sessions drained", func() bool { return srv.SessionCount() == 0 })
	for _, grp := range []string{"admin_group", "default_group"} {
		g, ok := e.Cluster().Groups().Group(grp)
		if !ok {
			t.Fatalf("group %s missing", grp)
		}
		waitFor(t, grp+" slots released", func() bool { return g.InUse() == 0 })
	}
	waitFor(t, "coordinator locks released", func() bool {
		return len(e.Cluster().CoordinatorLocks().Dump()) == 0
	})
	for _, seg := range e.Cluster().Segments() {
		seg := seg
		waitFor(t, fmt.Sprintf("segment %d locks released", seg.ID()), func() bool {
			return len(seg.Locks().Dump()) == 0
		})
	}
	waitFor(t, "snapshots released", func() bool { return e.Cluster().LiveSnapshots() == 0 })
	if m, _ := filepath.Glob(filepath.Join(os.TempDir(), "gpspill-*")); len(m) != 0 {
		t.Errorf("spill temp dirs leaked after churn: %v", m)
	}

	// Reconcile the ledger through a fresh connection.
	c := dialT(t, srv)
	defer c.Close()
	res := mustExecNet(t, c, "SELECT mtime, delta FROM pgbench_history")
	inDB := make(map[int64]int64, len(res.Rows))
	for _, row := range res.Rows {
		id := row[0].Int()
		if _, dup := inDB[id]; dup {
			t.Fatalf("txn id %d appears twice in history — partial commit", id)
		}
		inDB[id] = row[1].Int()
	}
	committedSum := int64(0)
	for id, delta := range inDB {
		committedSum += delta
		if !acked[id] && !ambiguous[id] {
			t.Errorf("phantom commit: txn %d in history but never acknowledged", id)
		}
		if want := deltas[id]; delta != want {
			t.Errorf("txn %d: history delta %d, issued %d", id, delta, want)
		}
	}
	for id := range acked {
		if _, ok := inDB[id]; !ok {
			t.Errorf("lost commit: txn %d acknowledged but missing from history", id)
		}
	}
	// Atomicity across tables: the account balances must equal exactly the
	// sum of committed deltas — a torn transaction would break this.
	bal := mustExecNet(t, c, "SELECT sum(abalance) FROM pgbench_accounts")
	got := int64(0)
	if !bal.Rows[0][0].IsNull() {
		got = bal.Rows[0][0].Int()
	}
	if got != committedSum {
		t.Errorf("atomicity broken: sum(abalance)=%d, committed deltas=%d", got, committedSum)
	}
	if len(acked) == 0 {
		t.Error("no transaction survived the storm — chaos too violent to test anything")
	}
	t.Logf("churn: %d acked, %d ambiguous, %d committed rows, %d total ids issued",
		len(acked), len(ambiguous), len(inDB), txnID.Load())
}

// runTxns drives TPC-B-style transactions on one connection until the
// connection dies or the deadline passes, recording each commit's fate.
func runTxns(ctx context.Context, t *testing.T, c *client.Client, w *workload.TPCB,
	r *workload.Rand, deadline time.Time, txnID *atomic.Int64,
	mu *sync.Mutex, acked, ambiguous map[int64]bool, deltas map[int64]int64) {
	for time.Now().Before(deadline) {
		id := txnID.Add(1)
		aid := r.Range(1, w.Accounts())
		bid := r.Range(1, w.Branches)
		tid := r.Range(1, w.Branches*10)
		delta := int64(r.Range(-5000, 5000))
		mu.Lock()
		deltas[id] = delta
		mu.Unlock()

		steps := []struct {
			sql  string
			args []types.Datum
		}{
			{"BEGIN", nil},
			{"UPDATE pgbench_accounts SET abalance = abalance + $1 WHERE aid = $2",
				[]types.Datum{types.NewInt(delta), types.NewInt(int64(aid))}},
			{"UPDATE pgbench_branches SET bbalance = bbalance + $1 WHERE bid = $2",
				[]types.Datum{types.NewInt(delta), types.NewInt(int64(bid))}},
			{"INSERT INTO pgbench_history VALUES ($1, $2, $3, $4, $5, '')",
				[]types.Datum{types.NewInt(int64(tid)), types.NewInt(int64(bid)),
					types.NewInt(int64(aid)), types.NewInt(delta), types.NewInt(id)}},
		}
		failed := false
		for _, st := range steps {
			if _, err := c.Exec(ctx, st.sql, st.args...); err != nil {
				if _, ok := err.(*client.ServerError); ok {
					// Server-reported failure (deadlock victim, timeout):
					// the transaction is aborted; roll back and move on.
					_, _ = c.Exec(ctx, "ROLLBACK")
					failed = true
					break
				}
				// Transport death before COMMIT: definitively not committed.
				return
			}
		}
		if failed {
			continue
		}
		if _, err := c.Exec(ctx, "COMMIT"); err != nil {
			if _, ok := err.(*client.ServerError); ok {
				// The server refused the commit; it did not apply. Recorded
				// as ambiguous anyway (cheap safety — a refused commit that
				// somehow applied would still be caught as phantom only if
				// unrecorded).
				mu.Lock()
				ambiguous[id] = true
				mu.Unlock()
				continue
			}
			// Socket died with COMMIT in flight — the one genuinely
			// ambiguous window in the protocol.
			mu.Lock()
			ambiguous[id] = true
			mu.Unlock()
			return
		}
		mu.Lock()
		acked[id] = true
		mu.Unlock()
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// coreConn adapts a core.Session to workload.Conn for loading.
type coreConn struct{ s *core.Session }

func (c coreConn) Exec(ctx context.Context, sqlText string, args ...types.Datum) (int, []types.Row, error) {
	res, err := c.s.Exec(ctx, sqlText, args...)
	if err != nil {
		return 0, nil, err
	}
	return res.RowsAffected, res.Rows, nil
}
