package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// expandSchema covers all three storage engines plus the two non-hash
// distribution policies, with an index to exercise the flip's index clone.
const expandSchema = failoverSchema + `
CREATE TABLE er (k int, v int, s text) DISTRIBUTED REPLICATED;
CREATE TABLE ed (k int, v int, s text) DISTRIBUTED RANDOMLY;
CREATE INDEX fh_k ON fh (k);
`

var expandTables = []string{"fh", "fr", "fc", "er", "ed"}

// execRetry is the client contract during online expansion: a map flip
// strands plans built against the old placement with a retryable error, so
// clients re-plan and re-run. ErrTxnLostWrites aborts a transaction whole,
// so re-running the statement is equally safe.
func execRetry(ctx context.Context, s *Session, q string) (*Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.Exec(ctx, q)
		if err == nil || attempt >= 30 ||
			!(cluster.IsRetryableDispatch(err) || errors.Is(err, cluster.ErrTxnLostWrites)) {
			return res, err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicatedScanSingleCopy pins the planner rule that a top-level read
// of a replicated table scans exactly one segment's copy: every segment
// stores the full table, and the final gather collects from all segments, so
// an unrestricted scan would return one copy per segment.
func TestReplicatedScanSingleCopy(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE rep (k int, v int) DISTRIBUTED REPLICATED")
	mustExec(t, s, "INSERT INTO rep VALUES (1, 10), (2, 20), (3, 30)")
	if got := mustExec(t, s, "SELECT k, v FROM rep ORDER BY k").Rows; len(got) != 3 {
		t.Fatalf("plain scan returned %d rows, want 3 (per-segment copies leaked)", len(got))
	}
	// Two-phase aggregates must not count per-segment copies either.
	res := mustExec(t, s, "SELECT count(*), sum(v) FROM rep")
	if n, sum := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != 3 || sum != 60 {
		t.Fatalf("aggregate over replicated table = (%d, %d), want (3, 60)", n, sum)
	}
}

// TestExpandSQLSurface drives the SQL entry points: ALTER SYSTEM EXPAND TO
// grows the cluster and SHOW expand_status tracks the run to completion.
func TestExpandSQLSurface(t *testing.T) {
	e, s := newTestEngine(t, 2)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2))
	}
	mustExec(t, s, "ALTER SYSTEM EXPAND TO 4")
	if err := e.Cluster().WaitExpand(ctx); err != nil {
		t.Fatalf("expansion failed: %v", err)
	}
	res := mustExec(t, s, "SHOW expand_status")
	status := map[string]string{}
	for _, r := range res.Rows {
		status[r[0].Text()] = r[1].Text()
	}
	if status["state"] != "complete" {
		t.Fatalf("expand_status = %v", status)
	}
	if status["segments_from"] != "2" || status["segments_target"] != "4" {
		t.Fatalf("expand_status bounds = %v", status)
	}
	if status["restarts"] != "0" {
		t.Fatalf("clean expansion reported restarts: %v", status)
	}
	got, err := execRetry(ctx, s, "SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Rows[0][0].Int(); n != 100 {
		t.Fatalf("count after expand = %d, want 100", n)
	}
	// The widened placement serves index lookups and new writes.
	mustExec(t, s, "INSERT INTO t VALUES (1000, 1)")
	if n := mustExec(t, s, "SELECT count(*) FROM t").Rows[0][0].Int(); n != 101 {
		t.Fatalf("count after post-expand insert = %d, want 101", n)
	}
	if _, err := s.Exec(ctx, "ALTER SYSTEM EXPAND TO 3"); err == nil {
		t.Fatal("shrinking EXPAND must error")
	}
}

// TestExpandEquivalence is the online-expansion property test: for a seeded
// random DML workload over all three storage engines (plus replicated and
// random distributions), expanding the cluster 2→4 mid-schedule must leave
// every table byte-identical to a run that never expanded.
// The workload keeps running while shards move; clients only ever see
// retryable errors at the flip.
func TestExpandEquivalence(t *testing.T) {
	seeds := []uint64{3, 11, 29}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runExpandEquivalence(t, seed)
		})
	}
}

func runExpandEquivalence(t *testing.T, seed uint64) {
	ctx := context.Background()
	const steps = 400

	// Control never expands; the expanding engine grows 2→4 mid-schedule.
	sessions := make([]*Session, 2)
	var expEng *Engine
	for i := range sessions {
		e, s := newReplicatedEngine(t, 2, cluster.ReplicaSync)
		if err := s.ExecScript(ctx, expandSchema); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		if i == 1 {
			expEng = e
		}
	}
	control, expanding := sessions[0], sessions[1]

	r := workload.NewRand(seed)
	expandAt := r.Range(steps/4, steps/2)
	stmts := expandDML(seed, steps)

	for i, q := range stmts {
		if _, err := control.Exec(ctx, q); err != nil {
			t.Fatalf("control step %d (%q): %v", i, q, err)
		}
		if i == expandAt {
			if err := expEng.Cluster().StartExpand(4); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := execRetry(ctx, expanding, q); err != nil {
			t.Fatalf("expanding step %d (%q): %v", i, q, err)
		}
	}
	if err := expEng.Cluster().WaitExpand(ctx); err != nil {
		t.Fatalf("seed %d: expansion failed: %v", seed, err)
	}
	if got := expEng.Cluster().SegCount(); got != 4 {
		t.Fatalf("SegCount after expand = %d", got)
	}
	for _, tab := range expandTables {
		moved, err := expEng.Cluster().Catalog().Table(tab)
		if err != nil {
			t.Fatal(err)
		}
		if w, _ := moved.Placement(); w != 4 {
			t.Fatalf("table %s placement width = %d after expand", tab, w)
		}
	}

	for _, tab := range expandTables {
		q := fmt.Sprintf("SELECT k, v, s FROM %s ORDER BY k, v, s", tab)
		want := rowsText(mustExec(t, control, q))
		got := rowsText(mustExec(t, expanding, q))
		if want != got {
			t.Fatalf("seed %d: table %s diverged after expansion at step %d\ncontrol %d bytes, expanded %d bytes",
				seed, tab, expandAt, len(want), len(got))
		}
	}
	// Index lookups read the rebuilt index on the moved table.
	for _, k := range []int{0, 7, 63} {
		q := fmt.Sprintf("SELECT k, v, s FROM fh WHERE k = %d ORDER BY k, v, s", k)
		if want, got := rowsText(mustExec(t, control, q)), rowsText(mustExec(t, expanding, q)); want != got {
			t.Fatalf("seed %d: index lookup k=%d diverged after expansion", seed, k)
		}
	}
}

// expandDML generates a deterministic mixed DML stream over the expansion
// test tables (hash × three storage engines, replicated, random).
func expandDML(seed uint64, n int) []string {
	r := workload.NewRand(seed * 1231)
	out := make([]string, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		tab := expandTables[r.Intn(len(expandTables))]
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // insert a small batch
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tab)
			for j := 0; j < 1+r.Intn(5); j++ {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d, %d, 'e%d')", next, r.Intn(1000), next%17)
				next++
			}
			out = append(out, sb.String())
		case 5, 6: // arithmetic update over a key stripe
			out = append(out, fmt.Sprintf("UPDATE %s SET v = v + %d WHERE k %% 7 = %d", tab, 1+r.Intn(9), r.Intn(7)))
		case 7: // delete a sliver
			out = append(out, fmt.Sprintf("DELETE FROM %s WHERE k %% 29 = %d", tab, r.Intn(29)))
		case 8: // read (keeps snapshots and read-only commits in the mix)
			out = append(out, fmt.Sprintf("SELECT count(*) FROM %s", tab))
		default: // text update over a different stripe
			out = append(out, fmt.Sprintf("UPDATE %s SET s = 'x%d' WHERE k %% 11 = %d", tab, i, r.Intn(11)))
		}
	}
	return out
}
