package core

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// spillTestConfig sizes a cluster so a constrained resource group's spill
// budget is tiny (slot quota 3.2 MiB × 1% = 32 KiB) while the default groups
// stay functional.
func spillTestConfig(nseg int) *cluster.Config {
	cfg := cluster.GPDB6(nseg)
	cfg.MemoryBytes = 32 << 20
	cfg.BlockCacheBytes = 1 << 20
	return cfg
}

// newSpillEngine boots an engine with a "tiny" resource group (32 KiB spill
// budget) plus a bound role, and returns constrained and unconstrained
// sessions against the same data.
func newSpillEngine(t *testing.T, nseg int) (*Engine, *Session, *Session) {
	t.Helper()
	e := NewEngine(spillTestConfig(nseg))
	t.Cleanup(e.Close)
	admin, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, admin, "CREATE RESOURCE GROUP tiny_mem WITH (CONCURRENCY=1, CPU_RATE_LIMIT=20, MEMORY_LIMIT=10, MEMORY_SHARED_QUOTA=0, MEMORY_SPILL_RATIO=1)")
	mustExec(t, admin, "CREATE ROLE spiller RESOURCE GROUP tiny_mem")
	constrained, err := e.NewSession("spiller")
	if err != nil {
		t.Fatal(err)
	}
	constrained.UseResourceGroup(true, 0)
	return e, constrained, admin
}

// loadSpillTables creates and fills the fact table t (6000 rows ≈ 430 KiB
// working set, ≥10× the 32 KiB budget) and the join table u.
func loadSpillTables(t *testing.T, s *Session, withJoin bool) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "t", 6000, 0, func(i int) string {
		return fmt.Sprintf("(%d,%d)", i, (i*2654435761)%100000)
	})
	if withJoin {
		mustExec(t, s, "CREATE TABLE u (c int, d int) DISTRIBUTED BY (c)")
		bulkInsert(t, s, "u", 4000, 0, func(i int) string {
			return fmt.Sprintf("(%d,%d)", i%3000, i)
		})
	}
}

// TestSpillResultEquality is the acceptance property: ORDER BY, GROUP BY and
// join queries forced to spill by a tiny budget return results byte-identical
// to the unconstrained in-memory plans.
func TestSpillResultEquality(t *testing.T) {
	queries := []string{
		"SELECT a, b FROM t ORDER BY b, a",
		"SELECT b, count(*), sum(a), min(a), max(a), avg(a) FROM t GROUP BY b ORDER BY b",
		"SELECT t.a, t.b, u.d FROM t JOIN u ON t.a = u.c ORDER BY t.a, u.d",
		"SELECT t.a, u.d FROM t LEFT JOIN u ON t.a = u.c ORDER BY t.a, u.d",
	}
	// One pipeline per slice is the only degree the executor runs; the
	// subtest keeps the dop1 name it had beside the parallel runs.
	t.Run("dop1", func(t *testing.T) {
		e, constrained, admin := newSpillEngine(t, 2)
		loadSpillTables(t, admin, true)
		for _, q := range queries {
			base := mustExec(t, admin, q)
			s0 := metric(e.Metrics(), "exec.spill.events")
			got := mustExec(t, constrained, q)
			s1, b1, f1 := metric(e.Metrics(), "exec.spill.events"), metric(e.Metrics(), "exec.spill.bytes"), metric(e.Metrics(), "exec.spill.files")
			if s1 == s0 {
				t.Fatalf("query did not spill under the tiny budget: %s", q)
			}
			if b1 <= 0 || f1 <= 0 {
				t.Fatalf("spill bytes/files not counted: bytes=%d files=%d", b1, f1)
			}
			if len(got.Rows) != len(base.Rows) {
				t.Fatalf("%s: row counts differ: constrained=%d unconstrained=%d", q, len(got.Rows), len(base.Rows))
			}
			for i := range base.Rows {
				if !base.Rows[i].Equal(got.Rows[i]) {
					t.Fatalf("%s: row %d differs: unconstrained=%v constrained=%v", q, i, base.Rows[i], got.Rows[i])
				}
			}
		}
	})
}

// ownSpillDir points the test's spill files at a TMPDIR of its own and
// returns the leak check: no gpspill directory may be left there. The
// machine-wide temp directory would not do — go test runs several packages'
// spilling tests at once, and another process's live directory is not this
// test's leak.
func ownSpillDir(t *testing.T) (noLeak func(when string)) {
	t.Helper()
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return func(when string) {
		t.Helper()
		if m, _ := filepath.Glob(filepath.Join(dir, "gpspill-*")); len(m) != 0 {
			t.Fatalf("spill temp dir leaked %s: %v", when, m)
		}
	}
}

// TestSpillTempFileCleanupOnError: a query that spills and then fails (a
// division by zero planted at the end of the scan) must leave no temp files
// or directories behind.
func TestSpillTempFileCleanupOnError(t *testing.T) {
	_, constrained, admin := newSpillEngine(t, 2)
	loadSpillTables(t, admin, false)
	noLeak := ownSpillDir(t)
	// Row a=5999 is inserted (and scanned) last; by then the coordinator
	// sort has spilled several 32 KiB runs.
	_, err := constrained.Exec(context.Background(), "SELECT a, b/(a-5999) FROM t ORDER BY b")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("expected division-by-zero error, got %v", err)
	}
	noLeak("after query error")
	// The session recovers and the next spilling query still works.
	res := mustExec(t, constrained, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 6000 {
		t.Fatalf("recovery count: %v", res.Rows)
	}
	noLeak("after recovery query")
}

// TestSpillObservability: EXPLAIN ANALYZE reports nonzero spill counters for
// a constrained query, SHOW spill_stats mirrors the cumulative totals, and
// DB-level stats bound the operator-memory peak by the budget.
func TestSpillObservability(t *testing.T) {
	e, constrained, admin := newSpillEngine(t, 2)
	loadSpillTables(t, admin, false)
	noLeak := ownSpillDir(t)
	res := mustExec(t, constrained, "EXPLAIN ANALYZE SELECT b, count(*) FROM t GROUP BY b ORDER BY b")
	var spillLine string
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].Text(), "spill:") {
			spillLine = r[0].Text()
		}
	}
	if spillLine == "" {
		t.Fatalf("EXPLAIN ANALYZE output lacks a spill line: %v", res.Rows)
	}
	if strings.Contains(spillLine, "spills=0") {
		t.Fatalf("EXPLAIN ANALYZE reports no spills under a 32 KiB budget: %s", spillLine)
	}
	show := mustExec(t, constrained, "SHOW spill_stats")
	vals := map[string]int64{}
	for _, r := range show.Rows {
		vals[r[0].Text()] = r[1].Int()
	}
	if vals["spills"] <= 0 || vals["spill_bytes"] <= 0 || vals["spill_files"] <= 0 {
		t.Fatalf("SHOW spill_stats: %v", vals)
	}
	// The whole point: the budget-tracked operator high water stays at the
	// budget (slot quota 32 MiB × 10% × ratio 1% ≈ 33 KiB) even though the
	// working set is >10× larger, and the true resource-group vmem peak —
	// which also sees spill-chunk floors, partition reloads and the charged
	// spill-file buffers — stays bounded by those overheads (well under
	// 1 MiB here) instead of the multi-MiB working set.
	budget := int64(32<<20) / 10 / 100
	if peak := vals["spill_mem_peak"]; peak <= 0 || peak > budget {
		t.Fatalf("spill_mem_peak %d outside (0, %d]", peak, budget)
	}
	if peak := metric(e.Metrics(), "exec.spill.mem_peak"); peak > budget {
		t.Fatalf("cluster-level mem peak %d exceeds budget %d", peak, budget)
	}
	if vmem := metric(e.Metrics(), "exec.vmem_peak"); vmem <= 0 || vmem > 2<<20 {
		t.Fatalf("exec.vmem_peak %d outside (0, 2 MiB]", vmem)
	}
	noLeak("after the spilling query")
	if vmem := vals["vmem_peak"]; vmem <= 0 || vmem > 1<<20 {
		t.Fatalf("vmem_peak %d outside (0, 1 MiB]", vmem)
	}
	// EXPLAIN (without ANALYZE) surfaces the planner's operator estimates.
	text := explainText(t, constrained, "SELECT b, count(*) FROM t GROUP BY b ORDER BY b")
	if !strings.Contains(text, "est_mem=") {
		t.Fatalf("EXPLAIN lacks est_mem annotations:\n%s", text)
	}
}

// TestMemorySpillRatioValidation: CREATE RESOURCE GROUP rejects out-of-range
// or non-integer MEMORY_SPILL_RATIO instead of silently defaulting, and SET
// memory_spill_ratio is validated the same way.
func TestMemorySpillRatioValidation(t *testing.T) {
	_, s := newTestEngine(t, 1)
	ctx := context.Background()
	// 0 is rejected because on a group it would mean "inherit the cluster
	// default", not "disable" — the opposite of what SET memory_spill_ratio
	// 0 does; the error message points at the session knob.
	for _, bad := range []string{"101", "999", "abc", "0"} {
		_, err := s.Exec(ctx, fmt.Sprintf("CREATE RESOURCE GROUP g_%s WITH (CONCURRENCY=1, MEMORY_LIMIT=5, MEMORY_SPILL_RATIO=%s)", bad, bad))
		if err == nil || !strings.Contains(err.Error(), "MEMORY_SPILL_RATIO") {
			t.Fatalf("MEMORY_SPILL_RATIO=%s accepted (err=%v)", bad, err)
		}
	}
	mustExec(t, s, "CREATE RESOURCE GROUP g_one WITH (CONCURRENCY=1, MEMORY_LIMIT=5, MEMORY_SPILL_RATIO=1)")
	mustExec(t, s, "CREATE RESOURCE GROUP g_full WITH (CONCURRENCY=1, MEMORY_LIMIT=5, MEMORY_SPILL_RATIO=100)")
	if _, err := s.Exec(ctx, "SET memory_spill_ratio 150"); err == nil {
		t.Fatal("SET memory_spill_ratio 150 accepted")
	}
	mustExec(t, s, "SET memory_spill_ratio 35")
	res := mustExec(t, s, "SHOW memory_spill_ratio")
	if res.Rows[0][0].Text() != "35" {
		t.Fatalf("SHOW memory_spill_ratio: %v", res.Rows)
	}
}

// TestSpillDisabledWithZeroRatio: SET memory_spill_ratio 0 restores the old
// behaviour — queries that would spill under the group's tiny budget run
// fully in memory instead (until the Vmemtracker would cancel them).
func TestSpillDisabledWithZeroRatio(t *testing.T) {
	e, constrained, admin := newSpillEngine(t, 2)
	loadSpillTables(t, admin, false)
	// Precondition: under the tiny budget this query spills…
	mustExec(t, constrained, "SELECT a, b FROM t ORDER BY b, a")
	s0 := metric(e.Metrics(), "exec.spill.events")
	if s0 == 0 {
		t.Fatal("precondition failed: tiny budget did not spill")
	}
	// …and the session knob turns spilling off entirely.
	mustExec(t, constrained, "SET memory_spill_ratio 0")
	mustExec(t, constrained, "SELECT a, b FROM t ORDER BY b, a")
	if s1 := metric(e.Metrics(), "exec.spill.events"); s1 != s0 {
		t.Fatalf("SET memory_spill_ratio 0 still spilled (%d -> %d)", s0, s1)
	}
}
