package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// planText flattens a one-column result (EXPLAIN, SHOW) into its lines.
func planText(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].Text())
	}
	return out
}

func containsLine(lines []string, substr string) bool {
	for _, l := range lines {
		if strings.Contains(l, substr) {
			return true
		}
	}
	return false
}

// TestExplainAnalyzeJoinOperators is the acceptance scenario: EXPLAIN ANALYZE
// on a three-way join over a multi-segment cluster must show per-operator
// actual statistics with per-segment detail and a skew ratio, and the
// retained gp_stat_queries record must agree with the printed totals.
func TestExplainAnalyzeJoinOperators(t *testing.T) {
	e, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE a (id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE b (id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE c (id int, v int) DISTRIBUTED BY (id)")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO b VALUES (%d, %d)", i, i*2))
		mustExec(t, s, fmt.Sprintf("INSERT INTO c VALUES (%d, %d)", i, i*3))
	}
	res := mustExec(t, s,
		"EXPLAIN ANALYZE SELECT a.id, b.v, c.v FROM a JOIN b ON a.id = b.id JOIN c ON a.id = c.id")
	lines := planText(res)
	if !containsLine(lines, "actual rows=") {
		t.Fatalf("no actual stats in plan:\n%s", strings.Join(lines, "\n"))
	}
	// Per-segment operator detail: at least two distinct segments reported.
	segSeen := map[string]bool{}
	for _, l := range lines {
		trimmed := strings.TrimSpace(l)
		for seg := 0; seg < 3; seg++ {
			if strings.HasPrefix(trimmed, fmt.Sprintf("seg%d: rows=", seg)) {
				segSeen[fmt.Sprintf("seg%d", seg)] = true
			}
		}
	}
	if len(segSeen) < 2 {
		t.Fatalf("per-segment detail covers %d segments, want >= 2:\n%s", len(segSeen), strings.Join(lines, "\n"))
	}
	if !containsLine(lines, "skew=") {
		t.Fatalf("no skew ratio in plan:\n%s", strings.Join(lines, "\n"))
	}
	var rows int64
	if _, err := fmt.Sscanf(lastMatching(lines, "rows: "), "rows: %d", &rows); err != nil {
		t.Fatalf("no rows footer: %v\n%s", err, strings.Join(lines, "\n"))
	}
	if rows != 40 {
		t.Fatalf("rows footer = %d, want 40", rows)
	}

	// The finished query must be retained in gp_stat_queries with totals
	// matching what EXPLAIN ANALYZE printed.
	hist := e.Activity().History(0)
	var found bool
	for _, r := range hist {
		if strings.Contains(r.SQL, "EXPLAIN ANALYZE SELECT a.id") {
			found = true
			if r.Rows != rows {
				t.Fatalf("gp_stat_queries rows = %d, EXPLAIN ANALYZE printed %d", r.Rows, rows)
			}
			if r.Err != "" {
				t.Fatalf("retained record has error %q", r.Err)
			}
		}
	}
	if !found {
		t.Fatalf("EXPLAIN ANALYZE statement not retained in history (%d records)", len(hist))
	}
}

func lastMatching(lines []string, prefix string) string {
	out := ""
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), prefix) {
			out = strings.TrimSpace(l)
		}
	}
	return out
}

// TestExplainAnalyzeDML checks the write-side EXPLAIN ANALYZE: the statement
// executes for real, reports a per-segment rows-affected breakdown, and the
// timing footer is non-negative (monotonic clock).
func TestExplainAnalyzeDML(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE w (id int, v int) DISTRIBUTED BY (id)")

	if got := strings.Join(planText(mustExec(t, s, "EXPLAIN INSERT INTO w VALUES ($1, 2)", types.NewInt(1))), "\n"); got != "Insert on w\n  -> Result" {
		t.Fatalf("EXPLAIN INSERT:\n%s", got)
	}
	res := mustExec(t, s, "EXPLAIN ANALYZE INSERT INTO w VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	lines := planText(res)
	if !containsLine(lines, "rows affected: 4") {
		t.Fatalf("insert: want 'rows affected: 4' in:\n%s", strings.Join(lines, "\n"))
	}
	segRows := 0
	for _, l := range lines {
		var seg, n int
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "seg%d: rows=%d", &seg, &n); err == nil {
			segRows += n
		}
	}
	if segRows != 4 {
		t.Fatalf("insert: per-segment rows sum to %d, want 4:\n%s", segRows, strings.Join(lines, "\n"))
	}
	// The write really happened.
	if got := mustExec(t, s, "SELECT count(*) FROM w").Rows[0][0].Int(); got != 4 {
		t.Fatalf("after EXPLAIN ANALYZE INSERT: count = %d, want 4", got)
	}

	res = mustExec(t, s, "EXPLAIN ANALYZE UPDATE w SET v = v + 1 WHERE id <= 2")
	lines = planText(res)
	if !containsLine(lines, "rows affected: 2") {
		t.Fatalf("update: want 'rows affected: 2' in:\n%s", strings.Join(lines, "\n"))
	}

	res = mustExec(t, s, "EXPLAIN ANALYZE DELETE FROM w WHERE id = 3")
	lines = planText(res)
	if !containsLine(lines, "rows affected: 1") {
		t.Fatalf("delete: want 'rows affected: 1' in:\n%s", strings.Join(lines, "\n"))
	}
	for _, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "execution time: ") {
			var ms float64
			if _, err := fmt.Sscanf(strings.TrimSpace(l), "execution time: %f ms", &ms); err != nil || ms < 0 {
				t.Fatalf("bad timing footer %q (ms=%v err=%v)", l, ms, err)
			}
		}
	}
}

// TestGpStatActivityAndQueries exercises the live session view and the
// finished-query ring through plain SQL.
func TestGpStatActivityAndQueries(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, s, "SELECT * FROM t")

	res := mustExec(t, s, "SHOW gp_stat_activity")
	if len(res.Rows) < 1 {
		t.Fatal("gp_stat_activity is empty")
	}
	// Our own session is active (running the SHOW) with a statement count.
	var active bool
	for _, r := range res.Rows {
		if r[2].Text() == "active" && strings.Contains(r[3].Text(), "gp_stat_activity") {
			active = true
			if r[5].Int() < 3 {
				t.Fatalf("statements = %d, want >= 3", r[5].Int())
			}
		}
	}
	if !active {
		t.Fatalf("own session not shown active: %v", res.Rows)
	}

	res = mustExec(t, s, "SHOW gp_stat_queries")
	if !rowsContain(res, "SELECT * FROM t") {
		t.Fatalf("gp_stat_queries misses the SELECT: %v", res.Rows)
	}
	for _, r := range res.Rows {
		if strings.Contains(r[2].Text(), "SELECT * FROM t") && r[3].Int() != 3 {
			t.Fatalf("retained SELECT rows = %d, want 3", r[3].Int())
		}
	}
}

func rowsContain(res *Result, substr string) bool {
	for _, r := range res.Rows {
		for _, d := range r {
			if strings.Contains(d.Text(), substr) {
				return true
			}
		}
	}
	return false
}

// TestGpStatMetrics checks the registry view carries the query counters and
// the histogram expansion.
func TestGpStatMetrics(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO t VALUES (1)")

	res := mustExec(t, s, "SHOW gp_stat_metrics")
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].Text()] = r[1].Int()
	}
	if vals["query.statements"] < 2 {
		t.Fatalf("query.statements = %d, want >= 2 (all: %d series)", vals["query.statements"], len(vals))
	}
	if _, ok := vals["query.seconds.count"]; !ok {
		t.Fatal("histogram query.seconds not expanded to .count/.sum_ms")
	}
	if vals["cluster.segments"] != 2 {
		t.Fatalf("cluster.segments = %d, want 2", vals["cluster.segments"])
	}
}

// TestTraceQueries turns tracing on, runs a distributed query, and checks the
// span tree is retained, complete (parse/plan/execute plus per-segment
// slices), and leak-free.
func TestTraceQueries(t *testing.T) {
	e, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	for i := 0; i < 12; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i))
	}
	mustExec(t, s, "SET trace_queries on")
	mustExec(t, s, "SELECT a, b FROM t ORDER BY a")
	mustExec(t, s, "SET trace_queries off")

	traces := e.Activity().Traces().Recent(0)
	if len(traces) == 0 {
		t.Fatal("no traces retained")
	}
	var sel []string
	for _, tr := range traces {
		if strings.Contains(tr.SQL, "ORDER BY a") {
			sel = tr.Render()
			if n := tr.OpenSpans(); n != 0 {
				t.Fatalf("trace leaked %d open spans:\n%s", n, strings.Join(sel, "\n"))
			}
		}
	}
	if sel == nil {
		t.Fatalf("SELECT trace not retained (%d traces)", len(traces))
	}
	for _, want := range []string{"query", "plan", "execute"} {
		if !containsLine(sel, want) {
			t.Fatalf("span %q missing from trace:\n%s", want, strings.Join(sel, "\n"))
		}
	}
	if !containsLine(sel, "seg") {
		t.Fatalf("no per-segment span in trace:\n%s", strings.Join(sel, "\n"))
	}

	// The same tree must be visible through SQL.
	res := mustExec(t, s, "SHOW gp_stat_traces")
	if !rowsContain(res, "execute") {
		t.Fatalf("gp_stat_traces misses execute span: %v", res.Rows)
	}
}

// TestSlowQueryLog checks SET log_min_duration 0 flags every statement slow
// and -1 disables the log again.
func TestSlowQueryLog(t *testing.T) {
	e, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "SET log_min_duration 0")
	mustExec(t, s, "INSERT INTO t VALUES (1)")
	mustExec(t, s, "SET log_min_duration -1")
	mustExec(t, s, "INSERT INTO t VALUES (2)")

	slow := e.Activity().SlowQueries(0)
	var logged, loggedAfterOff bool
	for _, r := range slow {
		if strings.Contains(r.SQL, "VALUES (1)") {
			logged = true
		}
		if strings.Contains(r.SQL, "VALUES (2)") {
			loggedAfterOff = true
		}
	}
	if !logged {
		t.Fatalf("statement under log_min_duration 0 not in slow log (%d entries)", len(slow))
	}
	if loggedAfterOff {
		t.Fatal("statement logged slow after log_min_duration -1")
	}
	res := mustExec(t, s, "SHOW gp_slow_queries")
	if !rowsContain(res, "VALUES (1)") {
		t.Fatalf("SHOW gp_slow_queries misses the entry: %v", res.Rows)
	}
}

// TestObsSettingValidation covers the SET knobs' error paths and SHOW
// defaults.
func TestObsSettingValidation(t *testing.T) {
	_, s := newTestEngine(t, 2)
	ctx := context.Background()
	if _, err := s.Exec(ctx, "SET trace_queries maybe"); err == nil {
		t.Fatal("SET trace_queries maybe: want error")
	}
	if _, err := s.Exec(ctx, "SET log_min_duration never"); err == nil {
		t.Fatal("SET log_min_duration never: want error")
	}
	if _, err := s.Exec(ctx, "SET log_min_duration -5"); err == nil {
		t.Fatal("SET log_min_duration -5: want error")
	}
	if v := mustExec(t, s, "SHOW trace_queries").Rows[0][0].Text(); v != "off" {
		t.Fatalf("default trace_queries = %q, want off", v)
	}
	if v := mustExec(t, s, "SHOW log_min_duration").Rows[0][0].Text(); v != "-1" {
		t.Fatalf("default log_min_duration = %q, want -1", v)
	}
}

// TestQuerySecondsHistogram checks statement latencies land in the engine's
// query.seconds histogram.
func TestQuerySecondsHistogram(t *testing.T) {
	e, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	for i := 0; i < 5; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	snap := e.Metrics().Snapshot()
	h, ok := snap.Hists["query.seconds"]
	if !ok {
		t.Fatal("query.seconds histogram missing from snapshot")
	}
	if h.Count < 6 {
		t.Fatalf("query.seconds count = %d, want >= 6", h.Count)
	}
	if h.Sum <= 0 {
		t.Fatalf("query.seconds sum = %v, want > 0", h.Sum)
	}
	_ = time.Now()
}
