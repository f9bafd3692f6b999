package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

// loadStarSchema creates a small star: fact (nFact rows, join key m),
// mid (nMid rows, keyed by id, foreign key s into small) and small (nSmall
// rows). Distribution keys are chosen so the joins are misaligned and the
// planner must move data.
func loadStarSchema(t *testing.T, s *Session, engine string, nFact, nMid, nSmall int) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE fact (a int, m int, v int)"+engine+" DISTRIBUTED BY (a)")
	mustExec(t, s, "CREATE TABLE mid (id int, s int, w int)"+engine+" DISTRIBUTED BY (w)")
	mustExec(t, s, "CREATE TABLE small (id int, tag int)"+engine+" DISTRIBUTED BY (tag)")
	bulkInsert(t, s, "fact", nFact, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%nMid, i%151) })
	bulkInsert(t, s, "mid", nMid, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%nSmall, i*7) })
	bulkInsert(t, s, "small", nSmall, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%13) })
}

// TestCostOptOnOffResultEquality: the same join queries return byte-identical
// results under the cost-based optimizer (orca) and the rule-based one
// (postgres), across all three storage engines — the acceptance property of
// plan-shape-only optimization. Queries are ordered so the reordered plans'
// different emission order cannot hide behind set equality.
func TestCostOptOnOffResultEquality(t *testing.T) {
	queries := []string{
		"SELECT fact.a, mid.s FROM fact JOIN mid ON fact.m = mid.id WHERE fact.v < 20 ORDER BY fact.a",
		"SELECT fact.a, small.tag FROM fact JOIN mid ON fact.m = mid.id JOIN small ON mid.s = small.id WHERE small.id < 3 ORDER BY fact.a LIMIT 200",
		"SELECT small.tag, count(*), sum(fact.v) FROM fact JOIN mid ON fact.m = mid.id JOIN small ON mid.s = small.id GROUP BY small.tag ORDER BY small.tag",
		"SELECT count(*) FROM fact JOIN mid ON fact.m = mid.id WHERE mid.s = 3 AND fact.v >= 100",
		"SELECT mid.id, small.tag FROM mid JOIN small ON mid.s = small.id WHERE small.tag <= 2 ORDER BY mid.id, small.tag",
	}
	engines := map[string]string{
		"heap":   "",
		"ao-row": " WITH (appendonly=true)",
		"ao-col": " WITH (appendonly=true, orientation=column)",
	}
	for engName, engine := range engines {
		_, s := newTestEngine(t, 2)
		loadStarSchema(t, s, engine, 4000, 100, 10)
		mustExec(t, s, "ANALYZE")
		results := map[string]map[string][]types.Row{}
		for _, opt := range []string{"postgres", "orca"} {
			mustExec(t, s, "SET optimizer = "+opt)
			byQuery := map[string][]types.Row{}
			for _, q := range queries {
				byQuery[q] = mustExec(t, s, q).Rows
			}
			results[opt] = byQuery
		}
		for _, q := range queries {
			want, got := results["postgres"][q], results["orca"][q]
			if len(want) != len(got) {
				t.Fatalf("%s (%s): orca %d rows, postgres %d", q, engName, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("%s (%s) row %d: orca %v, postgres %v", q, engName, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCostOptShrinksIntermediateRows: two 10k-row tables sharing a 100-value
// join key (their pairwise join is 1M rows) and a 100-row dimension whose
// filter keeps three rows. The rule-based planner (postgres) joins in the
// written order, the two big tables first; orca's cost-based order joins
// through the filtered dimension. Per EXPLAIN ANALYZE, the largest row count
// any node produces under orca must be at most a tenth of the count under
// postgres, and both orders must return the same answer.
func TestCostOptShrinksIntermediateRows(t *testing.T) {
	const q = "SELECT count(*) FROM big1 JOIN big2 ON big1.j = big2.j JOIN small ON big2.s = small.id WHERE small.id < 3"
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE TABLE big1 (a int, j int) DISTRIBUTED BY (a)")
	mustExec(t, s, "CREATE TABLE big2 (id int, j int, s int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE small (id int, tag int) DISTRIBUTED BY (tag)")
	bulkInsert(t, s, "big1", 10000, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%100) })
	bulkInsert(t, s, "big2", 10000, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%100, i%100) })
	bulkInsert(t, s, "small", 100, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%13) })
	mustExec(t, s, "ANALYZE")

	run := func(optimizer string) (answer, peak int64, plan string) {
		mustExec(t, s, "SET optimizer = "+optimizer)
		answer = mustExec(t, s, q).Rows[0][0].Int()
		var lines []string
		for _, r := range mustExec(t, s, "EXPLAIN ANALYZE "+q).Rows {
			l := r[0].Text()
			lines = append(lines, l)
			for _, m := range actualRowsRE.FindAllStringSubmatch(l, -1) {
				n, _ := strconv.ParseInt(m[1], 10, 64)
				peak = max(peak, n)
			}
		}
		return answer, peak, strings.Join(lines, "\n")
	}
	pgAnswer, pgPeak, pgPlan := run("postgres")
	orcaAnswer, orcaPeak, orcaPlan := run("orca")
	if orcaAnswer != pgAnswer {
		t.Fatalf("orca answer %d, postgres %d", orcaAnswer, pgAnswer)
	}
	if orcaPeak == 0 || orcaPeak*10 > pgPeak {
		t.Fatalf("largest node output: orca %d rows, postgres %d rows, want <= 1/10\norca:\n%s\npostgres:\n%s",
			orcaPeak, pgPeak, orcaPlan, pgPlan)
	}
}

// TestAnalyzeAndExplainCosts: ANALYZE fills the catalog statistics, EXPLAIN
// shows per-node cost/rows/error-bound annotations, un-analyzed tables are
// flagged stats=none, and writes invalidate the statistics.
func TestAnalyzeAndExplainCosts(t *testing.T) {
	_, s := newTestEngine(t, 2)
	loadStarSchema(t, s, "", 2000, 100, 10)
	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}

	q := "SELECT fact.a, mid.s FROM fact JOIN mid ON fact.m = mid.id WHERE fact.v < 20 ORDER BY fact.a"
	txt := explainText(t, s, q)
	if !strings.Contains(txt, "cost=") || !strings.Contains(txt, "rows=") || !strings.Contains(txt, "±") {
		t.Fatalf("EXPLAIN lacks cost annotations:\n%s", txt)
	}
	if !strings.Contains(txt, "stats=none") {
		t.Fatalf("un-analyzed scans should be flagged stats=none:\n%s", txt)
	}

	res := mustExec(t, s, "ANALYZE")
	if res.Tag != "ANALYZE" {
		t.Fatalf("tag: %q", res.Tag)
	}
	txt = explainText(t, s, q)
	if strings.Contains(txt, "stats=none") {
		t.Fatalf("analyzed scans still flagged stats=none:\n%s", txt)
	}

	showStat := func(name string) int64 {
		t.Helper()
		res := mustExec(t, s, "SHOW optimizer_stats")
		for _, r := range res.Rows {
			if r[0].Text() == name {
				return r[1].Int()
			}
		}
		t.Fatalf("stat %q missing", name)
		return 0
	}
	if got := showStat("analyzed_tables"); got != 3 {
		t.Fatalf("analyzed_tables = %d, want 3", got)
	}

	// A write invalidates the statistics; the scans degrade to stats=none
	// until the next ANALYZE.
	mustExec(t, s, "INSERT INTO fact VALUES (100001, 1, 1)")
	txt = explainText(t, s, q)
	if !strings.Contains(txt, "stats=none") {
		t.Fatalf("stale statistics should be flagged stats=none:\n%s", txt)
	}
	mustExec(t, s, "ANALYZE fact")
	txt = explainText(t, s, q)
	if strings.Contains(txt, "stats=none") {
		t.Fatalf("re-analyzed scan still flagged stats=none:\n%s", txt)
	}

	// EXPLAIN ANALYZE reports estimated vs actual rows per node.
	out := mustExec(t, s, "EXPLAIN ANALYZE "+q)
	var joined strings.Builder
	for _, r := range out.Rows {
		joined.WriteString(r[0].Text())
		joined.WriteByte('\n')
	}
	if !strings.Contains(joined.String(), "actual=") {
		t.Fatalf("EXPLAIN ANALYZE lacks actual= annotations:\n%s", joined.String())
	}
}

// TestMisestimateTriggersRobustFallback: a perfectly correlated conjunction
// breaks the independence assumption, the executor catches the actual
// cardinality outside the estimate's error bound, and the next execution of
// the same statement falls back to the robust plan.
func TestMisestimateTriggersRobustFallback(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE corr (a int, b int) DISTRIBUTED BY (a)")
	// b == a exactly: P(a<1000 AND b<1000) is 0.2, not the 0.04 the
	// independence assumption predicts.
	bulkInsert(t, s, "corr", 5000, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i) })
	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "ANALYZE corr")

	showStat := func(name string) int64 {
		t.Helper()
		res := mustExec(t, s, "SHOW optimizer_stats")
		for _, r := range res.Rows {
			if r[0].Text() == name {
				return r[1].Int()
			}
		}
		t.Fatalf("stat %q missing", name)
		return 0
	}

	q := "SELECT count(*) FROM corr WHERE a < 1000 AND b < 1000"
	res := mustExec(t, s, q)
	if got := res.Rows[0][0].Int(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got := showStat("misestimates"); got < 1 {
		t.Fatalf("correlated predicate recorded no misestimate")
	}
	if got := showStat("robust_fallbacks"); got != 0 {
		t.Fatalf("first execution should not have used the robust plan (fallbacks=%d)", got)
	}

	// Same statement again: the planner sees the recorded misestimate and
	// switches to the robust plan; results are unchanged.
	res = mustExec(t, s, q)
	if got := res.Rows[0][0].Int(); got != 1000 {
		t.Fatalf("robust re-run count = %d, want 1000", got)
	}
	if got := showStat("robust_fallbacks"); got < 1 {
		t.Fatalf("second execution did not fall back to the robust plan")
	}

	// A well-estimated query on the same table records nothing, nor does
	// an ORDER BY … LIMIT, whose per-segment top-N sorts each emit up to
	// the limit.
	before := showStat("misestimates")
	mustExec(t, s, "SELECT count(*) FROM corr WHERE a < 1000")
	mustExec(t, s, "SELECT a FROM corr ORDER BY b LIMIT 10")
	if got := showStat("misestimates"); got != before {
		t.Fatalf("well-estimated query recorded a misestimate (%d -> %d)", before, got)
	}
}
