package core

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

// loadAnalyticsTable creates an AO-column table and bulk-loads nRows rows.
func loadAnalyticsTable(t *testing.T, s *Session, nRows int) {
	t.Helper()
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE f (a int, g int, w int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < nRows; off += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO f VALUES ")
		for i := off; i < off+1000 && i < nRows; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%d)", i, i%37, i%7)
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelSQLMatchesSerial runs the same analytical query on a serial and
// a parallel cluster and requires byte-identical results — the acceptance
// property of intra-segment parallelism.
func TestParallelSQLMatchesSerial(t *testing.T) {
	const nRows = 12000
	query := "SELECT g, count(*), sum(a), min(a), max(a) FROM f WHERE w < 5 GROUP BY g"
	results := map[int][]types.Row{}
	for _, dop := range []int{1, 4} {
		cfg := cluster.GPDB6(2)
		cfg.ExecParallelism = dop
		e := NewEngine(cfg)
		s, _ := e.NewSession("")
		loadAnalyticsTable(t, s, nRows)
		res, err := s.Exec(context.Background(), query)
		if err != nil {
			e.Close()
			t.Fatal(err)
		}
		results[dop] = res.Rows
		e.Close()
	}
	if len(results[1]) != 37 {
		t.Fatalf("groups: %d", len(results[1]))
	}
	if len(results[1]) != len(results[4]) {
		t.Fatalf("row counts differ: serial=%d parallel=%d", len(results[1]), len(results[4]))
	}
	for i := range results[1] {
		if !results[1][i].Equal(results[4][i]) {
			t.Fatalf("row %d differs: serial=%v parallel=%v", i, results[1][i], results[4][i])
		}
	}
}

// TestParallelExplainAnnotation: the planner annotates parallel-safe slices
// and EXPLAIN surfaces the degree; SET exec_parallelism overrides per session.
func TestParallelExplainAnnotation(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.ExecParallelism = 4
	e := NewEngine(cfg)
	defer e.Close()
	s, _ := e.NewSession("")
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE f (a int, g int) DISTRIBUTED BY (a)"); err != nil {
		t.Fatal(err)
	}
	explain := func() string {
		res, err := s.Exec(ctx, "EXPLAIN SELECT g, count(*) FROM f GROUP BY g")
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, r := range res.Rows {
			sb.WriteString(r[0].Text())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	if out := explain(); !strings.Contains(out, "parallel 4") {
		t.Fatalf("EXPLAIN lacks parallel annotation:\n%s", out)
	}
	if _, err := s.Exec(ctx, "SET exec_parallelism = 1"); err != nil {
		t.Fatal(err)
	}
	if out := explain(); strings.Contains(out, "parallel") {
		t.Fatalf("SET exec_parallelism=1 did not disable annotation:\n%s", out)
	}
	// A FOR UPDATE scan must never be annotated.
	res, err := s.Exec(ctx, "SET exec_parallelism = 8")
	_ = res
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Exec(ctx, "EXPLAIN SELECT * FROM f FOR UPDATE")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Rows {
		if strings.Contains(r[0].Text(), "parallel") {
			t.Fatalf("FOR UPDATE slice annotated parallel: %v", r)
		}
	}
}

// TestParallelExplainAnalyzeActuals: a slice that runs as parallel worker
// pipelines reports the same per-node actual rows, in total and per segment,
// as the serial run — scan/filter/project counted inside the workers, the
// aggregate once per segment at the merge above them — for an aggregating
// slice and a scan-only (ordered) one.
func TestParallelExplainAnalyzeActuals(t *testing.T) {
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	loadAnalyticsTable(t, s, 40000)
	mustExec(t, s, "ANALYZE f")
	// What a run says about rows: per node "actual=N"/"actual rows=N", per
	// segment "segN: rows=N". Times, batch counts and the motion's
	// "; parallel 4" label legitimately differ.
	rowsRe := regexp.MustCompile(`actual=\d+|actual rows=\d+|seg\d+: rows=\d+`)
	actuals := func(q string, dop int) []string {
		mustExec(t, s, fmt.Sprintf("SET exec_parallelism = %d", dop))
		var out []string
		for _, l := range planText(mustExec(t, s, "EXPLAIN ANALYZE "+q)) {
			if m := rowsRe.FindAllString(l, -1); m != nil {
				out = append(out, strings.Join(m, " "))
			}
		}
		return out
	}
	for _, q := range []string{
		"SELECT g, count(*), sum(a) FROM f WHERE a % 2 = 0 GROUP BY g",
		"SELECT a, w FROM f WHERE a % 2 = 0",
	} {
		serial, parallel := actuals(q, 1), actuals(q, 4)
		if !containsLine(serial, "actual=20000") || !containsLine(serial, "seg1: rows=") {
			t.Fatalf("%s: serial run lacks the scan's actuals:\n%s", q, strings.Join(serial, "\n"))
		}
		if strings.Join(serial, "\n") != strings.Join(parallel, "\n") {
			t.Fatalf("%s: actual rows differ.\nexec_parallelism 1:\n%s\nexec_parallelism 4:\n%s",
				q, strings.Join(serial, "\n"), strings.Join(parallel, "\n"))
		}
	}
}

// TestSegmentBlockCacheWarmsAcrossQueries: the second identical scan should
// be served from the segments' decoded-block caches.
func TestSegmentBlockCacheWarmsAcrossQueries(t *testing.T) {
	cfg := cluster.GPDB6(2)
	e := NewEngine(cfg)
	defer e.Close()
	s, _ := e.NewSession("")
	loadAnalyticsTable(t, s, 12000)
	ctx := context.Background()
	q := "SELECT g, sum(a) FROM f GROUP BY g"
	if _, err := s.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	var coldHits, coldMisses int64
	for _, seg := range e.Cluster().Segments() {
		st := seg.BlockCacheStats()
		coldHits += st.Hits
		coldMisses += st.Misses
	}
	if coldMisses == 0 {
		t.Fatal("first scan produced no cache misses — cache not wired?")
	}
	if _, err := s.Exec(ctx, q); err != nil {
		t.Fatal(err)
	}
	var warmHits int64
	for _, seg := range e.Cluster().Segments() {
		warmHits += seg.BlockCacheStats().Hits
	}
	if warmHits <= coldHits {
		t.Fatalf("second scan did not hit the block cache: cold=%d warm=%d", coldHits, warmHits)
	}
	// DROP TABLE must release the table's cached blocks.
	if _, err := s.Exec(ctx, "DROP TABLE f"); err != nil {
		t.Fatal(err)
	}
	for i, seg := range e.Cluster().Segments() {
		if st := seg.BlockCacheStats(); st.Entries != 0 || st.UsedBytes != 0 {
			t.Fatalf("segment %d cache retains dropped table's blocks: %+v", i, st)
		}
	}
}
