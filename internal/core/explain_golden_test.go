package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain.golden from this run")

// timingRE matches the only wall-clock figures EXPLAIN ANALYZE prints: an
// operator's time= and the execution-time footer.
var timingRE = regexp.MustCompile(`time=[0-9.]+ms|execution time: [0-9.]+ ms`)

// costRE matches a node line's estimate annotation, up to where EXPLAIN
// ANALYZE appends its actual= figure.
var costRE = regexp.MustCompile(`\(cost=[0-9.]+ rows=[0-9]+ ±[0-9]+`)

// nodeCosts lists the estimate annotation of each node line of a rendered
// plan, "" for a node printed without one; per-segment detail lines and the
// ANALYZE footers are not nodes.
func nodeCosts(lines []string) []string {
	var out []string
	for i, l := range lines {
		if i == 0 || strings.HasPrefix(strings.TrimLeft(l, " "), "-> ") {
			out = append(out, costRE.FindString(l))
		}
	}
	return out
}

// TestExplainGolden pins the exact EXPLAIN and EXPLAIN ANALYZE text of a
// fixed statement set on 3 segments under both optimizers, with the
// wall-clock figures scrubbed: the node lines, the cost and actual
// annotations, and the per-segment detail lines under the root and under
// nodes deeper in the tree. EXPLAIN and EXPLAIN ANALYZE of one statement
// must carry the same estimates, node by node. Refresh with go test -run
// TestExplainGolden ./internal/core/ -update, and read the diff.
func TestExplainGolden(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE kv (id int, val int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE INDEX kv_id ON kv (id)")
	mustExec(t, s, "CREATE TABLE dim (id int, tag int) DISTRIBUTED BY (tag)")
	mustExec(t, s, "CREATE TABLE col (a int, b int, c int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "kv", 300, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%17) })
	bulkInsert(t, s, "dim", 17, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%5) })
	bulkInsert(t, s, "col", 600, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%7, i%3) })
	mustExec(t, s, "ANALYZE kv")
	mustExec(t, s, "ANALYZE col")

	stmts := []string{
		"SELECT val FROM kv WHERE id = 3",
		"SELECT id FROM kv WHERE val < 4",
		"SELECT count(*) FROM col WHERE b = 2",
		"SELECT b, count(*), sum(c) FROM col GROUP BY b",
		"SELECT kv.id, dim.tag FROM kv JOIN dim ON kv.val = dim.id WHERE kv.id < 40",
		"SELECT a FROM col ORDER BY a DESC LIMIT 5",
		"UPDATE kv SET val = val + 1 WHERE id = 7",
		"UPDATE kv SET val = val + 1 WHERE val = 3",
		"INSERT INTO kv VALUES (1000, 1), (1001, 2)",
		"INSERT INTO dim SELECT id, val FROM kv WHERE id < 10",
		"DELETE FROM kv WHERE id >= 1000",
	}
	var b strings.Builder
	for _, opt := range []string{"postgres", "orca"} {
		if err := s.SetOptimizer(opt); err != nil {
			t.Fatal(err)
		}
		for _, q := range stmts {
			var costs [2][]string
			for v, verb := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
				fmt.Fprintf(&b, "-- %s: %s%s\n", opt, verb, q)
				lines := planText(mustExec(t, s, verb+q))
				costs[v] = nodeCosts(lines)
				for _, l := range lines {
					b.WriteString(timingRE.ReplaceAllStringFunc(l, func(m string) string {
						if strings.HasPrefix(m, "time=") {
							return "time=*"
						}
						return "execution time: *"
					}))
					b.WriteByte('\n')
				}
			}
			if !slices.Equal(costs[0], costs[1]) {
				t.Errorf("%s: %s: EXPLAIN estimates %q, EXPLAIN ANALYZE %q", opt, q, costs[0], costs[1])
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("EXPLAIN text differs from %s at line %d:\n got: %q\nwant: %q\nwhole text:\n%s", path, i+1, g, w, got)
			}
		}
	}
}
