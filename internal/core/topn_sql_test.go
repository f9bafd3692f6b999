package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestTopNMatchesFullSort: ORDER BY … LIMIT k OFFSET m, whose per-segment
// sorts keep only their first k + m rows, returns exactly the full ORDER BY's
// rows sliced in Go — over heap, AO-row and AO-column tables, with and
// without a tiny spill budget (under which a large top-N outgrows the heap
// and falls back to the full, spilling sort). The first sort key has runs of
// 97 ties, better runs arriving later, so a kept tie is evicted again and
// again. Over a table spread across the segments later keys break them; a copy of it on one segment, scanned in
// insertion order (k), leaves them to the sort, which must keep the rows
// that arrived first, exactly as a stable sort does. LIMIT 0, an OFFSET past
// the end and a cached $1 LIMIT template bound with two values are covered.
func TestTopNMatchesFullSort(t *testing.T) {
	const nRows = 10000
	// One pipeline per slice is the only degree the executor runs; the
	// subtest keeps the dop1 name it had beside the parallel runs.
	t.Run("dop1", func(t *testing.T) {
		e, constrained, admin := newSpillEngine(t, 2)
		tables := map[string]string{"th": "", "tr": " WITH (appendonly=true)", "tc": " WITH (appendonly=true, orientation=column)"}
		for tab, with := range tables {
			for _, dist := range []string{"k", "z"} {
				mustExec(t, admin, "CREATE TABLE "+tab+dist+" (k int, v int, w text, z int)"+with+" DISTRIBUTED BY ("+dist+")")
				bulkInsert(t, admin, tab+dist, nRows, 0, func(i int) string {
					return fmt.Sprintf("(%d,%d,'w%03d',0)", i, (nRows-1-i)/97, (i*7)%50)
				})
			}
		}
		if !strings.Contains(rowsText(mustExec(t, admin, "EXPLAIN SELECT k FROM tck ORDER BY v, k LIMIT 10")), "Sort (top 10)") {
			t.Fatal("EXPLAIN shows no per-segment top-N sort")
		}
		spills0 := metric(e.Metrics(), "exec.spill.events")
		for tab := range tables {
			full := mustExec(t, admin, "SELECT k, v, w FROM "+tab+"k ORDER BY v DESC, w, k").Rows
			stable := mustExec(t, admin, "SELECT k, v FROM "+tab+"z ORDER BY v, k").Rows
			for _, s := range []*Session{admin, constrained} {
				for _, lim := range []struct{ k, m int }{{10, 0}, {100, 7}, {1, 0}, {0, 0}, {0, 3}, {50, nRows - 20}, {5, nRows + 5}, {3000, 100}} {
					q := fmt.Sprintf("SELECT k, v, w FROM %sk ORDER BY v DESC, w, k LIMIT %d OFFSET %d", tab, lim.k, lim.m)
					requireSlice(t, q, mustExec(t, s, q).Rows, full, lim.k, lim.m)
					q = fmt.Sprintf("SELECT k, v FROM %sz ORDER BY v LIMIT %d OFFSET %d", tab, lim.k, lim.m)
					requireSlice(t, q, mustExec(t, s, q).Rows, stable, lim.k, lim.m)
				}
				q := "SELECT k, v, w FROM " + tab + "k ORDER BY v DESC, w, k LIMIT $1 OFFSET $2"
				before := metric(e.Metrics(), "plancache.plan_hits")
				for _, lim := range []struct{ k, m int }{{20, 5}, {200, 0}, {200, 0}} {
					rows := mustExec(t, s, q, types.NewInt(int64(lim.k)), types.NewInt(int64(lim.m))).Rows
					requireSlice(t, fmt.Sprintf("%s [$1=%d $2=%d]", q, lim.k, lim.m), rows, full, lim.k, lim.m)
				}
				if hits := metric(e.Metrics(), "plancache.plan_hits") - before; hits < 2 {
					t.Fatalf("%s: %d plan hits in three runs, want the template reused", q, hits)
				}
			}
		}
		if metric(e.Metrics(), "exec.spill.events") == spills0 {
			t.Fatal("no top-N spilled under the tiny budget")
		}
	})
}

// requireSlice checks that got is want[m : m+k], clipped to want's length.
func requireSlice(t *testing.T, q string, got, want []types.Row, k, m int) {
	t.Helper()
	lo, hi := min(m, len(want)), min(m+k, len(want))
	want = want[lo:hi]
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", q, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", q, i, got[i], want[i])
		}
	}
}
