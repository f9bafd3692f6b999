package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

// vectorCols are the columns of loadVectorTables' tables, in order.
var vectorCols = []string{"k", "g", "d", "q", "amt", "tag", "ok", "day", "mix"}

// TestJoinOutputMatchesStarProjection checks the pruned joins against the
// unpruned one: SELECT * over a join keeps every column (Out == nil, scans
// whole), so projecting, grouping and sorting its rows here in Go is an
// oracle for the same FROM clause read through a select list that lets the
// planner prune. Shapes: inner and LEFT, a residual comparing both sides, an
// expression key, a join under a join, a nested loop, AO-column on either
// side, a boxed mixed-kind column as join output, NULL keys, and unmatched
// LEFT rows whose right side an aggregate reads — under orca, whose
// cost-based passes reorder and re-project, and under the postgres planner.
func TestJoinOutputMatchesStarProjection(t *testing.T) {
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	loadVectorTables(t, s)
	mustExec(t, s, "CREATE TABLE sm (k int, g int, d int, q int, amt float, tag text, ok bool, day date, mix float) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO sm SELECT * FROM fh WHERE k < 40")
	mustExec(t, s, "ANALYZE")
	cases := []struct {
		from string // FROM and WHERE over aliases a, b, c in that order
		cols []int  // offsets into the SELECT * row: alias i's columns start at 9*i
	}{
		{"fh a JOIN fc b ON a.k = b.k WHERE a.q < 5", []int{1, 13, 14}},
		{"fc a JOIN fh b ON a.k = b.k WHERE b.d > 400", []int{16, 8, 0}},
		{"sm a JOIN fc b ON a.g = b.g AND a.q > b.d", []int{0, 9, 12}},
		{"fh a LEFT JOIN fc b ON a.k = b.k + 1 AND b.q > 25 WHERE a.k < 2000", []int{1, 14, 17}},
		{"fc a LEFT JOIN fh b ON a.k = b.k + 1 AND b.q > 25 WHERE a.k < 2000", []int{5, 9}},
		{"fh a JOIN fc b ON a.k = b.k JOIN fh c ON b.g = c.k WHERE a.d < 60", []int{5, 22, 15}},
		{"fc a JOIN sm b ON a.g = b.k JOIN fc c ON c.k = a.k + 1 WHERE a.k < 4000 AND c.q < 30", []int{25, 3, 10}},
		{"fc a LEFT JOIN sm b ON a.q > b.q + 40 AND b.k < 30 WHERE a.k < 1500", []int{0, 14, 17}},
		{"sm a JOIN fh b ON a.k < b.k AND b.k < a.q WHERE a.g > 3", []int{2, 9}},
	}
	name := func(c int) string { return fmt.Sprintf("%c.%s", 'a'+c/len(vectorCols), vectorCols[c%len(vectorCols)]) }
	render := func(rows []types.Row) string { return sortedRows(&Result{Rows: rows}) }
	for _, optimizer := range []string{"orca", "postgres"} {
		mustExec(t, s, "SET optimizer = "+optimizer)
		for _, tc := range cases {
			at := fmt.Sprintf("%s: %s", optimizer, tc.from)
			star := mustExec(t, s, "SELECT * FROM "+tc.from).Rows
			if len(star) == 0 {
				t.Fatalf("%s: the oracle join is empty", at)
			}
			var list []string
			proj := make([]types.Row, len(star))
			for _, c := range tc.cols {
				list = append(list, name(c))
				for i, r := range star {
					proj[i] = append(proj[i], r[c])
				}
			}
			sel := strings.Join(list, ", ")

			if got, want := render(mustExec(t, s, "SELECT "+sel+" FROM "+tc.from).Rows), render(proj); got != want {
				t.Fatalf("%s: SELECT %s\ngot:\n%s\nSELECT * says:\n%s", at, sel, got, want)
			}

			// GROUP BY the first column: count(*) and count(last column).
			type agg struct{ key, n, last types.Datum }
			groups := map[string]*agg{}
			for _, r := range proj {
				g := groups[r[0].String()]
				if g == nil {
					g = &agg{key: r[0], n: types.NewInt(0), last: types.NewInt(0)}
					groups[r[0].String()] = g
				}
				g.n = types.NewInt(g.n.Int() + 1)
				if !r[len(r)-1].IsNull() {
					g.last = types.NewInt(g.last.Int() + 1)
				}
			}
			var want []types.Row
			for _, g := range groups {
				want = append(want, types.Row{g.key, g.n, g.last})
			}
			q := fmt.Sprintf("SELECT %s, count(*), count(%s) FROM %s GROUP BY %s", list[0], list[len(list)-1], tc.from, list[0])
			if got, want := render(mustExec(t, s, q).Rows), render(want); got != want {
				t.Fatalf("%s: %s\ngot:\n%s\nSELECT * says:\n%s", at, q, got, want)
			}

			// Join → sort → limit, ordered by every selected column.
			sort.SliceStable(proj, func(i, j int) bool {
				for c := range proj[i] {
					if cmp := types.Compare(proj[i][c], proj[j][c]); cmp != 0 {
						return cmp < 0
					}
				}
				return false
			})
			q = fmt.Sprintf("SELECT %s FROM %s ORDER BY %s LIMIT 7", sel, tc.from, sel)
			if got, want := rowsText(mustExec(t, s, q)), rowsText(&Result{Rows: proj[:min(7, len(proj))]}); got != want {
				t.Fatalf("%s: %s\ngot:\n%s\nSELECT * says:\n%s", at, q, got, want)
			}
		}
	}
}

// TestGroupByOrdinal: a bare integer in GROUP BY is the position of a select
// item, as in ORDER BY — it used to bind as the constant, putting every row
// in one group. Heap and AO-column.
func TestGroupByOrdinal(t *testing.T) {
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	ctx := context.Background()
	for _, engine := range []string{"", " WITH (appendonly=true, orientation=column)"} {
		mustExec(t, s, "CREATE TABLE t (a int, b int, c int)"+engine+" DISTRIBUTED BY (c)")
		mustExec(t, s, "INSERT INTO t VALUES (1,10,0),(2,20,1),(2,30,2),(3,5,3)")
		bulkInsert(t, s, "t", 9000, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", 10+i%7, i%3, i) })
		if got := rowsText(mustExec(t, s, "SELECT a, sum(b) FROM t WHERE c < 4 AND b > 2 GROUP BY 1 ORDER BY 1")); got != "int:1|int:10\nint:2|int:50\nint:3|int:5\n" {
			t.Fatalf("engine %q: GROUP BY 1 over (1,10),(2,20),(2,30),(3,5):\n%s", engine, got)
		}
		for _, pair := range [][2]string{
			{"SELECT a, sum(b) FROM t GROUP BY 1", "SELECT a, sum(b) FROM t GROUP BY a"},
			{"SELECT a, b, count(*), max(c) FROM t GROUP BY 1, 2", "SELECT a, b, count(*), max(c) FROM t GROUP BY a, b"},
			{"SELECT count(*), a + b FROM t GROUP BY 2", "SELECT count(*), a + b FROM t GROUP BY a + b"},
			{"SELECT b, a FROM t GROUP BY 2, 1 ORDER BY 2 DESC, 1", "SELECT b, a FROM t GROUP BY a, b ORDER BY a DESC, b"},
		} {
			got, want := mustExec(t, s, pair[0]), mustExec(t, s, pair[1])
			if len(want.Rows) < 4 || sortedRows(got) != sortedRows(want) {
				t.Fatalf("engine %q: %s\n%s\n%s\n%s", engine, pair[0], sortedRows(got), pair[1], sortedRows(want))
			}
		}
		for q, want := range map[string]string{
			"SELECT a, sum(b) FROM t GROUP BY 3": "GROUP BY position 3 is not in the select list",
			"SELECT a, sum(b) FROM t GROUP BY 0": "GROUP BY position 0 is not in the select list",
			"SELECT a, sum(b) FROM t GROUP BY 2": "GROUP BY position 2 names an aggregate",
		} {
			if _, err := s.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error %v, want %q", q, err, want)
			}
		}
		mustExec(t, s, "DROP TABLE t")
	}
}

// allocPerRow runs q once to warm caches and plans, then runs times more and
// returns the bytes allocated per run divided by rows.
func allocPerRow(t *testing.T, s *Session, q string, runs, rows int, check func(*Result)) float64 {
	t.Helper()
	check(mustExec(t, s, q))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		check(mustExec(t, s, q))
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*rows)
}

// TestJoinAllocations is the allocation gate of the join, by count and not by
// clock: a warm join-and-aggregate over heap tables that produces 100 000
// joined rows allocates at most 20 bytes per joined row. It was about 1 250
// when the probe built a combined row per match and the "restore column
// order" Project copied it, and about 38 while every heap scan batch was a
// fresh container.
func TestJoinAllocations(t *testing.T) {
	const nOrders, nLines, runs = 500, 100000, 3
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	mustExec(t, s, "CREATE TABLE o (k int, a int, b int, c int, d int, e int, f int) DISTRIBUTED BY (k)")
	mustExec(t, s, "CREATE TABLE l (k int, n int, i int, q int, v float, d int, x int, y int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "o", nOrders, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d,%d,%d,%d,%d)", i, i%10, i%7, i, i, i, i) })
	bulkInsert(t, s, "l", nLines, 0, func(i int) string {
		return fmt.Sprintf("(%d,%d,%d,%d,%d.5,%d,%d,%d)", i%nOrders, i/nOrders, i%100, i%10, i%50, i%365, i, i)
	})
	mustExec(t, s, "ANALYZE")
	if err := s.SetOptimizer("orca"); err != nil { // reorders: l probes, a Project restores the order
		t.Fatal(err)
	}
	q := "SELECT o.k, count(*), sum(l.v) FROM o JOIN l ON o.k = l.k GROUP BY o.k"
	if txt := explainText(t, s, q); !strings.Contains(txt, "Hash Join (Inner)") || !strings.Contains(txt, " Output: v, k") || !strings.Contains(txt, "Project k, a, ") {
		t.Fatalf("want a reordered, pruned hash join:\n%s", txt)
	}
	perRow := allocPerRow(t, s, q, runs, nLines, func(res *Result) {
		if len(res.Rows) != nOrders || res.Rows[0][1].Int() != nLines/nOrders {
			t.Fatalf("%d groups, first %v", len(res.Rows), res.Rows[0])
		}
	})
	t.Logf("%.1f bytes allocated per joined row", perRow)
	if perRow > 20 {
		t.Fatalf("warm join + GROUP BY allocates %.1f bytes per joined row, want <= 20", perRow)
	}
}

// TestJoinBuildAllocations is the build side's allocation gate: a warm join
// whose build side is 60 000 heap rows, probed by 2 000, allocates at most 48
// bytes per build row. It was about 220 while the build side was a map of
// whole rows.
func TestJoinBuildAllocations(t *testing.T) {
	const nBuild, nProbe, runs = 60000, 2000, 3
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	mustExec(t, s, "CREATE TABLE o (k int, a int, b int, c int) DISTRIBUTED BY (k)")
	mustExec(t, s, "CREATE TABLE l (k int, n int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "o", nBuild, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d,%d)", i, i%10, i%7, i) })
	bulkInsert(t, s, "l", nProbe, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i*(nBuild/nProbe), i) })
	q := "SELECT count(*), sum(o.b) FROM l JOIN o ON o.k = l.k"
	if txt := explainText(t, s, q); !strings.Contains(txt, "Hash Join (Inner)") || !strings.Contains(txt, "Seq Scan on o") {
		t.Fatalf("want a hash join building on o:\n%s", txt)
	}
	sum := 0
	for i := 0; i < nProbe; i++ {
		sum += i * (nBuild / nProbe) % 7
	}
	perRow := allocPerRow(t, s, q, runs, nBuild, func(res *Result) {
		if got := rowsText(res); got != fmt.Sprintf("int:%d|int:%d\n", nProbe, sum) {
			t.Fatalf("count and sum: %s", got)
		}
	})
	t.Logf("%.1f bytes allocated per build row", perRow)
	if perRow > 48 {
		t.Fatalf("warm build-heavy join allocates %.1f bytes per build row, want <= 48", perRow)
	}
}

// TestBroadcastJoinSharesRows: a broadcast motion hands every destination its
// own container over the same immutable rows. Several sessions run the same
// broadcast join at once, so under -race every segment of every statement
// reads the rows another is reading; the answer is the one computed here, and
// a warm run allocates no per-destination copy of the broadcast rows (at 4
// segments a deep clone was 4 x 184 bytes a row: the whole statement came to
// about 2 700 bytes per broadcast row, and is about 900 without).
func TestBroadcastJoinSharesRows(t *testing.T) {
	const nDim, nFact = 3000, 12000
	e := NewEngine(cluster.GPDB6(4))
	defer e.Close()
	s, _ := e.NewSession("")
	mustExec(t, s, "CREATE TABLE dim (id int, name text, w int, pad int) DISTRIBUTED BY (w)")
	mustExec(t, s, "CREATE TABLE fact (k int, d int, v int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "dim", nDim, 0, func(i int) string { return fmt.Sprintf("(%d,'n%d',%d,%d)", i, i%5, i*3, i) })
	bulkInsert(t, s, "fact", nFact, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%(nDim+500), i%11) })
	mustExec(t, s, "ANALYZE")
	q := "SELECT dim.name, count(*), sum(fact.v), min(dim.pad) FROM fact JOIN dim ON fact.d = dim.id GROUP BY dim.name ORDER BY dim.name"
	type agg struct{ n, sum, minPad int64 }
	want := map[string]*agg{}
	for i := 0; i < nFact; i++ {
		if d := i % (nDim + 500); d < nDim {
			g := want[fmt.Sprint("n", d%5)]
			if g == nil {
				g = &agg{minPad: int64(d)}
				want[fmt.Sprint("n", d%5)] = g
			}
			g.n, g.sum, g.minPad = g.n+1, g.sum+int64(i%11), min(g.minPad, int64(d))
		}
	}
	check := func(res *Result) {
		if len(res.Rows) != len(want) {
			t.Errorf("%d groups, want %d", len(res.Rows), len(want))
			return
		}
		for _, r := range res.Rows {
			if g := want[r[0].Text()]; g == nil || r[1].Int() != g.n || r[2].Int() != g.sum || r[3].Int() != g.minPad {
				t.Errorf("group %v, want %+v", r, g)
			}
		}
	}
	open := func() *Session {
		c, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SetOptimizer("orca"); err != nil {
			t.Fatal(err)
		}
		return c
	}
	s = open()
	if txt := explainText(t, s, q); !strings.Contains(txt, "Broadcast Motion") {
		t.Fatalf("want a broadcast join:\n%s", txt)
	}
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c *Session) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := c.Exec(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				check(res)
			}
		}(open())
	}
	wg.Wait()
	perRow := allocPerRow(t, s, q, 3, nDim, check)
	t.Logf("%.1f bytes allocated per broadcast row (the whole statement)", perRow)
	if perRow > 1400 {
		t.Fatalf("warm broadcast join allocates %.1f bytes per broadcast row, want <= 1400", perRow)
	}
}

// TestJoinAcrossMotionKinds: one join, its inner side moved once by a
// Broadcast and once by a Redistribute Motion, returns the answer computed
// here and the answer of the same join over the rows a gathered SELECT of
// each table returns. The inner side is 8 000 rows over 4 segments, so every
// stream of either motion carries about 32 batches and its containers
// circulate between sender and receiver; keys are NULL on both sides now and
// then, an int key joins a float key of equal value, and text columns ride
// along. The two plans run concurrently from two sessions, twice, so under
// -race no sender writes a container its receiver is still reading.
func TestJoinAcrossMotionKinds(t *testing.T) {
	const nOuter, nInner = 24000, 8000
	e := NewEngine(cluster.GPDB6(4))
	defer e.Close()
	s, _ := e.NewSession("")
	mustExec(t, s, "CREATE TABLE jo (k int, tag text, v int) DISTRIBUTED BY (v)")
	mustExec(t, s, "CREATE TABLE ji (id int, fk float, name text, w int) DISTRIBUTED BY (w)")
	outerKey := func(i int) (int, bool) { return i % 4000, i%11 != 0 }
	innerKey := func(id int) (int, bool) { return id % 3000, id%13 != 0 }
	bulkInsert(t, s, "jo", nOuter, 0, func(i int) string {
		if k, ok := outerKey(i); ok {
			return fmt.Sprintf("(%d,'t%d',%d)", k, i, i)
		}
		return fmt.Sprintf("(NULL,'t%d',%d)", i, i)
	})
	bulkInsert(t, s, "ji", nInner, 0, func(id int) string {
		if k, ok := innerKey(id); ok {
			return fmt.Sprintf("(%d,%d.0,'n%d',%d)", id, k, id, id*7)
		}
		return fmt.Sprintf("(%d,NULL,'n%d',%d)", id, id, id*7)
	})
	q := "SELECT jo.k, jo.tag, ji.fk, ji.name, ji.id FROM jo JOIN ji ON jo.k = ji.fk"

	// joined renders a join's rows (k, tag, fk, name, id) sorted, after
	// checking each pairs an int key with the equal float key.
	joined := func(rows []types.Row) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			if r[0].IsNull() || r[2].IsNull() || r[2].Kind() != types.KindFloat || float64(r[0].Int()) != r[2].Float() {
				t.Errorf("row %v joins keys %v and %v", r, r[0], r[2])
				return nil
			}
			out = append(out, fmt.Sprintf("%d|%s|%s|%d", r[0].Int(), r[1].Text(), r[3].Text(), r[4].Int()))
		}
		sort.Strings(out)
		return out
	}
	// The answer from the generators.
	byKey := map[int][]int{}
	for id := 0; id < nInner; id++ {
		if k, ok := innerKey(id); ok {
			byKey[k] = append(byKey[k], id)
		}
	}
	var want []string
	for i := 0; i < nOuter; i++ {
		if k, ok := outerKey(i); ok {
			for _, id := range byKey[k] {
				want = append(want, fmt.Sprintf("%d|t%d|n%d|%d", k, i, id, id))
			}
		}
	}
	sort.Strings(want)
	// The same join over the gathered rows of each table.
	inner := map[float64][]types.Row{}
	innerRows := mustExec(t, s, "SELECT id, fk, name FROM ji").Rows
	for _, r := range innerRows {
		if !r[1].IsNull() {
			inner[r[1].Float()] = append(inner[r[1].Float()], r)
		}
	}
	var gathered []types.Row
	outerRows := mustExec(t, s, "SELECT k, tag FROM jo").Rows
	for _, o := range outerRows {
		if o[0].IsNull() {
			continue
		}
		for _, r := range inner[float64(o[0].Int())] {
			gathered = append(gathered, types.Row{o[0], o[1], r[1], r[2], r[0]})
		}
	}
	if len(innerRows) != nInner || len(outerRows) != nOuter {
		t.Fatalf("gathered %d inner and %d outer rows, want %d and %d", len(innerRows), len(outerRows), nInner, nOuter)
	}
	if got := joined(gathered); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("join of the gathered rows: %d rows, want %d", len(got), len(want))
	}

	// orca broadcasts the inner side, since shipping it to all four segments
	// costs no more than redistributing both sides; the postgres planner
	// always redistributes.
	plans := []struct{ motion, optimizer string }{{"Broadcast Motion", "orca"}, {"Redistribute Motion", "postgres"}}
	sessions := make([]*Session, len(plans))
	for i, p := range plans {
		c, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, c, "SET optimizer = "+p.optimizer)
		txt := explainText(t, c, q)
		if !strings.Contains(txt, p.motion) || strings.Contains(txt, "Broadcast") != (p.motion == "Broadcast Motion") {
			t.Fatalf("want the inner side moved by a %s:\n%s", p.motion, txt)
		}
		sessions[i] = c
	}
	var wg sync.WaitGroup
	for i, c := range sessions {
		wg.Add(1)
		go func(motion string, c *Session) {
			defer wg.Done()
			for run := 0; run < 2; run++ {
				res, err := c.Exec(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := joined(res.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("%s join: %d rows, want %d", motion, len(got), len(want))
					return
				}
			}
		}(plans[i].motion, c)
	}
	wg.Wait()
}

// TestSameNamedKeysAreNotAligned joins through a replicated table whose key
// has the name, but not the position, of the fact table's distribution key:
// f is hashed on f.id, and the second join's key d.id is another column
// also named "id". Taking f's rows as hashed on d.id skips the motion g's
// rows need and loses every match that sits on another segment.
func TestSameNamedKeysAreNotAligned(t *testing.T) {
	_, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE f (id int, dim_id int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE d (id int, w int) DISTRIBUTED REPLICATED")
	mustExec(t, s, "CREATE TABLE g (id int, z int) DISTRIBUTED BY (id)")
	const n = 40
	bulkInsert(t, s, "f", n, 0, func(i int) string { return fmt.Sprintf("(%d, %d)", i, 1000+(i*7)%n) })
	bulkInsert(t, s, "d", n, 0, func(i int) string { return fmt.Sprintf("(%d, 0)", 1000+i) })
	bulkInsert(t, s, "g", n, 0, func(i int) string { return fmt.Sprintf("(%d, 0)", 1000+i) })
	const q = "SELECT count(*) FROM f JOIN d ON f.dim_id = d.id JOIN g ON d.id = g.id"
	for _, opt := range []string{"postgres", "orca"} {
		mustExec(t, s, "SET optimizer = "+opt)
		if got := mustExec(t, s, q).Rows[0][0].Int(); got != n {
			t.Errorf("optimizer %s: count %d, want %d:\n%s", opt, got, n, explainText(t, s, q))
		}
	}
}
