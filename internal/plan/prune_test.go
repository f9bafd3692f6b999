package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/types"
)

// chCatalog is the CH-benCHmark schema of the repository benchmark's htap_ch
// workload (its join-shaped tables), with the benchmark's row counts as the
// planner's statistics.
func chCatalog(t testing.TB) (*catalog.Catalog, Stats) {
	t.Helper()
	c := catalog.New()
	for _, def := range []struct {
		name string
		dist catalog.Distribution
		cols string
	}{
		{"customer", catalog.DistHash, "c_w_id c_d_id c_id c_name:t c_balance:f c_ytd_payment:f c_payment_cnt"},
		{"item", catalog.DistReplicated, "i_id i_name:t i_price:f"},
		{"stock", catalog.DistHash, "s_w_id s_i_id s_quantity s_ytd"},
		{"orders", catalog.DistHash, "o_w_id o_d_id o_id o_c_id o_carrier_id o_ol_cnt o_entry_d"},
		{"order_line", catalog.DistHash, "ol_w_id ol_d_id ol_o_id ol_number ol_i_id ol_quantity ol_amount:f ol_delivery_d"},
	} {
		tab := &catalog.Table{Name: def.name, Schema: &types.Schema{}, Distribution: def.dist, PartitionCol: -1}
		if def.dist == catalog.DistHash {
			tab.DistKeyCols = []int{0}
		}
		for _, col := range strings.Fields(def.cols) {
			name, kind, _ := strings.Cut(col, ":")
			tab.Schema.Columns = append(tab.Schema.Columns, types.Column{Name: name,
				Kind: map[string]types.Kind{"": types.KindInt, "t": types.KindText, "f": types.KindFloat}[kind]})
		}
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return c, rowCounts{"customer": 9600, "item": 1000, "stock": 32000, "orders": 24000, "order_line": 120000}
}

type rowCounts map[string]int64

func (r rowCounts) RowCount(table string) int64 { return r[table] }

func (rowCounts) TableStats(string) *stats.TableStats { return nil }

// chQueries are the eleven statements of the htap_ch analytic cycle.
var chQueries = []string{
	`SELECT ol_number, sum(ol_quantity), sum(ol_amount), avg(ol_quantity), avg(ol_amount), count(*)
		FROM order_line WHERE ol_delivery_d > 5 GROUP BY ol_number ORDER BY ol_number`,
	`SELECT sum(ol_amount) AS revenue FROM order_line
		WHERE ol_delivery_d BETWEEN 10 AND 300 AND ol_quantity BETWEEN 2 AND 8`,
	`SELECT o_carrier_id, count(*) FROM orders
		WHERE o_entry_d BETWEEN 30 AND 330 GROUP BY o_carrier_id ORDER BY o_carrier_id`,
	`SELECT i.i_price, sum(ol.ol_amount) FROM order_line ol
		JOIN item i ON ol.ol_i_id = i.i_id
		WHERE ol.ol_delivery_d > 50 GROUP BY i.i_price ORDER BY i.i_price LIMIT 20`,
	`SELECT o.o_ol_cnt, count(*) FROM orders o
		JOIN order_line ol ON o.o_w_id = ol.ol_w_id AND o.o_id = ol.ol_o_id
		WHERE ol.ol_delivery_d > o.o_entry_d GROUP BY o.o_ol_cnt ORDER BY o.o_ol_cnt`,
	`SELECT c.c_id, sum(o.o_ol_cnt) FROM customer c
		JOIN orders o ON c.c_w_id = o.o_w_id AND c.c_d_id = o.o_d_id AND c.c_id = o.o_c_id
		GROUP BY c.c_id ORDER BY 2 DESC, 1 LIMIT 10`,
	`SELECT s_w_id, count(*), avg(s_quantity) FROM stock
		WHERE s_quantity < 60 GROUP BY s_w_id ORDER BY s_w_id`,
	`SELECT o_w_id, o_d_id, count(*), max(o_id) FROM orders
		GROUP BY o_w_id, o_d_id ORDER BY o_w_id, o_d_id LIMIT 30`,
	`SELECT ol_i_id, sum(ol_amount) FROM order_line
		GROUP BY ol_i_id ORDER BY 2 DESC, 1 LIMIT 10`,
	`SELECT s.s_w_id, s.s_i_id, s.s_quantity, i.i_price FROM stock s
		JOIN item i ON s.s_i_id = i.i_id WHERE s.s_quantity < 55
		ORDER BY i.i_price DESC, s.s_w_id, s.s_i_id LIMIT 50`,
	`SELECT o.o_carrier_id, count(*), sum(ol.ol_amount) FROM orders o
		JOIN order_line ol ON o.o_id = ol.ol_o_id
		GROUP BY o.o_carrier_id ORDER BY o.o_carrier_id`,
}

// planStmt plans q (any statement kind) the way a session does.
func planStmt(t testing.TB, p *Planner, q string) *Planned {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	pl, err := p.Plan(st, true)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return pl
}

// populated is the pass's dual, written bottom-up: the set of n's output
// offsets that hold real values given the recorded Scan.Project / join Out,
// failing the test when any expression a node evaluates for a consumer reads
// an offset its input does not populate. Only a Project may read one — its
// output is then unpopulated too, which the node above must not read.
func populated(t *testing.T, n Node) []bool {
	t.Helper()
	all := func(width int, cols []int) []bool {
		out := make([]bool, width)
		for c := range out {
			out[c] = cols == nil
		}
		for _, c := range cols {
			out[c] = true
		}
		return out
	}
	reads := func(in []bool, es ...Expr) bool {
		refs := map[int]struct{}{}
		for _, e := range es {
			if !collectCols(e, refs) {
				t.Fatalf("%s: cannot walk %s", n.Explain(), e)
			}
		}
		for c := range refs {
			if !in[c] {
				return false
			}
		}
		return true
	}
	must := func(in []bool, es ...Expr) {
		t.Helper()
		if !reads(in, es...) {
			t.Fatalf("%s reads a column its input does not populate (input has %v)", n.Explain(), in)
		}
	}
	switch x := n.(type) {
	case *Scan:
		out := all(x.schema.Len(), x.Project)
		must(out, x.Filter)
		return out
	case *Project:
		in := populated(t, x.Child)
		out := make([]bool, len(x.Exprs))
		for i, e := range x.Exprs {
			out[i] = reads(in, e)
		}
		return out
	case *Agg:
		in := populated(t, x.Child)
		must(in, x.GroupBy...)
		for c := range in {
			if x.Phase == AggFinal { // merges the whole partial layout
				must(in, &ColRef{Idx: c})
			}
		}
		for _, sp := range x.Specs {
			if x.Phase == AggPlain || x.Phase == AggPartial {
				must(in, sp.Arg)
			}
		}
		return all(x.schema.Len(), nil)
	case *Filter:
		in := populated(t, x.Child)
		must(in, x.Cond)
		return in
	case *Sort:
		in := populated(t, x.Child)
		for _, k := range x.Keys {
			must(in, k.Expr)
		}
		return in
	case *Limit:
		return populated(t, x.Child)
	case *Motion:
		in := populated(t, x.Child)
		must(in, x.HashExprs...)
		return in
	case *HashJoin:
		l, r := populated(t, x.Left), populated(t, x.Right)
		must(l, x.LeftKeys...)
		must(r, x.RightKeys...)
		must(append(append([]bool(nil), l...), r...), x.Extra)
		return all(x.schema.Len(), x.Out)
	case *NestLoop:
		l, r := populated(t, x.Left), populated(t, x.Right)
		must(append(append([]bool(nil), l...), r...), x.Cond)
		return all(x.schema.Len(), x.Out)
	case *InsertPlan:
		return populated(t, x.Child)
	default:
		return all(n.Schema().Len(), nil)
	}
}

// checkPruned asserts the statement's result columns are all populated.
func checkPruned(t *testing.T, pl *Planned) {
	t.Helper()
	for c, ok := range populated(t, pl.Root) {
		if !ok {
			t.Fatalf("result column %d is not populated:\n%s", c, Explain(pl.Root))
		}
	}
}

func joinsIn(root Node) (out []Node) {
	var walk func(Node)
	walk = func(n Node) {
		switch n.(type) {
		case *HashJoin, *NestLoop:
			out = append(out, n)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

func scanOf(root Node, table string) (found *Scan) {
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok && s.Table.Name == table {
			found = s
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return found
}

// TestPruneColumnsNeedSets: what the pass records on joins and on the scans
// beneath them, shape by shape.
func TestPruneColumnsNeedSets(t *testing.T) {
	cat := templateCatalog(t)
	// sales(id, d, amt) ⋈ two(a, b, v): the join's output offsets are
	// id 0, d 1, amt 2, a 3, b 4, v 5.
	for _, tc := range []struct {
		name, q           string
		out, sales, other []int // nil = everything
		otherTable        string
	}{
		{"filter, hidden ORDER BY column, sort and limit above the join",
			"SELECT s.amt FROM sales s JOIN two ON s.id = two.a WHERE two.v > s.amt ORDER BY two.b LIMIT 5",
			[]int{2, 4, 5}, []int{0, 2}, nil, "two"},
		{"keys and residual are read by the join, not by its consumers",
			"SELECT count(*) FROM sales s JOIN two ON s.id = two.a AND s.d < two.v",
			[]int{}, []int{0, 1}, []int{0, 2}, "two"},
		{"SELECT * keeps everything",
			"SELECT * FROM sales s JOIN two ON s.id = two.a", nil, nil, nil, "two"},
		{"LEFT JOIN keeps the NULL-extended side's needed columns",
			"SELECT s.id, count(two.v) FROM sales s LEFT JOIN two ON s.id = two.a GROUP BY s.id",
			[]int{0, 5}, []int{0}, []int{0, 2}, "two"},
		{"nested loop",
			"SELECT s.d FROM sales s JOIN two ON s.amt < two.v",
			[]int{1}, []int{1, 2}, []int{2}, "two"},
		{"DISTINCT groups by every projected column",
			"SELECT DISTINCT s.d, two.b FROM sales s JOIN two ON s.id = two.a",
			[]int{1, 4}, []int{0, 1}, []int{0, 1}, "two"},
		{"FOR UPDATE scans stay whole",
			"SELECT s.d FROM sales s JOIN two ON s.id = two.a FOR UPDATE",
			[]int{1}, nil, nil, "two"},
	} {
		pl := planSelect(t, cat, tc.q, OptimizerOLTP)
		checkPruned(t, pl)
		joins := joinsIn(pl.Root)
		if len(joins) != 1 {
			t.Fatalf("%s: %d joins\n%s", tc.name, len(joins), Explain(pl.Root))
		}
		var out []int
		switch j := joins[0].(type) {
		case *HashJoin:
			out = j.Out
		case *NestLoop:
			out = j.Out
		}
		if !reflect.DeepEqual(out, tc.out) {
			t.Errorf("%s: join Out = %v, want %v\n%s", tc.name, out, tc.out, Explain(pl.Root))
		}
		if got := scanOf(pl.Root, "sales").Project; !reflect.DeepEqual(got, tc.sales) {
			t.Errorf("%s: sales Project = %v, want %v", tc.name, got, tc.sales)
		}
		if got := scanOf(pl.Root, tc.otherTable).Project; !reflect.DeepEqual(got, tc.other) {
			t.Errorf("%s: %s Project = %v, want %v", tc.name, tc.otherTable, got, tc.other)
		}
	}
}

// TestPruneColumnsExplain: a pruned join prints its Output, a pruned scan its
// Columns, and neither prints anything when it keeps everything.
func TestPruneColumnsExplain(t *testing.T) {
	cat := templateCatalog(t)
	txt := Explain(planSelect(t, cat, "SELECT s.amt, two.v FROM sales s JOIN two ON s.id = two.a", OptimizerOLTP).Root)
	for _, want := range []string{"Hash Join (Inner) Output: amt, v\n", "Seq Scan on sales Columns: id, amt\n", "Seq Scan on two Columns: a, v\n"} {
		if !strings.Contains(txt, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, txt)
		}
	}
	txt = Explain(planSelect(t, cat, "SELECT count(*) FROM sales s JOIN two ON s.amt < two.v", OptimizerOLTP).Root)
	if !strings.Contains(txt, "Nested Loop (Inner) Output: (none)\n") {
		t.Errorf("EXPLAIN of a join nobody reads a column of:\n%s", txt)
	}
	txt = Explain(planSelect(t, cat, "SELECT * FROM sales s JOIN two ON s.id = two.a", OptimizerOLTP).Root)
	if strings.Contains(txt, "Output:") || strings.Contains(txt, "Columns:") {
		t.Errorf("SELECT * prunes nothing:\n%s", txt)
	}
}

// TestPruneColumnsReorderedJoins: the cost-based path's reordered joins — a
// three-way join and the htap_ch cycle — carry a need-set on every join, the
// "restore column order" Project above them passes its consumer's set through,
// and nothing anywhere reads an unpopulated column.
func TestPruneColumnsReorderedJoins(t *testing.T) {
	cat, st := chCatalog(t)
	queries := append([]string{
		`SELECT c.c_name, sum(ol.ol_amount) FROM customer c
			JOIN orders o ON c.c_w_id = o.o_w_id AND c.c_id = o.o_c_id
			JOIN order_line ol ON o.o_w_id = ol.ol_w_id AND o.o_id = ol.ol_o_id
			WHERE ol.ol_quantity > c.c_payment_cnt GROUP BY c.c_name`,
	}, chQueries...)
	for _, opt := range []Optimizer{OptimizerOLAP, OptimizerOLTP} {
		for i, q := range queries {
			p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: opt, Stats: st}
			pl := planStmt(t, p, q)
			checkPruned(t, pl)
			for _, j := range joinsIn(pl.Root) {
				if !strings.Contains(j.Explain(), " Output: ") {
					t.Errorf("%v: query %d: %s keeps every column\n%s", opt, i, j.Explain(), Explain(pl.Root))
				}
			}
		}
	}
	// The three-way join is reordered (customer, the smallest, does not
	// probe), so its top join sits under a Project of bare columns.
	p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: OptimizerOLAP, Stats: st}
	pl := planStmt(t, p, queries[0])
	top := joinsIn(pl.Root)[0].(*HashJoin)
	if len(joinsIn(pl.Root)) != 2 || !strings.Contains(Explain(pl.Root), "Project c_w_id, ") {
		t.Fatalf("want a reordered three-way join:\n%s", Explain(pl.Root))
	}
	var names []string
	for _, c := range top.Out {
		names = append(names, top.Schema().Columns[c].Name)
	}
	if got := fmt.Sprint(names); len(names) != 2 || !strings.Contains(got, "c_name") || !strings.Contains(got, "ol_amount") {
		t.Fatalf("top join Out = %v, want c_name and ol_amount", names)
	}
}

// TestPruneColumnsInsertSelectAndTemplates: INSERT ... SELECT over a join is
// pruned like the SELECT alone, and Bind's copy-on-write keeps Out and
// Project on the nodes it copies.
func TestPruneColumnsInsertSelectAndTemplates(t *testing.T) {
	cat := templateCatalog(t)
	pl := planWith(t, cat, "INSERT INTO t1 SELECT s.id, two.v FROM sales s JOIN two ON s.id = two.a", false, nil)
	checkPruned(t, pl)
	sel := pl.Root.(*InsertPlan).Child
	if j := joinsIn(sel)[0].(*HashJoin); !reflect.DeepEqual(j.Out, []int{0, 5}) {
		t.Fatalf("INSERT ... SELECT join Out = %v, want [0 5]", j.Out)
	}

	tmpl := planWith(t, cat, "SELECT s.amt FROM sales s JOIN two ON s.id = two.a AND two.v > $1", false, ints(3))
	bound, err := tmpl.Bind(ints(3))
	if err != nil {
		t.Fatal(err)
	}
	checkPruned(t, bound)
	tj, bj := joinsIn(tmpl.Root)[0].(*HashJoin), joinsIn(bound.Root)[0].(*HashJoin)
	if tj == bj || !reflect.DeepEqual(bj.Out, []int{2}) || !reflect.DeepEqual(tj.Out, []int{2}) {
		t.Fatalf("bound join (a copy: %v) Out = %v, template %v, want [2]", tj != bj, bj.Out, tj.Out)
	}
	if got := scanOf(bound.Root, "two").Project; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("bound two Project = %v, want [0 2]", got)
	}

	tmpl = planWith(t, cat, "SELECT amt FROM sales WHERE d = $1", false, ints(150))
	if bound, err = tmpl.Bind(ints(150)); err != nil {
		t.Fatal(err)
	}
	ts, bs := scanOf(tmpl.Root, "sales"), scanOf(bound.Root, "sales")
	if ts == bs || !reflect.DeepEqual(bs.Project, []int{1, 2}) || len(bs.Partitions) != 1 {
		t.Fatalf("bound scan (a copy: %v) Project = %v over partitions %v, want [1 2] over one", ts != bs, bs.Project, bs.Partitions)
	}
}

// BenchmarkPruneColumns times the pass alone over the eleven plan trees of
// the htap_ch cycle: it runs once per planned statement and must stay in the
// microseconds.
func BenchmarkPruneColumns(b *testing.B) {
	cat, st := chCatalog(b)
	p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: OptimizerOLAP, Stats: st}
	roots := make([]Node, len(chQueries))
	for i, q := range chQueries {
		roots[i] = planStmt(b, p, q).Root
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, root := range roots {
			pruneColumns(root)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(roots)), "ns/plan")
}
