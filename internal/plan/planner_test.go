package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/lockmgr"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/types"
)

// testCatalog builds a catalog with representative tables.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	mk := func(name string, dist catalog.Distribution, keys []int, cols ...types.Column) *catalog.Table {
		tab := &catalog.Table{
			Name:         name,
			Schema:       &types.Schema{Columns: cols},
			Distribution: dist,
			DistKeyCols:  keys,
			PartitionCol: -1,
		}
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	mk("t1", catalog.DistHash, []int{0},
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt})
	mk("t2", catalog.DistHash, []int{0},
		types.Column{Name: "c1", Kind: types.KindInt},
		types.Column{Name: "c2", Kind: types.KindInt})
	mk("r", catalog.DistReplicated, nil,
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindText})
	mk("rnd", catalog.DistRandom, nil,
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt})
	part := &catalog.Table{
		Name: "sales",
		Schema: &types.Schema{Columns: []types.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "d", Kind: types.KindInt},
			{Name: "amt", Kind: types.KindFloat},
		}},
		Distribution: catalog.DistHash,
		DistKeyCols:  []int{0},
		PartitionCol: 1,
		Partitions: []catalog.Partition{
			{Name: "p0", Start: types.NewInt(0), End: types.NewInt(100)},
			{Name: "p1", Start: types.NewInt(100), End: types.NewInt(200)},
			{Name: "p2", Start: types.NewInt(200), End: types.NewInt(300)},
		},
	}
	if err := c.CreateTable(part); err != nil {
		t.Fatal(err)
	}
	return c
}

func planSelect(t *testing.T, cat *catalog.Catalog, q string, opt Optimizer) *Planned {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: opt}
	pl, err := p.PlanSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return pl
}

func motionsIn(root Node) []*Motion {
	var out []*Motion
	var walk func(Node)
	walk = func(n Node) {
		if m, ok := n.(*Motion); ok {
			out = append(out, m)
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	return out
}

func TestSimpleSelectGetsSingleGather(t *testing.T) {
	cat := testCatalog(t)
	pl := planSelect(t, cat, "SELECT c1 FROM t1 WHERE c2 > 5", OptimizerOLTP)
	ms := motionsIn(pl.Root)
	if len(ms) != 1 || ms[0].Type != MotionGather {
		t.Fatalf("motions: %v", ms)
	}
	if pl.Slices != 2 {
		t.Fatalf("slices = %d", pl.Slices)
	}
	if pl.LockTable != "t1" || pl.LockMode != lockmgr.AccessShare {
		t.Fatalf("lock: %q mode %v", pl.LockTable, pl.LockMode)
	}
}

func TestColocatedJoinHasNoRedistribute(t *testing.T) {
	cat := testCatalog(t)
	// Join on distribution keys of both sides: colocated.
	pl := planSelect(t, cat, "SELECT * FROM t1 JOIN t2 ON t1.c1 = t2.c1", OptimizerOLTP)
	for _, m := range motionsIn(pl.Root) {
		if m.Type != MotionGather {
			t.Fatalf("unexpected motion %s in colocated join", m.Type)
		}
	}
}

func TestMisalignedJoinRedistributes(t *testing.T) {
	cat := testCatalog(t)
	// t1.c2 is not the distribution key: that side must redistribute.
	pl := planSelect(t, cat, "SELECT * FROM t1 JOIN t2 ON t1.c2 = t2.c1", OptimizerOLTP)
	var redist int
	for _, m := range motionsIn(pl.Root) {
		if m.Type == MotionRedistribute {
			redist++
		}
	}
	if redist != 1 {
		t.Fatalf("redistribute motions = %d, want 1 (t1 side only)", redist)
	}
	// Paper Fig. 4 shape: both sides misaligned → both redistribute.
	pl = planSelect(t, cat, "SELECT * FROM t1 JOIN t2 ON t1.c2 = t2.c2", OptimizerOLTP)
	redist = 0
	for _, m := range motionsIn(pl.Root) {
		if m.Type == MotionRedistribute {
			redist++
		}
	}
	if redist != 2 {
		t.Fatalf("redistribute motions = %d, want 2", redist)
	}
}

func TestReplicatedJoinNeedsNoMotion(t *testing.T) {
	cat := testCatalog(t)
	pl := planSelect(t, cat, "SELECT * FROM t1 JOIN r ON t1.c2 = r.id", OptimizerOLTP)
	for _, m := range motionsIn(pl.Root) {
		if m.Type != MotionGather {
			t.Fatalf("replicated join should not move data, found %s", m.Type)
		}
	}
}

// smallT2Stats makes t2 tiny beside t1, so shipping t2 to every segment
// costs less than redistributing both sides and the OLAP planner broadcasts.
type smallT2Stats struct{}

func (smallT2Stats) RowCount(table string) int64 {
	if table == "t2" {
		return 10
	}
	return 100000
}

func (smallT2Stats) TableStats(string) *stats.TableStats { return nil }

func TestOLAPPlannerBroadcastsSmallSide(t *testing.T) {
	cat := testCatalog(t)
	st, _ := sql.Parse("SELECT * FROM t1 JOIN t2 ON t1.c2 = t2.c2")
	p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: OptimizerOLAP, Stats: smallT2Stats{}}
	pl, err := p.PlanSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	var broadcast, redist int
	for _, m := range motionsIn(pl.Root) {
		switch m.Type {
		case MotionBroadcast:
			broadcast++
		case MotionRedistribute:
			redist++
		}
	}
	if broadcast != 1 || redist != 0 {
		t.Fatalf("OLAP join: broadcast=%d redistribute=%d", broadcast, redist)
	}
}

func TestTwoPhaseAggregate(t *testing.T) {
	cat := testCatalog(t)
	pl := planSelect(t, cat, "SELECT c2, count(*), sum(c1) FROM t1 GROUP BY c2", OptimizerOLTP)
	var partial, final int
	var walk func(Node)
	walk = func(n Node) {
		if a, ok := n.(*Agg); ok {
			switch a.Phase {
			case AggPartial:
				partial++
			case AggFinal:
				final++
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(pl.Root)
	if partial != 1 || final != 1 {
		t.Fatalf("agg phases: partial=%d final=%d\n%s", partial, final, Explain(pl.Root))
	}
}

func TestPartitionPruning(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		q    string
		want int
	}{
		{"SELECT * FROM sales WHERE d = 150", 1},
		{"SELECT * FROM sales WHERE d >= 100 AND d < 200", 1},
		{"SELECT * FROM sales WHERE d BETWEEN 50 AND 150", 2},
		{"SELECT * FROM sales WHERE d > 250", 1},
		{"SELECT * FROM sales WHERE amt > 0", 3},
		{"SELECT * FROM sales", 3},
		{"SELECT * FROM sales WHERE 150 = d", 1},
		{"SELECT * FROM sales WHERE d IN (150)", 1},
		{"SELECT * FROM sales WHERE d IN (50, 150)", 2},
		{"SELECT * FROM sales WHERE 250 < d", 1},
		{"SELECT * FROM sales WHERE d > 250 AND d > 100", 1},
		{"SELECT * FROM sales WHERE d = 500", 0},
	}
	for _, c := range cases {
		st, err := sql.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		p := &Planner{Catalog: cat, NumSegments: 4, Stats: rowCounts{"sales": 30}}
		pl, err := p.PlanSelect(st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		var scan *Scan
		var walk func(Node)
		walk = func(n Node) {
			if s, ok := n.(*Scan); ok {
				scan = s
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(pl.Root)
		if scan == nil {
			t.Fatalf("%s: no scan", c.q)
		}
		if len(scan.Partitions) != c.want {
			t.Errorf("%s: scans %d partitions, want %d", c.q, len(scan.Partitions), c.want)
		}
		if label := fmt.Sprintf("(%d of 3 partitions)", c.want); c.want < 3 && !strings.Contains(scan.Explain(), label) {
			t.Errorf("%s: EXPLAIN %q lacks %s", c.q, scan.Explain(), label)
		}
		if rows := pl.Costs[scan].Rows; c.want == 0 && rows != 0 {
			t.Errorf("%s: scan estimates %d rows, want 0", c.q, rows)
		}
	}
}

func TestDirectDispatchDetection(t *testing.T) {
	cat := testCatalog(t)
	p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: OptimizerOLTP}
	st, _ := sql.Parse("UPDATE t1 SET c2 = 0 WHERE c1 = 42")
	pl, err := p.PlanUpdate(st.(*sql.UpdateStmt), true)
	if err != nil {
		t.Fatal(err)
	}
	if pl.DirectSegment < 0 {
		t.Fatal("equality on the full distribution key must direct-dispatch")
	}
	want := types.Bucket(types.Row{types.NewInt(42)}.HashKey(), 4)
	if pl.DirectSegment != want {
		t.Fatalf("segment = %d, want %d", pl.DirectSegment, want)
	}
	// Non-key predicate: no direct dispatch.
	st, _ = sql.Parse("UPDATE t1 SET c2 = 0 WHERE c2 = 42")
	pl, _ = p.PlanUpdate(st.(*sql.UpdateStmt), true)
	if pl.DirectSegment != -1 {
		t.Fatal("non-key predicate must fan out")
	}
}

func TestLockLevelsGDDVsGPDB5(t *testing.T) {
	cat := testCatalog(t)
	p := &Planner{Catalog: cat, NumSegments: 4}
	st, _ := sql.Parse("UPDATE t1 SET c2 = 0")
	with, _ := p.PlanUpdate(st.(*sql.UpdateStmt), true)
	without, _ := p.PlanUpdate(st.(*sql.UpdateStmt), false)
	if with.LockMode != lockmgr.RowExclusive {
		t.Fatalf("GDD update lock = %v, want RowExclusive", with.LockMode)
	}
	if without.LockMode != lockmgr.Exclusive {
		t.Fatalf("GPDB5 update lock = %v, want Exclusive", without.LockMode)
	}
	dst, _ := sql.Parse("DELETE FROM t1")
	dwith, _ := p.PlanDelete(dst.(*sql.DeleteStmt), true)
	dwithout, _ := p.PlanDelete(dst.(*sql.DeleteStmt), false)
	if dwith.LockMode != lockmgr.RowExclusive || dwithout.LockMode != lockmgr.Exclusive {
		t.Fatalf("delete locks: %v %v", dwith.LockMode, dwithout.LockMode)
	}
}

func TestInsertPlanRouting(t *testing.T) {
	cat := testCatalog(t)
	p := &Planner{Catalog: cat, NumSegments: 4}
	st, _ := sql.Parse("INSERT INTO t1 (c1, c2) VALUES (1, 10), (2, 20)")
	pl, err := p.PlanInsert(st.(*sql.InsertStmt))
	if err != nil {
		t.Fatal(err)
	}
	rows := pl.Root.(*InsertPlan).Child.(*Values).Rows
	if len(rows) != 2 || rows[0][0].Int() != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if pl.LockMode != lockmgr.RowExclusive {
		t.Fatalf("insert lock mode = %v", pl.LockMode)
	}
	if got := Explain(pl.Root); got != "Insert on t1\n  -> Result\n" {
		t.Fatalf("EXPLAIN:\n%s", got)
	}
	// Missing columns become NULL.
	st, _ = sql.Parse("INSERT INTO t1 (c1) VALUES (9)")
	pl, _ = p.PlanInsert(st.(*sql.InsertStmt))
	if !pl.Root.(*InsertPlan).Child.(*Values).Rows[0][1].IsNull() {
		t.Fatal("missing column should be NULL")
	}
	// Arity mismatch.
	st, _ = sql.Parse("INSERT INTO t1 (c1) VALUES (9, 10)")
	if _, err := p.PlanInsert(st.(*sql.InsertStmt)); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestExplainRendering(t *testing.T) {
	cat := testCatalog(t)
	pl := planSelect(t, cat, "SELECT c2, count(*) FROM t1 GROUP BY c2 ORDER BY c2 LIMIT 5", OptimizerOLTP)
	text := Explain(pl.Root)
	for _, frag := range []string{"Limit", "Sort", "HashAggregate", "Gather Motion", "Seq Scan on t1"} {
		if !strings.Contains(text, frag) {
			t.Errorf("explain missing %q:\n%s", frag, text)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	cat := testCatalog(t)
	p := &Planner{Catalog: cat, NumSegments: 4}
	for _, q := range []string{
		"SELECT nope FROM t1",
		"SELECT c1 FROM missing",
		"SELECT t9.c1 FROM t1",
		"SELECT c1 FROM t1 ORDER BY 99",
		"SELECT * FROM t1 GROUP BY c1",
	} {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := p.PlanSelect(st.(*sql.SelectStmt)); err == nil {
			t.Errorf("PlanSelect(%q) should fail", q)
		}
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	cat := testCatalog(t)
	st, _ := sql.Parse("SELECT c1 FROM t1 JOIN t2 ON t1.c1 = t2.c1")
	p := &Planner{Catalog: cat, NumSegments: 4}
	if _, err := p.PlanSelect(st.(*sql.SelectStmt)); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous reference: %v", err)
	}
}

func TestExprEvaluation(t *testing.T) {
	// Spot-check the bound-expression evaluator through planner-built
	// expressions: NULL semantics, CASE, LIKE, IN.
	row := types.Row{types.NewInt(5), types.NewText("hello"), types.Null, types.NewFloat(2.5)}
	// CASE WHEN a > 3 THEN 1 ELSE f END: int and float branches meet in float.
	mixed := &Case{Whens: []CaseWhen{{Cond: &BinOp{Op: ">", Left: &ColRef{Idx: 0}, Right: &Const{Val: types.NewInt(3)}}, Then: &Const{Val: types.NewInt(1)}}}, Else: &ColRef{Idx: 3, Typ: types.KindFloat}}
	cases := []struct {
		e    Expr
		want types.Datum
	}{
		{&BinOp{Op: "+", Left: &ColRef{Idx: 0}, Right: &Const{Val: types.NewInt(2)}}, types.NewInt(7)},
		{&BinOp{Op: "=", Left: &ColRef{Idx: 2}, Right: &Const{Val: types.NewInt(1)}}, types.Null},
		{&BinOp{Op: "AND", Left: &Const{Val: types.NewBool(false)}, Right: &ColRef{Idx: 2}}, types.NewBool(false)},
		{&BinOp{Op: "OR", Left: &Const{Val: types.NewBool(true)}, Right: &ColRef{Idx: 2}}, types.NewBool(true)},
		{&BinOp{Op: "LIKE", Left: &ColRef{Idx: 1}, Right: &Const{Val: types.NewText("he%o")}}, types.NewBool(true)},
		{&BinOp{Op: "LIKE", Left: &ColRef{Idx: 1}, Right: &Const{Val: types.NewText("h_llo")}}, types.NewBool(true)},
		{&BinOp{Op: "LIKE", Left: &ColRef{Idx: 1}, Right: &Const{Val: types.NewText("x%")}}, types.NewBool(false)},
		{&IsNull{Operand: &ColRef{Idx: 2}}, types.NewBool(true)},
		{&IsNull{Operand: &ColRef{Idx: 0}, Negate: true}, types.NewBool(true)},
		{&InList{Operand: &ColRef{Idx: 0}, List: []Expr{&Const{Val: types.NewInt(5)}}}, types.NewBool(true)},
		{&Between{Operand: &ColRef{Idx: 0}, Lo: &Const{Val: types.NewInt(1)}, Hi: &Const{Val: types.NewInt(9)}}, types.NewBool(true)},
		{&Case{Whens: []CaseWhen{{Cond: &BinOp{Op: ">", Left: &ColRef{Idx: 0}, Right: &Const{Val: types.NewInt(3)}}, Then: &Const{Val: types.NewText("big")}}}, Else: &Const{Val: types.NewText("small")}}, types.NewText("big")},
		{&BinOp{Op: "%", Left: &ColRef{Idx: 3}, Right: &Const{Val: types.NewFloat(2)}}, types.NewFloat(0.5)},
		{&BinOp{Op: "%", Left: &ColRef{Idx: 3}, Right: &Const{Val: types.NewFloat(0.75)}}, types.NewFloat(0.25)},
		{mixed, types.NewFloat(1)},
	}
	for i, c := range cases {
		got, err := c.e.Eval(row)
		if err != nil {
			t.Fatalf("[%d] %s: %v", i, c.e, err)
		}
		if got.Kind() != c.want.Kind() || types.Compare(got, c.want) != 0 {
			t.Errorf("[%d] %s = %v, want %v", i, c.e, got, c.want)
		}
	}
	if k := mixed.Kind(); k != types.KindFloat {
		t.Errorf("CASE of int and float branches is typed %v, want float", k)
	}
	mixed.Whens[0].Then = &Const{Val: types.NewText("x")}
	if k := mixed.Kind(); k != types.KindNull {
		t.Errorf("CASE of text and float branches is typed %v, want no common kind", k)
	}
	// Division by zero errors.
	if _, err := (&BinOp{Op: "/", Left: &Const{Val: types.NewInt(1)}, Right: &Const{Val: types.NewInt(0)}}).Eval(nil); err == nil {
		t.Error("div by zero")
	}
	if _, err := (&BinOp{Op: "%", Left: &ColRef{Idx: 3}, Right: &Const{Val: types.NewFloat(0)}}).Eval(row); err == nil {
		t.Error("float % 0.0")
	}
}

// findScan returns the first Scan in the plan tree.
func findScan(n Node) *Scan {
	if s, ok := n.(*Scan); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

func TestScanColumnPruning(t *testing.T) {
	cat := testCatalog(t)

	// Aggregate over a subset: scan should decode only d (1) and amt (2).
	pl := planSelect(t, cat, "SELECT d, sum(amt) FROM sales WHERE d < 150 GROUP BY d", OptimizerOLTP)
	scan := findScan(pl.Root)
	if scan == nil {
		t.Fatal("no scan in plan")
	}
	if len(scan.Project) != 2 || scan.Project[0] != 1 || scan.Project[1] != 2 {
		t.Fatalf("agg scan projection = %v, want [1 2]", scan.Project)
	}

	// Plain projection reading 1 of 2 columns (filter on the same column).
	pl = planSelect(t, cat, "SELECT c2 FROM t1 WHERE c2 > 3", OptimizerOLTP)
	scan = findScan(pl.Root)
	if scan == nil || len(scan.Project) != 1 || scan.Project[0] != 1 {
		t.Fatalf("projection scan columns = %v, want [1]", scan.Project)
	}

	// Reading every column records no pruning (nil = all).
	pl = planSelect(t, cat, "SELECT c2 FROM t1 WHERE c1 = 7", OptimizerOLTP)
	scan = findScan(pl.Root)
	if scan == nil || scan.Project != nil {
		t.Fatalf("full-width read should not prune, got %v", scan.Project)
	}

	// SELECT * reads everything: no pruning recorded.
	pl = planSelect(t, cat, "SELECT * FROM t1", OptimizerOLTP)
	scan = findScan(pl.Root)
	if scan == nil || scan.Project != nil {
		t.Fatalf("SELECT * should not prune, got %v", scan.Project)
	}

	// FOR UPDATE scans stay unpruned (row-locking path).
	pl = planSelect(t, cat, "SELECT c2 FROM t1 WHERE c2 = 1 FOR UPDATE", OptimizerOLTP)
	scan = findScan(pl.Root)
	if scan == nil || scan.Project != nil {
		t.Fatalf("FOR UPDATE scan should not prune, got %v", scan.Project)
	}
}

// TestRouteRowSpreadsKeys: the small int keys a TPC-B branch table or a
// CH-benCHmark warehouse table is distributed by spread over four segments —
// none holds more than twice its share of 16 keys, or 1.5× its share of 32.
func TestRouteRowSpreadsKeys(t *testing.T) {
	tab := &catalog.Table{Distribution: catalog.DistHash, DistKeyCols: []int{0}}
	for _, c := range []struct {
		n     int
		limit float64
	}{{16, 2}, {32, 1.5}} {
		counts := make([]int, 4)
		for k := 1; k <= c.n; k++ {
			counts[RouteRow(tab, types.Row{types.NewInt(int64(k))}, 4)]++
		}
		for seg, got := range counts {
			if float64(got) > c.limit*float64(c.n)/4 {
				t.Errorf("keys 1..%d: segment %d holds %d (all: %v)", c.n, seg, got, counts)
			}
		}
	}
}
