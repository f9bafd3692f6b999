package exec

import (
	"context"
	"io"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// memStore is an in-memory StoreAccess for executor unit tests. Its batch
// scan goes through the executor's streaming path (producer goroutine +
// bounded batches); locked records the rows a FOR UPDATE scan kept, standing
// in for the segment's row locks. A row's tuple id is its offset in its
// table; a written row is marked deleted, and an update appends the new
// version.
type memStore struct {
	tables  map[catalog.TableID][]types.Row
	locked  []types.Row
	deleted map[RowID]bool
}

func (m *memStore) ScanTable(_ context.Context, leaf catalog.TableID, _ ScanSpec, mark RowMark, fn func(types.Row) (bool, bool, error)) error {
	for i := 0; i < len(m.tables[leaf]); i++ { // sees versions appended meanwhile
		row, id := m.tables[leaf][i], RowID{Leaf: leaf, TID: storage.TupleID(i)}
		if m.deleted[id] {
			continue
		}
		keep, cont, err := fn(row)
		if err != nil {
			return err
		}
		if keep && mark.Lock {
			m.locked = append(m.locked, row)
		}
		if keep && mark.Targets != nil {
			*mark.Targets = append(*mark.Targets, id)
		}
		if !cont {
			return nil
		}
	}
	return nil
}

func (m *memStore) WriteRow(_ context.Context, id RowID, up *plan.UpdatePlan) (bool, error) {
	if m.deleted == nil {
		m.deleted = map[RowID]bool{}
	}
	m.deleted[id] = true
	if up != nil {
		row, err := up.NewVersion(m.tables[id.Leaf][id.TID])
		if err != nil {
			return false, err
		}
		m.tables[id.Leaf] = append(m.tables[id.Leaf], row)
	}
	return true, nil
}

func (m *memStore) InsertRow(leaf catalog.TableID, row types.Row) error {
	if m.tables == nil {
		m.tables = map[catalog.TableID][]types.Row{}
	}
	m.tables[leaf] = append(m.tables[leaf], row)
	return nil
}

func (m *memStore) ScanTableBatches(ctx context.Context, leaf catalog.TableID, _ ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	if batchSize < 1 {
		batchSize = types.DefaultBatchSize
	}
	b := types.NewRowBatch(batchSize)
	for _, row := range m.tables[leaf] {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		b.Append(row.Clone())
		if b.Len() == batchSize {
			cont, err := fn(b)
			if err != nil || !cont {
				return err
			}
			b = types.NewRowBatch(batchSize)
		}
	}
	if b.Len() > 0 {
		if _, err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

func (m *memStore) IndexLookup(_ context.Context, t *catalog.Table, _ *catalog.Index, key []types.Datum, _ RowMark, fn func(types.Row) (bool, bool, error)) error {
	for _, row := range m.tables[t.ID] {
		if types.Compare(row[0], key[0]) == 0 {
			if _, cont, err := fn(row); err != nil || !cont {
				return err
			}
		}
	}
	return nil
}

func intRow(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

func testTable(id catalog.TableID, name string, cols ...string) *catalog.Table {
	sch := &types.Schema{}
	for _, c := range cols {
		sch.Columns = append(sch.Columns, types.Column{Name: c, Kind: types.KindInt})
	}
	return &catalog.Table{ID: id, Name: name, Schema: sch, PartitionCol: -1}
}

func ctxWithStore(store *memStore) *Context {
	return &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
}

func drain(t *testing.T, it BatchIterator) []types.Row {
	t.Helper()
	rows, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanFilterProject(t *testing.T) {
	tab := testTable(1, "t", "a", "b")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1, 10), intRow(2, 20), intRow(3, 30)},
	}}
	scan := plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
		Op: ">", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(10)}})
	proj := plan.NewProject(scan, []plan.Expr{
		&plan.BinOp{Op: "*", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(2)}},
	}, []string{"doubled"})
	rows := drain(t, BuildBatch(ctxWithStore(store), proj))
	if len(rows) != 2 || rows[0][0].Int() != 4 || rows[1][0].Int() != 6 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestHashJoinInnerAndLeft(t *testing.T) {
	left := testTable(1, "l", "id", "lv")
	right := testTable(2, "r", "id", "rv")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1, 100), intRow(2, 200), intRow(3, 300)},
		2: {intRow(1, 11), intRow(3, 33), intRow(3, 34)},
	}}
	mk := func(kind plan.JoinKind) *plan.HashJoin {
		return plan.NewHashJoin(kind,
			plan.NewScan(left, []catalog.TableID{1}, nil),
			plan.NewScan(right, []catalog.TableID{2}, nil),
			[]plan.Expr{&plan.ColRef{Idx: 0}},
			[]plan.Expr{&plan.ColRef{Idx: 0}},
			nil)
	}
	rows := drain(t, BuildBatch(ctxWithStore(store), mk(plan.JoinInner)))
	if len(rows) != 3 { // 1↔1, 3↔33, 3↔34
		t.Fatalf("inner join rows: %v", rows)
	}
	rows = drain(t, BuildBatch(ctxWithStore(store), mk(plan.JoinLeft)))
	if len(rows) != 4 {
		t.Fatalf("left join rows: %v", rows)
	}
	var sawNull bool
	for _, r := range rows {
		if r[0].Int() == 2 {
			if !r[2].IsNull() || !r[3].IsNull() {
				t.Fatalf("unmatched left row not null-extended: %v", r)
			}
			sawNull = true
		}
	}
	if !sawNull {
		t.Fatal("left join dropped the unmatched row")
	}
}

func TestNestLoopCrossAndCondition(t *testing.T) {
	a := testTable(1, "a", "x")
	b := testTable(2, "b", "y")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2)},
		2: {intRow(10), intRow(20), intRow(30)},
	}}
	nl := plan.NewNestLoop(plan.JoinInner,
		plan.NewScan(a, []catalog.TableID{1}, nil),
		plan.NewScan(b, []catalog.TableID{2}, nil),
		nil)
	rows := drain(t, BuildBatch(ctxWithStore(store), nl))
	if len(rows) != 6 {
		t.Fatalf("cross join rows = %d", len(rows))
	}
	nl2 := plan.NewNestLoop(plan.JoinInner,
		plan.NewScan(a, []catalog.TableID{1}, nil),
		plan.NewScan(b, []catalog.TableID{2}, nil),
		&plan.BinOp{Op: "<", Left: &plan.BinOp{Op: "*", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(10)}}, Right: &plan.ColRef{Idx: 1}})
	rows = drain(t, BuildBatch(ctxWithStore(store), nl2))
	if len(rows) != 3 { // (1,20),(1,30),(2,30)
		t.Fatalf("theta join rows: %v", rows)
	}
}

func TestAggPhases(t *testing.T) {
	tab := testTable(1, "t", "g", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1, 10), intRow(1, 20), intRow(2, 5), intRow(2, 7), intRow(2, 9)},
	}}
	specs := []plan.AggSpec{
		{Func: plan.AggCount, Name: "cnt"},
		{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 1}, Name: "sum"},
		{Func: plan.AggAvg, Arg: &plan.ColRef{Idx: 1}, Name: "avg"},
		{Func: plan.AggMin, Arg: &plan.ColRef{Idx: 1}, Name: "min"},
		{Func: plan.AggMax, Arg: &plan.ColRef{Idx: 1}, Name: "max"},
	}
	gb := []plan.Expr{&plan.ColRef{Idx: 0}}

	// Plain.
	agg := plan.NewAgg(plan.NewScan(tab, []catalog.TableID{1}, nil), gb, specs, plan.AggPlain)
	rows := drain(t, BuildBatch(ctxWithStore(store), agg))
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	g2 := rows[1]
	if g2[0].Int() != 2 || g2[1].Int() != 3 || g2[2].Int() != 21 || g2[3].Float() != 7.0 ||
		g2[4].Int() != 5 || g2[5].Int() != 9 {
		t.Fatalf("group 2 aggregates: %v", g2)
	}

	// Partial then Final must equal Plain.
	partial := plan.NewAgg(plan.NewScan(tab, []catalog.TableID{1}, nil), gb, specs, plan.AggPartial)
	prows := drain(t, BuildBatch(ctxWithStore(store), partial))
	fgb := []plan.Expr{&plan.ColRef{Idx: 0}}
	final := plan.NewAgg(nil, fgb, specs, plan.AggFinal)
	frows := drain(t, newBatchAggIter(ctxWithStore(store), final, &rowWindows{rows: prows, size: 1}))
	if len(frows) != 2 {
		t.Fatalf("final groups: %v", frows)
	}
	for i := range frows {
		if !frows[i].Equal(rows[i]) {
			t.Fatalf("final != plain: %v vs %v", frows[i], rows[i])
		}
	}
}

func TestScalarAggOverEmptyInput(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: {}}}
	specs := []plan.AggSpec{
		{Func: plan.AggCount, Name: "cnt"},
		{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 0}, Name: "sum"},
	}
	agg := plan.NewAgg(plan.NewScan(tab, []catalog.TableID{1}, nil), nil, specs, plan.AggPlain)
	rows := drain(t, BuildBatch(ctxWithStore(store), agg))
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty scalar agg: %v", rows)
	}
}

func TestSortLimitOffset(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(3), intRow(1), intRow(4), intRow(1), intRow(5), intRow(9)},
	}}
	sorted := &plan.Sort{Child: plan.NewScan(tab, []catalog.TableID{1}, nil),
		Keys: []plan.SortKey{{Expr: &plan.ColRef{Idx: 0}, Desc: true}}}
	lim := &plan.Limit{Child: sorted, Count: 3, Offset: 1}
	rows := drain(t, BuildBatch(ctxWithStore(store), lim))
	if len(rows) != 3 || rows[0][0].Int() != 5 || rows[1][0].Int() != 4 || rows[2][0].Int() != 3 {
		t.Fatalf("sorted+limited: %v", rows)
	}
}

// failMem rejects all growth: query must cancel with the OOM error.
type failMem struct{}

func (failMem) Grow(int64) error { return io.ErrShortBuffer }
func (failMem) Shrink(int64)     {}

func TestMemoryAccountingCancelsQuery(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2)},
	}}
	ctx := ctxWithStore(store)
	ctx.Mem = failMem{}
	sorted := &plan.Sort{Child: plan.NewScan(tab, []catalog.TableID{1}, nil),
		Keys: []plan.SortKey{{Expr: &plan.ColRef{Idx: 0}}}}
	if _, err := DrainBatches(BuildBatch(ctx, sorted)); err == nil {
		t.Fatal("sort ignored memory accounting")
	}
	join := plan.NewHashJoin(plan.JoinInner,
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	if _, err := DrainBatches(BuildBatch(ctx, join)); err == nil {
		t.Fatal("hash join ignored memory accounting")
	}
}

func TestOneRowAndLimitZero(t *testing.T) {
	oneRow := &plan.Values{Out: &types.Schema{}, Rows: []types.Row{{}}}
	rows := drain(t, BuildBatch(ctxWithStore(&memStore{}), oneRow))
	if len(rows) != 1 {
		t.Fatalf("one row: %v", rows)
	}
	lim := &plan.Limit{Child: oneRow, Count: 0}
	rows = drain(t, BuildBatch(ctxWithStore(&memStore{}), lim))
	if len(rows) != 0 {
		t.Fatalf("LIMIT 0: %v", rows)
	}
}

// TestModifyCollectsBeforeWriting: the write sink finds every target before
// it writes one, so an UPDATE whose new versions still match its filter
// writes each row exactly once even over a store whose scan would see them.
func TestModifyCollectsBeforeWriting(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: {intRow(0), intRow(1), intRow(2)}}}
	up := &plan.UpdatePlan{Table: tab, SetCols: []int{0},
		SetExprs: []plan.Expr{&plan.BinOp{Op: "+", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(10)}}},
		Child: plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
			Op: "<", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(100)}})}
	n, err := Modify(ctxWithStore(store), up)
	if err != nil || n != 3 {
		t.Fatalf("update wrote %d rows (%v), want 3", n, err)
	}
	var live []types.Row
	_ = store.ScanTable(context.Background(), 1, ScanSpec{}, RowMark{}, func(r types.Row) (bool, bool, error) {
		live = append(live, r)
		return false, true, nil
	})
	requireSameRows(t, []types.Row{intRow(10), intRow(11), intRow(12)}, live)
	del := &plan.DeletePlan{Table: tab, Child: up.Child}
	if n, err := Modify(ctxWithStore(store), del); err != nil || n != 3 {
		t.Fatalf("delete wrote %d rows (%v), want 3", n, err)
	}
}

// TestModifyInsertsIntoLeaves: an INSERT stores each of its child's rows in
// the partition leaf that accepts it, and fails on a row no leaf accepts.
func TestModifyInsertsIntoLeaves(t *testing.T) {
	tab := testTable(1, "t", "k")
	tab.PartitionCol = 0
	tab.Partitions = []catalog.Partition{
		{ID: 2, Start: types.NewInt(0), End: types.NewInt(10)},
		{ID: 3, Start: types.NewInt(10), End: types.NewInt(20)},
	}
	values := func(keys ...int64) *plan.Values {
		v := &plan.Values{Out: tab.Schema}
		for _, k := range keys {
			v.Rows = append(v.Rows, intRow(k))
		}
		return v
	}
	store := &memStore{}
	n, err := Modify(ctxWithStore(store), &plan.InsertPlan{Table: tab, Child: values(1, 12, 5)})
	if err != nil || n != 3 {
		t.Fatalf("insert wrote %d rows (%v), want 3", n, err)
	}
	requireSameRows(t, []types.Row{intRow(1), intRow(5)}, store.tables[2])
	requireSameRows(t, []types.Row{intRow(12)}, store.tables[3])
	if _, err := Modify(ctxWithStore(store), &plan.InsertPlan{Table: tab, Child: values(25)}); err == nil {
		t.Fatal("a row no partition accepts was stored")
	}
}

func requireSameRows(t *testing.T, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result sizes differ: want %d rows, got %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("row %d differs: want %v, got %v", i, want[i], got[i])
		}
	}
}
