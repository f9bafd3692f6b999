package exec

import (
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestBatchPipelineMatchesRowPipeline runs a scan→filter→join→agg plan over
// several batches and requires exactly the rows a plain Go evaluation of the
// same query gives — one nested loop, one map, no executor code.
func TestBatchPipelineMatchesRowPipeline(t *testing.T) {
	left := testTable(1, "l", "id", "lv")
	right := testTable(2, "r", "id", "rv")
	tables := map[catalog.TableID][]types.Row{1: {}, 2: {}}
	for i := 0; i < 1000; i++ { // spans several batches
		tables[1] = append(tables[1], intRow(int64(i%97), int64(i)))
		if i%3 == 0 {
			tables[2] = append(tables[2], intRow(int64(i%97), int64(i*2)))
		}
	}
	store := &memStore{tables: tables}

	scanL := plan.NewScan(left, []catalog.TableID{1}, &plan.BinOp{
		Op: ">", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(10)}})
	scanR := plan.NewScan(right, []catalog.TableID{2}, nil)
	join := plan.NewHashJoin(plan.JoinInner, scanL, scanR,
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	agg := plan.NewAgg(join,
		[]plan.Expr{&plan.ColRef{Idx: 0}},
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "cnt"},
			{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 3}, Name: "s"},
			{Func: plan.AggMax, Arg: &plan.ColRef{Idx: 1}, Name: "m"},
		}, plan.AggPlain)

	// SELECT l.id, count(*), sum(r.rv), max(l.lv) FROM l JOIN r USING (id)
	// WHERE l.lv > 10 GROUP BY l.id ORDER BY l.id, in Go.
	type acc struct{ cnt, sum, max int64 }
	groups := map[int64]*acc{}
	for _, l := range tables[1] {
		if l[1].Int() <= 10 {
			continue
		}
		for _, r := range tables[2] {
			if l[0].Int() != r[0].Int() {
				continue
			}
			g := groups[l[0].Int()]
			if g == nil {
				g = &acc{max: l[1].Int()}
				groups[l[0].Int()] = g
			}
			g.cnt++
			g.sum += r[1].Int()
			g.max = max(g.max, l[1].Int())
		}
	}
	var want []types.Row
	for id := int64(0); id < 97; id++ {
		if g := groups[id]; g != nil {
			want = append(want, intRow(id, g.cnt, g.sum, g.max))
		}
	}

	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 64}
	got := drain(t, BuildBatch(ctx, agg))
	if len(want) == 0 {
		t.Fatal("empty expectation")
	}
	requireSameRows(t, want, got)
}

func TestBatchScanStreamsAndCloseEarly(t *testing.T) {
	tab := testTable(1, "t", "a")
	tables := map[catalog.TableID][]types.Row{1: {}}
	for i := 0; i < 10000; i++ {
		tables[1] = append(tables[1], intRow(int64(i)))
	}
	store := &memStore{tables: tables}
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 32}
	it := BuildBatch(ctx, plan.NewScan(tab, []catalog.TableID{1}, nil))
	b, err := it.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 32 {
		t.Fatalf("first batch: %d rows", b.Len())
	}
	// Closing mid-stream must not deadlock or leak the producer.
	it.Close()
}

func TestBatchLeftJoinNullExtension(t *testing.T) {
	left := testTable(1, "l", "id")
	right := testTable(2, "r", "id", "rv")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2), intRow(3)},
		2: {intRow(1, 10), intRow(3, 30)},
	}}
	join := plan.NewHashJoin(plan.JoinLeft,
		plan.NewScan(left, []catalog.TableID{1}, nil),
		plan.NewScan(right, []catalog.TableID{2}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	rows, err := DrainBatches(BuildBatch(ctx, join))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("left join rows: %v", rows)
	}
	saw2 := false
	for _, r := range rows {
		if r[0].Int() == 2 {
			saw2 = true
			if !r[1].IsNull() || !r[2].IsNull() {
				t.Fatalf("unmatched row not null-extended: %v", r)
			}
		}
	}
	if !saw2 {
		t.Fatal("unmatched left row dropped")
	}
}

func TestBatchMemoryAccountingCancels(t *testing.T) {
	tab := testTable(1, "t", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1), intRow(2)},
	}}
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Mem: failMem{}}
	join := plan.NewHashJoin(plan.JoinInner,
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	if _, err := DrainBatches(BuildBatch(ctx, join)); err == nil {
		t.Fatal("batch hash join ignored memory accounting")
	}
}

// TestSelectBatchSelectionVector: filtering marks survivors in a selection
// vector without moving rows; chained filters narrow the same vector; an
// all-pass filter leaves the batch dense.
func TestSelectBatchSelectionVector(t *testing.T) {
	mk := func() *types.RowBatch {
		b := types.NewRowBatch(8)
		for i := 0; i < 8; i++ {
			b.Append(intRow(int64(i)))
		}
		return b
	}
	even := plan.CompilePredicate(&plan.BinOp{Op: "=",
		Left:  &plan.BinOp{Op: "%", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(2)}},
		Right: &plan.Const{Val: types.NewInt(0)}})
	b := mk()
	if err := even.Select(b); err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) != 8 {
		t.Fatalf("filter moved rows: container %d", len(b.Rows))
	}
	if b.Len() != 4 || b.Live(0)[0].Int() != 0 || b.Live(3)[0].Int() != 6 {
		t.Fatalf("selection: sel=%v", b.Sel)
	}
	// Second filter narrows the existing selection in place.
	ge4 := plan.CompilePredicate(&plan.BinOp{Op: ">=", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(4)}})
	if err := ge4.Select(b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 || b.Live(0)[0].Int() != 4 || b.Live(1)[0].Int() != 6 {
		t.Fatalf("chained selection: sel=%v", b.Sel)
	}
	// All-pass predicate on a dense batch keeps it dense (no allocation).
	b2 := mk()
	if err := plan.CompilePredicate(nil).Select(b2); err != nil {
		t.Fatal(err)
	}
	if b2.Sel != nil {
		t.Fatalf("all-pass filter built a selection: %v", b2.Sel)
	}
	// All-fail yields an empty (non-nil) selection.
	b3 := mk()
	none := plan.CompilePredicate(&plan.BinOp{Op: "<", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(0)}})
	if err := none.Select(b3); err != nil {
		t.Fatal(err)
	}
	if b3.Sel == nil || b3.Len() != 0 {
		t.Fatalf("all-fail: sel=%v", b3.Sel)
	}
}

// TestFilteredScanDrainsLiveRowsOnly: a scan's filtered batches carry a
// selection vector and drain with only live rows visible.
func TestFilteredScanDrainsLiveRowsOnly(t *testing.T) {
	tables := map[catalog.TableID][]types.Row{1: {}}
	for i := 0; i < 500; i++ {
		tables[1] = append(tables[1], intRow(int64(i)))
	}
	store := &memStore{tables: tables}
	tbl := testTable(1, "t", "id")
	scan := plan.NewScan(tbl, []catalog.TableID{1}, &plan.BinOp{
		Op: "<", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(10)}})
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 64}
	rows, err := DrainBatches(BuildBatch(ctx, scan))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("drained %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d: %v", i, r)
		}
	}
}

// batches pulls it to the end and returns each batch's live rows, checking
// the interface's promises on the way: no empty batch, none above size.
func batches(t *testing.T, it BatchIterator, size int) [][]types.Row {
	t.Helper()
	defer it.Close()
	var out [][]types.Row
	for {
		b, err := it.NextBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 || b.Len() > size {
			t.Fatalf("batch %d has %d rows (size %d)", len(out), b.Len(), size)
		}
		rows := make([]types.Row, b.Len())
		for i := range rows {
			rows[i] = b.Live(i)
		}
		out = append(out, rows)
	}
}

func flatten(bs [][]types.Row) []types.Row {
	var out []types.Row
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// stopSpyStore reports how each streaming scan's producer ended.
type stopSpyStore struct {
	*memStore
	stopped chan error
}

func (s stopSpyStore) ScanTableBatches(ctx context.Context, leaf catalog.TableID, spec ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	err := s.memStore.ScanTableBatches(ctx, leaf, spec, batchSize, fn)
	s.stopped <- err
	return err
}

// TestLimitOffsetOverSelectionBatches: LIMIT/OFFSET over a filtered scan —
// multi-batch, every batch carrying a selection vector — against Go slicing
// for a grid of (offset, count) that puts both bounds before, inside, on and
// past batch boundaries.
func TestLimitOffsetOverSelectionBatches(t *testing.T) {
	tab := testTable(1, "t", "v")
	var all, even []types.Row
	for i := 0; i < 40; i++ {
		all = append(all, intRow(int64(i)))
		if i%2 == 0 {
			even = append(even, intRow(int64(i)))
		}
	}
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: all}}
	isEven := &plan.BinOp{Op: "=",
		Left:  &plan.BinOp{Op: "%", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(2)}},
		Right: &plan.Const{Val: types.NewInt(0)}}
	for _, filter := range []plan.Expr{isEven, nil} { // selection-vector and dense children
		src := all
		if filter != nil {
			src = even
		}
		for offset := int64(0); offset <= int64(len(src))+1; offset++ {
			for _, count := range []int64{-1, 0, 1, 2, 3, 4, 7, int64(len(src)), 100} {
				ctx := ctxWithStore(store)
				ctx.BatchSize = 3
				lim := &plan.Limit{Child: plan.NewScan(tab, []catalog.TableID{1}, filter), Count: count, Offset: offset}
				got := flatten(batches(t, BuildBatch(ctx, lim), 3))
				want := src[min(offset, int64(len(src))):]
				if count >= 0 {
					want = want[:min(count, int64(len(want)))]
				}
				if len(got) != len(want) {
					t.Fatalf("filter=%v offset=%d count=%d: %d rows, want %d", filter != nil, offset, count, len(got), len(want))
				}
				requireSameRows(t, want, got)
			}
		}
	}
}

// TestLimitStopsEarly: LIMIT 0 never pulls its child, and a satisfied LIMIT
// closes a streaming scan — cancelling its producer goroutine — before the
// consumer gets around to closing the tree.
func TestLimitStopsEarly(t *testing.T) {
	never := errBatchIterf("LIMIT 0 pulled its child")
	if rows := drain(t, &batchLimitIter{child: never, left: 0, skip: 5}); len(rows) != 0 {
		t.Fatalf("LIMIT 0: %v", rows)
	}

	tab := testTable(1, "t", "v")
	var rows []types.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, intRow(int64(i)))
	}
	store := stopSpyStore{&memStore{tables: map[catalog.TableID][]types.Row{1: rows}}, make(chan error, 1)}
	ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, BatchSize: 3}
	it := BuildBatch(ctx, &plan.Limit{Child: plan.NewScan(tab, []catalog.TableID{1}, nil), Count: 4, Offset: 1})
	defer it.Close()
	var got []types.Row
	for {
		b, err := it.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.Live(i))
		}
	}
	requireSameRows(t, rows[1:5], got)
	select {
	case err := <-store.stopped:
		if err != context.Canceled {
			t.Fatalf("producer ended with %v, want cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scan producer still running after LIMIT was satisfied")
	}
}

// TestLeftNestLoopOutputSpansBatches: a left nested loop whose output is cut
// into several batches — mid inner rescan, and right before a null-extended
// row — equals the two Go loops.
func TestLeftNestLoopOutputSpansBatches(t *testing.T) {
	a := testTable(1, "a", "x")
	b := testTable(2, "b", "y")
	outer := []types.Row{intRow(1), intRow(9), intRow(2), intRow(8), intRow(3), intRow(0), intRow(7)}
	inner := []types.Row{intRow(10), intRow(20), intRow(30), intRow(40), intRow(25)}
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: outer, 2: inner}}
	// x*10 < y: x=1 joins four times, x=2 three, x=3 once, x=0 five, 7..9 never.
	cond := &plan.BinOp{Op: "<", Left: &plan.BinOp{Op: "*", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(10)}}, Right: &plan.ColRef{Idx: 1}}
	var want []types.Row
	for _, o := range outer {
		matched := false
		for _, i := range inner {
			if o[0].Int()*10 < i[0].Int() {
				matched = true
				want = append(want, types.Row{o[0], i[0]})
			}
		}
		if !matched {
			want = append(want, types.Row{o[0], types.Null})
		}
	}
	for _, size := range []int{1, 2, 3, 256} {
		ctx := ctxWithStore(store)
		ctx.BatchSize = size
		nl := plan.NewNestLoop(plan.JoinLeft,
			plan.NewScan(a, []catalog.TableID{1}, nil), plan.NewScan(b, []catalog.TableID{2}, nil), cond)
		requireSameRows(t, want, flatten(batches(t, BuildBatch(ctx, nl), size)))
	}
}

// TestIndexScanMatchCounts: zero, one and many index matches (the many
// spanning batches), with and without a residual filter.
func TestIndexScanMatchCounts(t *testing.T) {
	tab := testTable(1, "t", "k", "v")
	store := &memStore{tables: map[catalog.TableID][]types.Row{
		1: {intRow(1, 10), intRow(2, 20), intRow(2, 21), intRow(3, 30), intRow(2, 22), intRow(2, 23)},
	}}
	vOdd := &plan.BinOp{Op: "=",
		Left:  &plan.BinOp{Op: "%", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(2)}},
		Right: &plan.Const{Val: types.NewInt(1)}}
	for _, tc := range []struct {
		key    int64
		filter plan.Expr
		want   []types.Row
	}{
		{9, nil, nil},
		{1, nil, []types.Row{intRow(1, 10)}},
		{2, nil, []types.Row{intRow(2, 20), intRow(2, 21), intRow(2, 22), intRow(2, 23)}},
		{2, vOdd, []types.Row{intRow(2, 21), intRow(2, 23)}},
		{1, vOdd, nil},
	} {
		ctx := ctxWithStore(store)
		ctx.BatchSize = 3
		node := &plan.IndexScan{Table: tab, KeyVals: []plan.Expr{&plan.Const{Val: types.NewInt(tc.key)}}, Filter: tc.filter}
		requireSameRows(t, tc.want, flatten(batches(t, BuildBatch(ctx, node), 3)))
	}
}

// TestForUpdateScanLocksKeptRowsOnly: the FOR UPDATE scan hands the storage
// callback its filter verdict, so only kept rows are locked, and emits them
// over several batches.
func TestForUpdateScanLocksKeptRowsOnly(t *testing.T) {
	tab := testTable(1, "t", "v")
	var rows, want []types.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, intRow(int64(i)))
		if i >= 13 {
			want = append(want, intRow(int64(i)))
		}
	}
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: rows}}
	scan := plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
		Op: ">=", Left: &plan.ColRef{Idx: 0}, Right: &plan.Const{Val: types.NewInt(13)}})
	scan.ForUpdate = true
	ctx := ctxWithStore(store)
	ctx.BatchSize = 3
	requireSameRows(t, want, flatten(batches(t, BuildBatch(ctx, scan), 3)))
	requireSameRows(t, want, store.locked)
}
