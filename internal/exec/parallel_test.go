package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// engineStore adapts a real storage engine (with its block splitter and
// decode cache) to the executor's store interfaces, the way a cluster
// segment does but without MVCC plumbing — every stored row is visible.
type engineStore struct {
	eng storage.Engine
}

func (s *engineStore) ScanTable(ctx context.Context, leaf catalog.TableID, spec ScanSpec, _ RowMark, fn func(types.Row) (bool, bool, error)) error {
	return s.ScanTableBatches(ctx, leaf, nil, spec, 0, func(b *types.RowBatch) (bool, error) {
		for i := 0; i < b.Len(); i++ {
			if _, cont, err := fn(b.Live(i)); err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	})
}

func (s *engineStore) IndexLookup(context.Context, *catalog.Table, *catalog.Index, []types.Datum, RowMark, func(types.Row) (bool, bool, error)) error {
	return nil
}

func (s *engineStore) WriteRow(context.Context, RowID, *plan.UpdatePlan) (bool, error) {
	return false, storage.ErrNotSupported
}

// ScanTableBatches hands up every stored version of the leaf or of rng, each
// chunk as one batch in its own layout: a view of the engine's chunk, whose
// containers the engine refills for the next one, as a segment hands them.
func (s *engineStore) ScanTableBatches(ctx context.Context, _ catalog.TableID, rng *ScanRange, spec ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	r := storage.WholeTable
	if rng != nil {
		r = storage.BlockRange{Begin: rng.Begin, End: rng.End}
	}
	var fnErr error
	err := s.eng.Scan(r, &storage.ScanOpts{Cols: spec.Cols}, batchSize, func(ch *storage.Chunk) bool {
		view := types.RowBatch{Rows: ch.Rows, Cols: ch.Cols}
		var cont bool
		cont, fnErr = fn(&view)
		return cont && fnErr == nil
	})
	if fnErr != nil {
		return fnErr
	}
	return err
}

func (s *engineStore) SplitTableRanges(_ catalog.TableID, parts int) ([]ScanRange, bool) {
	ranges := s.eng.SplitBlocks(parts)
	out := make([]ScanRange, len(ranges))
	for i, r := range ranges {
		out[i] = ScanRange{Begin: r.Begin, End: r.End}
	}
	return out, true
}

// aoTestTable loads an AO-column engine with nRows of (i, i%groups, i%7).
func aoTestTable(nRows, groups int) (*engineStore, *catalog.Table) {
	eng := storage.NewAOColumn(3, storage.CompressionRLEDelta)
	for i := 0; i < nRows; i++ {
		eng.Insert(1, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % groups)),
			types.NewInt(int64(i % 7)),
		})
	}
	eng.Seal()
	tab := testTable(1, "f", "a", "g", "w")
	return &engineStore{eng: eng}, tab
}

func scanAggPlan(tab *catalog.Table, phase plan.AggPhase) plan.Node {
	scan := plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
		Op: "<", Left: &plan.ColRef{Idx: 2}, Right: &plan.Const{Val: types.NewInt(5)}})
	return plan.NewAgg(scan,
		[]plan.Expr{&plan.ColRef{Idx: 1}},
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "cnt"},
			{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 0}, Name: "s"},
			{Func: plan.AggMin, Arg: &plan.ColRef{Idx: 0}, Name: "lo"},
			{Func: plan.AggMax, Arg: &plan.ColRef{Idx: 0}, Name: "hi"},
		}, phase)
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

// TestParallelScanAggMatchesSerial is the core equivalence property of the
// parallel rewrite: identical (byte-identical) results at any degree.
func TestParallelScanAggMatchesSerial(t *testing.T) {
	store, tab := aoTestTable(20000, 513) // ~5 sealed blocks
	for _, phase := range []plan.AggPhase{plan.AggPlain, plan.AggPartial} {
		serialCtx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
		want, err := DrainBatches(BuildBatch(serialCtx, scanAggPlan(tab, phase)))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != 513 {
			t.Fatalf("phase %v: groups: %d", phase, len(want))
		}
		for _, dop := range []int{2, 4, 16} {
			pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: dop}
			got, err := DrainBatches(BuildBatchParallel(pctx, scanAggPlan(tab, phase)))
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, want, got)
		}
	}
}

// TestParallelScanOrderedMatchesSerial: without an aggregate the local
// gather drains workers in range order, so even raw scan output is
// byte-identical to the serial scan.
func TestParallelScanOrderedMatchesSerial(t *testing.T) {
	store, tab := aoTestTable(10000, 97)
	mk := func() plan.Node {
		scan := plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
			Op: "<", Left: &plan.ColRef{Idx: 2}, Right: &plan.Const{Val: types.NewInt(3)}})
		return plan.NewProject(scan, []plan.Expr{
			&plan.ColRef{Idx: 0},
			&plan.BinOp{Op: "+", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(1)}},
		}, []string{"a", "g1"})
	}
	serialCtx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	want, err := DrainBatches(BuildBatch(serialCtx, mk()))
	if err != nil {
		t.Fatal(err)
	}
	pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: 3}
	got, err := DrainBatches(BuildBatchParallel(pctx, mk()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want, got)
}

// TestParallelWorkersCountEveryNode: the nodes of a slice that runs as
// parallel worker pipelines get the same NodeRows counts and OpSegStat rows
// as in the serial run — scan/filter/project inside the workers, the plan's
// aggregate once at the merge — so the optimizer's risk-bound check sees the
// scan's real cardinality at any degree.
func TestParallelWorkersCountEveryNode(t *testing.T) {
	store, tab := aoTestTable(20000, 513)
	scanOnly := func() plan.Node {
		scan := plan.NewScan(tab, []catalog.TableID{1}, nil)
		filter := &plan.Filter{Child: scan, Cond: &plan.BinOp{
			Op: "<", Left: &plan.ColRef{Idx: 2}, Right: &plan.Const{Val: types.NewInt(3)}}}
		return plan.NewProject(filter, []plan.Expr{&plan.ColRef{Idx: 0}}, []string{"a"})
	}
	for name, mk := range map[string]func() plan.Node{
		"plain agg":   func() plan.Node { return scanAggPlan(tab, plan.AggPlain) },
		"partial agg": func() plan.Node { return scanAggPlan(tab, plan.AggPartial) },
		"scan only":   scanOnly,
	} {
		var serial []int64
		for _, dop := range []int{1, 4} {
			root := mk()
			ctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: dop,
				NodeRows: plan.NewNodeRowCounts(root), Ops: plan.NewOpStats(root, 1)}
			it, ok := buildParallelPipeline(ctx, root)
			if ok != (dop > 1) {
				t.Fatalf("%s: parallel pipeline built = %v at degree %d", name, ok, dop)
			}
			if ok {
				it.Close()
			}
			drain(t, BuildBatchParallel(ctx, root))
			var counts []int64
			scan := root
			for n := root; ; n = n.Children()[0] {
				counts = append(counts, ctx.NodeRows.Rows(n))
				if got := ctx.Ops.At(n, 0).Rows.Load(); got != ctx.NodeRows.Rows(n) {
					t.Fatalf("%s degree %d: %s has OpSegStat rows %d, NodeRows %d", name, dop, n.Explain(), got, ctx.NodeRows.Rows(n))
				}
				if scan = n; len(n.Children()) == 0 {
					break
				}
			}
			if dop == 1 {
				serial = counts
				continue
			}
			if fmt.Sprint(counts) != fmt.Sprint(serial) || counts[len(counts)-1] == 0 {
				t.Fatalf("%s: per-node rows (root first) at degree 4 = %v, serial = %v", name, counts, serial)
			}
			costs := map[plan.Node]*plan.NodeCost{scan: {Rows: 10, Bound: 5}}
			mis := plan.CheckRiskBounds(costs, ctx.NodeRows)
			if len(mis) != 1 || mis[0].Actual != counts[len(counts)-1] {
				t.Fatalf("%s: risk-bound check at degree 4 saw %+v, want the scan's %d rows", name, mis, counts[len(counts)-1])
			}
		}
	}
}

// TestParallelDegreeOne: parallelism 1 must take the serial path and produce
// serial results.
func TestParallelDegreeOne(t *testing.T) {
	store, tab := aoTestTable(5000, 11)
	serialCtx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	want, err := DrainBatches(BuildBatch(serialCtx, scanAggPlan(tab, plan.AggPlain)))
	if err != nil {
		t.Fatal(err)
	}
	pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: 1}
	it := BuildBatchParallel(pctx, scanAggPlan(tab, plan.AggPlain))
	if _, isGather := it.(*LocalGather); isGather {
		t.Fatal("parallelism 1 built a parallel pipeline")
	}
	got, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want, got)
}

// TestParallelMoreWorkersThanBlocks: a degree far beyond the table's block
// count degrades to one worker per block — and a single-block table falls
// back to the serial pipeline entirely.
func TestParallelMoreWorkersThanBlocks(t *testing.T) {
	store, tab := aoTestTable(6000, 7) // one sealed block (4096) + a second (1904)
	serialCtx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	want, err := DrainBatches(BuildBatch(serialCtx, scanAggPlan(tab, plan.AggPlain)))
	if err != nil {
		t.Fatal(err)
	}
	pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: 64}
	got, err := DrainBatches(BuildBatchParallel(pctx, scanAggPlan(tab, plan.AggPlain)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want, got)

	// Single sealed block: nothing to split; fall back to serial build.
	small, smallTab := aoTestTable(1000, 7)
	sctx := &Context{Ctx: context.Background(), Store: small, NumSegments: 1, SegID: 0, Parallel: 8}
	it := BuildBatchParallel(sctx, scanAggPlan(smallTab, plan.AggPlain))
	got2, err := DrainBatches(it)
	if err != nil {
		t.Fatal(err)
	}
	sctx2 := &Context{Ctx: context.Background(), Store: small, NumSegments: 1, SegID: 0}
	want2, err := DrainBatches(BuildBatch(sctx2, scanAggPlan(smallTab, plan.AggPlain)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, want2, got2)
}

// multiLeafStore serves several leaves, each backed by its own engine — the
// shape of a partitioned table on one segment.
type multiLeafStore struct {
	engineStore // IndexLookup and WriteRow, which no test here reaches
	leaves      map[catalog.TableID]*engineStore
}

func (m *multiLeafStore) ScanTable(ctx context.Context, leaf catalog.TableID, spec ScanSpec, mark RowMark, fn func(types.Row) (bool, bool, error)) error {
	return m.leaves[leaf].ScanTable(ctx, leaf, spec, mark, fn)
}

func (m *multiLeafStore) ScanTableBatches(ctx context.Context, leaf catalog.TableID, rng *ScanRange, spec ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	return m.leaves[leaf].ScanTableBatches(ctx, leaf, rng, spec, batchSize, fn)
}

func (m *multiLeafStore) SplitTableRanges(leaf catalog.TableID, parts int) ([]ScanRange, bool) {
	return m.leaves[leaf].SplitTableRanges(leaf, parts)
}

// TestParallelMultiLeafOrderedMatchesSerial: a partitioned scan deals whole
// leaves to workers; the ordered gather must still reproduce the serial
// leaf order (contiguous chunks, not round-robin). Leaves alternate between
// AO-column and heap, so the scan regroups row views between column views.
func TestParallelMultiLeafOrderedMatchesSerial(t *testing.T) {
	store := &multiLeafStore{leaves: map[catalog.TableID]*engineStore{}}
	leaves := []catalog.TableID{11, 12, 13, 14, 15}
	n := 0
	for l, leaf := range leaves {
		var eng storage.Engine = storage.NewHeap()
		if l%2 == 0 {
			eng = storage.NewAOColumn(2, storage.CompressionRLEDelta)
		}
		for i := 0; i < 3000; i++ {
			eng.Insert(1, types.Row{types.NewInt(int64(n)), types.NewInt(int64(n % 7))})
			n++
		}
		if ao, ok := eng.(*storage.AOColumn); ok {
			ao.Seal()
		}
		store.leaves[leaf] = &engineStore{eng: eng}
	}
	tab := testTable(1, "p", "a", "w")
	mk := func() plan.Node {
		scan := plan.NewScan(tab, leaves, &plan.BinOp{
			Op: "<", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(4)}})
		return scan
	}
	serialCtx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0}
	got, err := DrainBatches(BuildBatch(serialCtx, mk()))
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for i := 0; i < n; i++ {
		if i%7 < 4 {
			want = append(want, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
		}
	}
	requireSameRows(t, want, got)
	for _, dop := range []int{2, 3, 5, 9} {
		pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: dop}
		got, err := DrainBatches(BuildBatchParallel(pctx, mk()))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, want, got)
	}
}

// TestParallelEmptyTable: zero rows, scalar aggregate — still one output row.
func TestParallelEmptyTable(t *testing.T) {
	eng := storage.NewAOColumn(3, storage.CompressionRLEDelta)
	store := &engineStore{eng: eng}
	tab := testTable(1, "f", "a", "g", "w")
	mk := func() plan.Node {
		scan := plan.NewScan(tab, []catalog.TableID{1}, nil)
		return plan.NewAgg(scan, nil,
			[]plan.AggSpec{{Func: plan.AggCount, Name: "cnt"}}, plan.AggPlain)
	}
	pctx := &Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: 4}
	got, err := DrainBatches(BuildBatchParallel(pctx, mk()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 0 {
		t.Fatalf("scalar count over empty table: %v", got)
	}
}

// TestParallelSafeShapes pins down which slice shapes the planner may mark.
func TestParallelSafeShapes(t *testing.T) {
	tab := testTable(1, "t", "a", "b")
	scan := plan.NewScan(tab, []catalog.TableID{1}, nil)
	if !plan.ParallelSafe(scan) {
		t.Error("plain scan should be parallel-safe")
	}
	agg := plan.NewAgg(scan, []plan.Expr{&plan.ColRef{Idx: 0}},
		[]plan.AggSpec{{Func: plan.AggCount, Name: "c"}}, plan.AggPartial)
	if !plan.ParallelSafe(agg) {
		t.Error("partial agg over scan should be parallel-safe")
	}
	distinct := plan.NewAgg(scan, nil,
		[]plan.AggSpec{{Func: plan.AggCount, Arg: &plan.ColRef{Idx: 0}, Distinct: true, Name: "c"}}, plan.AggPartial)
	if plan.ParallelSafe(distinct) {
		t.Error("DISTINCT agg must not be parallel-safe")
	}
	forUpd := plan.NewScan(tab, []catalog.TableID{1}, nil)
	forUpd.ForUpdate = true
	if plan.ParallelSafe(forUpd) {
		t.Error("FOR UPDATE scan must not be parallel-safe")
	}
	join := plan.NewHashJoin(plan.JoinInner, scan, plan.NewScan(tab, []catalog.TableID{1}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
	if plan.ParallelSafe(join) {
		t.Error("join must not be parallel-safe")
	}
}
