package exec

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

func TestSpillRowCodecRoundTrip(t *testing.T) {
	m := NewSpillManager(1 << 20)
	defer m.Cleanup()
	sf, err := m.newFile(0, "codec")
	if err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{
		{types.NewInt(42), types.NewText("hello"), types.NewFloat(3.25)},
		{types.Null, types.NewBool(true), types.NewDate(19000)},
		{types.NewInt(-7), types.NewText(""), types.NewBool(false)},
		{}, // empty row
		{types.NewFloat(-0.5), types.NewInt(1 << 40), types.NewText("日本語")},
		{types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
			types.NewFloat(math.NaN()), types.NewFloat(math.SmallestNonzeroFloat64), types.NewFloat(-0x1p-1030)},
	}
	for _, r := range rows {
		if err := sf.writeRow(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.startRead(); err != nil {
		t.Fatal(err)
	}
	for i, want := range rows {
		got, err := sf.readRow()
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("row %d: arity %d != %d", i, len(got), len(want))
		}
		for c := range want {
			if got[c] != want[c] { // datums are plain values: == compares kinds and bits
				t.Fatalf("row %d col %d: got %v (%v), want %v (%v)", i, c, got[c], got[c].Kind(), want[c], want[c].Kind())
			}
		}
	}
	if _, err := sf.readRow(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestSpillManagerBudgetAndCleanup(t *testing.T) {
	m := NewSpillManager(100)
	if !m.reserve(60) || !m.reserve(40) {
		t.Fatal("reservations within budget failed")
	}
	if m.reserve(1) {
		t.Fatal("reservation beyond budget succeeded")
	}
	m.release(50)
	if !m.reserve(50) {
		t.Fatal("re-reservation after release failed")
	}
	_, _, _, peak := m.Stats()
	if peak != 100 {
		t.Fatalf("high-water mark: %d, want 100", peak)
	}
	sf, err := m.newFile(0, "cleanup")
	if err != nil {
		t.Fatal(err)
	}
	path := sf.f.Name()
	if leaked := m.Cleanup(); leaked != 1 {
		t.Fatalf("cleanup removed %d files, want 1", leaked)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spill file still on disk: %v", err)
	}
}

func TestLoserTreeMergesStably(t *testing.T) {
	// Three runs of (key, runTag) pairs; ties across runs must come out in
	// run order, reproducing a stable sort of the concatenated input.
	mk := func(tag int64, keys ...int64) *memSource {
		rows := make([]types.Row, len(keys))
		for i, k := range keys {
			rows[i] = types.Row{types.NewInt(k), types.NewInt(tag)}
		}
		return &memSource{rows: rows}
	}
	srcs := []mergeSource{
		mk(0, 1, 3, 3, 9),
		mk(1, 2, 3, 8),
		mk(2, 3, 4, 10),
	}
	cmp := func(a, b types.Row) int { return types.Compare(a[0], b[0]) }
	tree, err := newLoserTree(srcs, cmp)
	if err != nil {
		t.Fatal(err)
	}
	var keys, tags []int64
	for {
		row, err := tree.pop()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, row[0].Int())
		tags = append(tags, row[1].Int())
	}
	wantKeys := []int64{1, 2, 3, 3, 3, 3, 4, 8, 9, 10}
	wantTags := []int64{0, 1, 0, 0, 1, 2, 2, 1, 0, 2}
	if len(keys) != len(wantKeys) {
		t.Fatalf("merged %d rows, want %d", len(keys), len(wantKeys))
	}
	for i := range wantKeys {
		if keys[i] != wantKeys[i] || tags[i] != wantTags[i] {
			t.Fatalf("pos %d: got (%d,%d), want (%d,%d)", i, keys[i], tags[i], wantKeys[i], wantTags[i])
		}
	}
}

// spillCtx builds a context with a tiny spill budget and no resource group.
func spillCtx(store *memStore, budget int64) *Context {
	ctx := ctxWithStore(store)
	ctx.Spill = NewSpillManager(budget)
	return ctx
}

// shuffledRows builds n rows (key, payload) in deterministic shuffled order.
func shuffledRows(n int) []types.Row {
	rng := rand.New(rand.NewSource(7))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = intRow(int64(i), int64(i%13))
	}
	rng.Shuffle(n, func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// TestExternalSortMatchesInMemory: the batch sort's output, in memory and
// spilled, at a batch size of 3 so it spans a thousand batches, equals
// sort.SliceStable over the same input row for row.
func TestExternalSortMatchesInMemory(t *testing.T) {
	tab := testTable(1, "t", "a", "b")
	rows := shuffledRows(3000)
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: rows}}
	node := &plan.Sort{Child: plan.NewScan(tab, []catalog.TableID{1}, nil), Keys: []plan.SortKey{
		{Expr: &plan.ColRef{Idx: 1}},             // many ties: exercises stability
		{Expr: &plan.ColRef{Idx: 0}, Desc: true}, // then descending key
	}}
	want := append([]types.Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i][1].Int() != want[j][1].Int() {
			return want[i][1].Int() < want[j][1].Int()
		}
		return want[i][0].Int() > want[j][0].Int()
	})

	inMem := ctxWithStore(store)
	inMem.BatchSize = 3
	requireSameRows(t, want, flatten(batches(t, BuildBatch(inMem, node), 3)))

	ctx := spillCtx(store, 4096)
	ctx.BatchSize = 3
	defer ctx.Spill.Cleanup()
	requireSameRows(t, want, flatten(batches(t, BuildBatch(ctx, node), 3)))

	spills, sbytes, sfiles, peak := ctx.Spill.Stats()
	if spills == 0 || sbytes == 0 || sfiles == 0 {
		t.Fatalf("sort did not spill: spills=%d bytes=%d files=%d", spills, sbytes, sfiles)
	}
	if peak > 4096 {
		t.Fatalf("operator memory peak %d exceeds budget 4096", peak)
	}
	if ctx.Spill.used.Load() != 0 {
		t.Fatalf("budget not fully released: %d", ctx.Spill.used.Load())
	}
}

// TestComputedKeyTopNSort: a sort key that is an expression (evaluated once
// per row and carried on the buffered row) and a top-N bound give the stable
// sort's rows, then its first count + offset of them, with the carried key
// gone — in memory, spilled, and for a top-N whose heap outgrows the spill
// floor.
func TestComputedKeyTopNSort(t *testing.T) {
	tab := testTable(1, "t", "a", "b")
	rows := shuffledRows(3000)
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: rows}}
	keys := []plan.SortKey{ // b % 5 descending (many ties), then a
		{Expr: &plan.BinOp{Op: "%", Left: &plan.ColRef{Idx: 1}, Right: &plan.Const{Val: types.NewInt(5)}}, Desc: true},
	}
	want := append([]types.Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool { return want[i][1].Int()%5 > want[j][1].Int()%5 })
	for _, top := range []*plan.Limit{nil, {Count: 40, Offset: 10}, {Count: 900, Offset: 100}} {
		node := &plan.Sort{Child: plan.NewScan(tab, []catalog.TableID{1}, nil), Keys: keys, Top: top}
		w := want
		if top != nil {
			w = want[:top.Count+top.Offset]
		}
		requireSameRows(t, w, drain(t, BuildBatch(ctxWithStore(store), node)))
		ctx := spillCtx(store, 4096)
		requireSameRows(t, w, drain(t, BuildBatch(ctx, node)))
		ctx.Spill.Cleanup()
	}
}

func TestSpillingHashAggMatchesInMemory(t *testing.T) {
	tab := testTable(1, "t", "a", "b")
	rows := shuffledRows(3000)
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: rows}}
	node := plan.NewAgg(
		plan.NewScan(tab, []catalog.TableID{1}, nil),
		[]plan.Expr{&plan.ColRef{Idx: 0}}, // group by unique key: 3000 groups
		[]plan.AggSpec{
			{Func: plan.AggCount, Name: "n"},
			{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 1}, Name: "s"},
			{Func: plan.AggMin, Arg: &plan.ColRef{Idx: 1}, Name: "lo"},
			{Func: plan.AggAvg, Arg: &plan.ColRef{Idx: 1}, Name: "av"},
		},
		plan.AggPlain,
	)
	inMem := drain(t, BuildBatch(ctxWithStore(store), node))

	ctx := spillCtx(store, 8192)
	defer ctx.Spill.Cleanup()
	it := newOperator(ctx, node).(*batchAggIter)
	if err := it.load(); err != nil {
		t.Fatal(err)
	}
	checkPartsSpread(t, "group", it.core.parts)
	spilled := drain(t, it)

	if len(inMem) != len(spilled) {
		t.Fatalf("group counts differ: %d vs %d", len(inMem), len(spilled))
	}
	// A spilled aggregate emits partition-major (each partition key-sorted);
	// compare as sorted multisets.
	sortRows := func(rs []types.Row) {
		sort.Slice(rs, func(i, j int) bool { return rs[i][0].Int() < rs[j][0].Int() })
	}
	sortRows(inMem)
	sortRows(spilled)
	for i := range inMem {
		if !inMem[i].Equal(spilled[i]) {
			t.Fatalf("group %d differs: in-mem=%v spilled=%v", i, inMem[i], spilled[i])
		}
	}
	if spills, _, _, _ := ctx.Spill.Stats(); spills == 0 {
		t.Fatal("aggregate did not spill")
	}
}

// checkPartsSpread fails when a spill partition holds more than twice its even
// share of the rows written to all of them.
func checkPartsSpread(t *testing.T, what string, parts []*spillFile) {
	t.Helper()
	var total, most int64
	for _, sf := range parts {
		total += sf.rows
		most = max(most, sf.rows)
	}
	if len(parts) == 0 || total == 0 {
		t.Fatalf("%s: nothing spilled", what)
	}
	if even := total / int64(len(parts)); most > 2*even {
		t.Fatalf("%s: a partition holds %d of %d rows over %d partitions", what, most, total, len(parts))
	}
}

// TestSegmentRowsSpreadOverPartitions: the keys one segment of four holds
// share Bucket(h, 4), yet spread over every fanout of spill partitions.
func TestSegmentRowsSpreadOverPartitions(t *testing.T) {
	var hashes []uint64
	for k := int64(0); len(hashes) < 20000; k++ {
		for _, key := range []types.Row{{types.NewInt(k)}, {types.NewText(fmt.Sprint("c", k))}} {
			if h := key.HashKey(); types.Bucket(h, 4) == 1 {
				hashes = append(hashes, h)
			}
		}
	}
	for fanout := 4; fanout <= 64; fanout *= 2 {
		counts := make([]int, fanout)
		for _, h := range hashes {
			counts[spillPart(h, fanout)]++
		}
		if most, even := slices.Max(counts), len(hashes)/fanout; most > even*3/2 {
			t.Fatalf("fanout %d: a partition holds %d keys, even share %d", fanout, most, even)
		}
	}
}

func TestGraceHashJoinMatchesInMemory(t *testing.T) {
	left := testTable(1, "l", "a", "b")
	right := testTable(2, "r", "c", "d")
	lrows := shuffledRows(1500)
	var rrows []types.Row
	for i := 0; i < 2000; i++ {
		// Keys 0..999 match twice, 1000.. miss; probe keys 1000..1499 miss.
		rrows = append(rrows, intRow(int64(i%1000), int64(i)))
	}
	store := &memStore{tables: map[catalog.TableID][]types.Row{1: lrows, 2: rrows}}
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		node := plan.NewHashJoin(kind,
			plan.NewScan(left, []catalog.TableID{1}, nil),
			plan.NewScan(right, []catalog.TableID{2}, nil),
			[]plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
		inMem := drain(t, BuildBatch(ctxWithStore(store), node))

		ctx := spillCtx(store, 4096)
		defer ctx.Spill.Cleanup() // also when a check below fails
		it := newOperator(ctx, node).(*batchHashJoinIter)
		if err := it.build(); err != nil {
			t.Fatal(err)
		}
		checkPartsSpread(t, fmt.Sprintf("%v build", kind), it.buildParts)
		spilled := drain(t, it)

		if len(inMem) != len(spilled) {
			t.Fatalf("%v: row counts differ: %d vs %d", kind, len(inMem), len(spilled))
		}
		key := func(r types.Row) string { return fmt.Sprint(r) }
		counts := map[string]int{}
		for _, r := range inMem {
			counts[key(r)]++
		}
		for _, r := range spilled {
			counts[key(r)]--
		}
		for k, n := range counts {
			if n != 0 {
				t.Fatalf("%v: multiset mismatch at %s (%+d)", kind, k, n)
			}
		}
		if spills, _, _, _ := ctx.Spill.Stats(); spills == 0 {
			t.Fatalf("%v: join did not spill", kind)
		}
		ctx.Spill.Cleanup()
	}
}
