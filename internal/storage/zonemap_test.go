package storage

import (
	"testing"

	"repro/internal/types"
)

// eq builds the conjunction col = v.
func eqPred(col int, v int64) []types.Conjunct {
	return []types.Conjunct{{Col: col, Op: types.OpEqual, Val: types.NewInt(v)}}
}

// rangePred builds col >= lo AND col <= hi.
func rangePred(col int, lo, hi int64) []types.Conjunct {
	return []types.Conjunct{
		{Col: col, Op: types.OpGreater | types.OpEqual, Val: types.NewInt(lo)},
		{Col: col, Op: types.OpLess | types.OpEqual, Val: types.NewInt(hi)},
	}
}

// scanWith runs a predicated batch scan and returns the emitted rows plus
// the scan counters.
func scanWith(e Engine, pred []types.Conjunct) ([]types.Row, *ScanStats) {
	stats := &ScanStats{}
	var rows []types.Row
	e.Scan(&ScanOpts{Pred: pred, Stats: stats}, 256, func(ch *Chunk) bool {
		for i := 0; i < ch.Len(); i++ {
			rows = append(rows, ch.Row(nil, i))
		}
		return true
	})
	return rows, stats
}

// TestAOColumnZoneMapSkipsBlocks: a clustered-key point predicate decodes
// only the owning block; every row the full filter would keep is still
// emitted (skipping is conservative, never lossy).
func TestAOColumnZoneMapSkipsBlocks(t *testing.T) {
	a := NewAOColumn(2, CompressionRLEDelta)
	const n = 4 * aoColBlockRows
	for i := 0; i < n; i++ {
		a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
	}
	a.Seal()

	target := int64(2*aoColBlockRows + 17)
	rows, stats := scanWith(a, eqPred(0, target))
	// The engine does not filter rows — it skips blocks. Exactly one block
	// (aoColBlockRows rows) survives and it contains the target.
	if len(rows) != aoColBlockRows {
		t.Fatalf("rows emitted: %d, want one block (%d)", len(rows), aoColBlockRows)
	}
	found := false
	for _, r := range rows {
		if r[0].Int() == target {
			found = true
		}
	}
	if !found {
		t.Fatal("target row skipped")
	}
	if got := stats.BlocksSkipped.Load(); got != 3 {
		t.Fatalf("blocks skipped: %d, want 3", got)
	}
	if got := stats.BlocksScanned.Load(); got != 1 {
		t.Fatalf("blocks scanned: %d, want 1", got)
	}

	// A predicate on an unclustered column can't skip anything.
	_, stats = scanWith(a, eqPred(1, 3))
	if got := stats.BlocksSkipped.Load(); got != 0 {
		t.Fatalf("unclustered predicate skipped %d blocks", got)
	}

	// An impossible predicate skips every block.
	rows, stats = scanWith(a, eqPred(0, int64(n+100)))
	if len(rows) != 0 || stats.BlocksSkipped.Load() != 4 {
		t.Fatalf("impossible predicate: rows=%d skipped=%d", len(rows), stats.BlocksSkipped.Load())
	}
}

// TestZoneMapNullHandling: all-NULL blocks are skipped for comparisons
// (NULL never satisfies col <op> const), and NULL-bearing blocks with
// matching non-null values are kept.
func TestZoneMapNullHandling(t *testing.T) {
	a := NewAOColumn(1, CompressionRLEDelta)
	for i := 0; i < aoColBlockRows; i++ { // block 0: all NULL
		a.Insert(1, types.Row{types.Null})
	}
	for i := 0; i < aoColBlockRows; i++ { // block 1: NULLs mixed with values
		if i%2 == 0 {
			a.Insert(1, types.Row{types.NewInt(int64(i))})
		} else {
			a.Insert(1, types.Row{types.Null})
		}
	}
	a.Seal()
	rows, stats := scanWith(a, eqPred(0, 10))
	if stats.BlocksSkipped.Load() != 1 || stats.BlocksScanned.Load() != 1 {
		t.Fatalf("scanned=%d skipped=%d", stats.BlocksScanned.Load(), stats.BlocksSkipped.Load())
	}
	found := false
	for _, r := range rows {
		if !r[0].IsNull() && r[0].Int() == 10 {
			found = true
		}
	}
	if !found {
		t.Fatal("matching row in NULL-bearing block was lost")
	}
}

// TestZoneMapOperators exercises the per-operator zone tests directly.
func TestZoneMapOperators(t *testing.T) {
	z := &ZoneMap{
		Rows: 10, MinLen: 1,
		Mins:    []types.Datum{types.NewInt(100)},
		Maxs:    []types.Datum{types.NewInt(200)},
		NullCnt: []int{2},
	}
	cases := []struct {
		op   string
		val  int64
		keep bool
	}{
		{"=", 150, true}, {"=", 99, false}, {"=", 201, false}, {"=", 100, true}, {"=", 200, true},
		{"<", 100, false}, {"<", 101, true},
		{"<=", 99, false}, {"<=", 100, true},
		{">", 200, false}, {">", 199, true},
		{">=", 201, false}, {">=", 200, true},
		{"<>", 150, true},
	}
	for _, c := range cases {
		p := []types.Conjunct{{Col: 0, Op: types.ParseCmpOp(c.op), Val: types.NewInt(c.val)}}
		if got := z.admits(p); got != c.keep {
			t.Errorf("%s %d: match=%v want %v", c.op, c.val, got, c.keep)
		}
	}
	// <> is only impossible when every non-null value equals the constant.
	point := &ZoneMap{Rows: 5, MinLen: 1,
		Mins: []types.Datum{types.NewInt(7)}, Maxs: []types.Datum{types.NewInt(7)}, NullCnt: []int{0}}
	ne := []types.Conjunct{{Col: 0, Op: types.OpLess | types.OpGreater, Val: types.NewInt(7)}}
	if point.admits(ne) {
		t.Error("<> over a constant block should skip")
	}
	// IN: kept iff some candidate falls inside [min, max].
	in := []types.Conjunct{{Col: 0, Op: types.OpIn, In: []types.Datum{types.NewInt(1), types.NewInt(300)}}}
	if z.admits(in) {
		t.Error("IN with all candidates outside bounds should skip")
	}
	in[0].In = append(in[0].In, types.NewInt(150))
	if !z.admits(in) {
		t.Error("IN with an in-bounds candidate must keep")
	}
	// All-NULL column: comparisons can never match.
	allNull := &ZoneMap{Rows: 4, MinLen: 1,
		Mins: make([]types.Datum, 1), Maxs: make([]types.Datum, 1), NullCnt: []int{4}}
	if allNull.admits(eqPred(0, 1)) {
		t.Error("all-NULL block should skip comparisons")
	}
	// Type-mismatched constant: same Compare total order as the row filter,
	// so a text constant against an int column skips (kind-ordered) exactly
	// when the row filter would reject every row.
	text := []types.Conjunct{{Col: 0, Op: types.OpEqual, Val: types.NewText("x")}}
	if z.admits(text) {
		t.Error("text = over int bounds should skip under kind ordering")
	}
	// Out-of-range column offset: never skip.
	wide := []types.Conjunct{{Col: 5, Op: types.OpEqual, Val: types.NewInt(1)}}
	if !z.admits(wide) {
		t.Error("unknown column must not skip")
	}
	// Empty zone (no rows summarized): never skip.
	if !(&ZoneMap{}).admits(eqPred(0, 1)) {
		t.Error("empty zone must not skip")
	}
}

// TestHeapLazyPageZones: the row engines build page summaries lazily and
// skip full pages; results match the unpredicated scan filtered by hand.
func TestHeapLazyPageZones(t *testing.T) {
	for name, mk := range map[string]func() Engine{
		"heap": func() Engine {
			h := NewHeap()
			for i := 0; i < 3*zonePageRows+100; i++ {
				h.Insert(1, types.Row{types.NewInt(int64(i))})
			}
			return h
		},
		"aorow": func() Engine {
			a := NewAORow()
			for i := 0; i < 3*zonePageRows+100; i++ {
				a.Insert(1, types.Row{types.NewInt(int64(i))})
			}
			return a
		},
	} {
		e := mk()
		target := int64(zonePageRows + 5)
		rows, stats := scanWith(e, eqPred(0, target))
		// Pages 0 and 2 skip; page 1 and the partial trailing page scan.
		if got := stats.BlocksSkipped.Load(); got != 2 {
			t.Fatalf("%s: pages skipped: %d, want 2", name, got)
		}
		if got := stats.BlocksScanned.Load(); got != 2 {
			t.Fatalf("%s: pages scanned: %d, want 2", name, got)
		}
		found := false
		for _, r := range rows {
			if r[0].Int() == target {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: target row lost", name)
		}
	}
}

// TestHeapZonesSurviveVacuumAndResetOnTruncate: vacuumed rows only shrink a
// page's live values (stale summaries stay conservative); TRUNCATE resets.
func TestHeapZonesSurviveVacuumAndResetOnTruncate(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 2*zonePageRows; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	// Build summaries.
	if rows, _ := scanWith(h, eqPred(0, 3)); len(rows) != zonePageRows {
		t.Fatalf("pre-vacuum rows: %d", len(rows))
	}
	// Vacuum everything in page 0.
	vacuum(h, func(hdr Header) bool { return int(hdr.TID) <= zonePageRows })
	rows, _ := scanWith(h, eqPred(0, 3))
	if len(rows) != 0 {
		t.Fatalf("post-vacuum rows: %d (tombstones emitted?)", len(rows))
	}
	// Truncate, reload different values: old summaries must not skip them.
	h.Truncate()
	for i := 0; i < zonePageRows; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i + 1_000_000))})
	}
	rows, _ = scanWith(h, eqPred(0, 1_000_003))
	found := false
	for _, r := range rows {
		if r[0].Int() == 1_000_003 {
			found = true
		}
	}
	if !found {
		t.Fatal("stale zone map survived TRUNCATE")
	}
}

// TestRowScanStatsOnlyCountsPages: a row-engine scan with counters but no
// predicate counts every zone page without page-chunking its batches.
func TestRowScanStatsOnlyCountsPages(t *testing.T) {
	h := NewHeap()
	const n = 10*zonePageRows + 100
	for i := 0; i < n; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	statsOnly := &ScanStats{}
	maxBatch := 0
	h.Scan(&ScanOpts{Stats: statsOnly}, 4096, func(ch *Chunk) bool {
		maxBatch = max(maxBatch, ch.Len())
		return true
	})
	if got := statsOnly.BlocksScanned.Load(); got != 11 {
		t.Fatalf("stats-only pages scanned: %d, want 11", got)
	}
	if maxBatch != 4096 {
		t.Fatalf("stats-only scan chunked batches to %d, want full 4096", maxBatch)
	}
}
