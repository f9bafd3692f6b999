package storage

import (
	"slices"
	"testing"

	"repro/internal/types"
)

// checkCover verifies ranges are ascending, disjoint, and cover [0, count).
func checkCover(t *testing.T, ranges []BlockRange, count, maxParts int) {
	t.Helper()
	if count == 0 {
		if len(ranges) != 0 {
			t.Fatalf("empty table produced ranges: %v", ranges)
		}
		return
	}
	if len(ranges) == 0 || len(ranges) > maxParts {
		t.Fatalf("range count %d (max %d)", len(ranges), maxParts)
	}
	pos := 0
	for i, r := range ranges {
		if r.Begin != pos || r.End <= r.Begin {
			t.Fatalf("range %d = %+v; want Begin=%d, non-empty", i, r, pos)
		}
		pos = r.End
	}
	if pos != count {
		t.Fatalf("ranges cover [0,%d), table has %d rows", pos, count)
	}
}

func TestSplitBlocksEngines(t *testing.T) {
	engines := map[string]func(n int) Engine{
		"heap": func(n int) Engine {
			h := NewHeap()
			for i := 0; i < n; i++ {
				h.Insert(1, types.Row{types.NewInt(int64(i))})
			}
			return h
		},
		"aorow": func(n int) Engine {
			a := NewAORow()
			for i := 0; i < n; i++ {
				a.Insert(1, types.Row{types.NewInt(int64(i))})
			}
			return a
		},
		"aocolumn": func(n int) Engine {
			a := NewAOColumn(1, CompressionRLEDelta)
			for i := 0; i < n; i++ {
				a.Insert(1, types.Row{types.NewInt(int64(i))})
			}
			return a // unsealed tail left in place on purpose
		},
	}
	for name, mk := range engines {
		for _, rows := range []int{0, 1, 5, 4096, 10000} {
			for _, parts := range []int{1, 3, 8, 64} {
				e := mk(rows)
				checkCover(t, e.SplitBlocks(parts), rows, parts)
			}
		}
		// parallelism far beyond row count must not produce empty ranges.
		e := mk(2)
		if got := e.SplitBlocks(16); len(got) > 2 {
			t.Fatalf("%s: %d ranges for 2 rows", name, len(got))
		}
	}
}

// TestSplitBlocksAOColumnAlignment: AO-column ranges respect sealed-block
// boundaries so workers never share a decode unit.
func TestSplitBlocksAOColumnAlignment(t *testing.T) {
	a := NewAOColumn(1, CompressionRLEDelta)
	for i := 0; i < 3*aoColBlockRows+100; i++ { // 3 sealed blocks + tail
		a.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	ranges := a.SplitBlocks(2)
	checkCover(t, ranges, 3*aoColBlockRows+100, 2)
	for _, r := range ranges {
		if r.Begin%aoColBlockRows != 0 {
			t.Fatalf("range %+v not aligned to block boundary", r)
		}
	}
	// More workers than natural split units: one range per unit at most.
	ranges = a.SplitBlocks(100)
	checkCover(t, ranges, 3*aoColBlockRows+100, 4) // 3 blocks + tail
}

// TestForEachBatchRangeMatchesFullScan: concatenating the scans of the
// SplitBlocks ranges reproduces the whole-table scan exactly, for any split.
func TestForEachBatchRangeMatchesFullScan(t *testing.T) {
	forEachEngine(t, func(t *testing.T, tc contractCase, live int) {
		full := scanChecked(t, tc.e, WholeTable, nil, 256)
		for _, parts := range []int{1, 3, 100} {
			var got []TupleID
			for _, rng := range tc.e.SplitBlocks(parts) {
				got = append(got, scanChecked(t, tc.e, rng, nil, 256)...)
			}
			if !slices.Equal(got, full) || len(full) != live {
				t.Fatalf("%d parts: the ranges hand up %d rows, the whole table %d of %d live", parts, len(got), len(full), live)
			}
		}
	})
}

// TestForEachBatchRangeProjection: range scans honour column projection.
func TestForEachBatchRangeProjection(t *testing.T) {
	forEachEngine(t, func(t *testing.T, tc contractCase, live int) {
		seen := 0
		for _, rng := range tc.e.SplitBlocks(2) {
			seen += len(scanChecked(t, tc.e, rng, &ScanOpts{Cols: []int{1}}, 256))
		}
		if seen != live {
			t.Fatalf("rows: %d, %d live", seen, live)
		}
	})
}
