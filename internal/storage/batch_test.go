package storage

import (
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

// collectBatches drains ScanBatches into flat slices, asserting no batch
// exceeds batchSize.
func collectBatches(t *testing.T, e Engine, cols []int, batchSize int) ([]Header, []types.Row) {
	t.Helper()
	var opts *ScanOpts
	if cols != nil {
		opts = &ScanOpts{Cols: cols}
	}
	var hdrs []Header
	var rows []types.Row
	ScanBatches(e, opts, batchSize, func(hs []Header, rs []types.Row) bool {
		if len(hs) != len(rs) {
			t.Fatalf("hdrs/rows length mismatch: %d vs %d", len(hs), len(rs))
		}
		if len(rs) > batchSize {
			t.Fatalf("batch of %d rows exceeds batchSize %d", len(rs), batchSize)
		}
		hdrs = append(hdrs, hs...)
		for _, r := range rs {
			rows = append(rows, r)
		}
		return true
	})
	return hdrs, rows
}

func TestScanBatchesMatchesForEach(t *testing.T) {
	engines := map[string]Engine{
		"heap":      NewHeap(),
		"ao_row":    NewAORow(),
		"ao_column": NewAOColumn(2, CompressionRLEDelta),
	}
	const n = 1000 // spans several batches of 64
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < n; i++ {
				e.Insert(txn.XID(1+i%3), types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))})
			}
			var wantHdrs []Header
			var wantRows []types.Row
			e.ForEach(func(h Header, row types.Row) bool {
				wantHdrs = append(wantHdrs, h)
				wantRows = append(wantRows, row.Clone())
				return true
			})
			gotHdrs, gotRows := collectBatches(t, e, nil, 64)
			if len(gotRows) != n || len(wantRows) != n {
				t.Fatalf("row counts: batch=%d row=%d want=%d", len(gotRows), len(wantRows), n)
			}
			for i := range wantRows {
				if gotHdrs[i] != wantHdrs[i] {
					t.Fatalf("header %d: %+v vs %+v", i, gotHdrs[i], wantHdrs[i])
				}
				if !gotRows[i].Equal(wantRows[i]) {
					t.Fatalf("row %d: %v vs %v", i, gotRows[i], wantRows[i])
				}
			}
		})
	}
}

func TestAOColumnBatchProjection(t *testing.T) {
	a := NewAOColumn(3, CompressionRLEDelta)
	for i := 0; i < 5000; i++ { // crosses the seal threshold: sealed + tail
		a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 2)), types.NewText("pad")})
	}
	_, rows := collectBatches(t, a, []int{1}, 256)
	if len(rows) != 5000 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i, r := range rows {
		if !r[0].IsNull() || !r[2].IsNull() {
			t.Fatalf("row %d: unrequested columns not NULL: %v", i, r)
		}
		if r[1].Int() != int64(i*2) {
			t.Fatalf("row %d: projected column wrong: %v", i, r)
		}
	}
}

func TestAOColumnLazyColumnDecode(t *testing.T) {
	a := NewAOColumn(3, CompressionRLEDelta)
	for i := 0; i < aoColBlockRows; i++ { // exactly one sealed block
		a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 2)), types.NewText("pad")})
	}
	a.ForEachBatch(&ScanOpts{Cols: []int{1}}, 256, func([]Header, []types.Row) bool { return true })
	db, ok := a.cache.peek(blockKey{engine: a.id, block: 0})
	if !ok || db == nil {
		t.Fatal("block not cached")
	}
	if db.cols[1] == nil {
		t.Fatal("requested column not decoded")
	}
	if db.cols[0] != nil || db.cols[2] != nil {
		t.Fatal("projection decoded unrequested columns")
	}
	// A later wider scan fills in the rest without disturbing column 1.
	prev := db.cols[1]
	a.ForEachBatch(nil, 256, func([]Header, []types.Row) bool { return true })
	if db.cols[0] == nil || db.cols[2] == nil {
		t.Fatal("full scan did not decode remaining columns")
	}
	if db.cols[1] != prev {
		t.Fatal("already-decoded column was re-decoded")
	}
}

func TestScanBatchesEarlyStop(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 100; i++ {
		h.Insert(1, types.Row{types.NewInt(int64(i))})
	}
	calls := 0
	ScanBatches(h, nil, 10, func(hs []Header, rs []types.Row) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("scan continued after fn returned false: %d calls", calls)
	}
}
