package storage

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
)

// collectBatches drains ScanBatches into flat slices, asserting no batch
// exceeds batchSize.
func collectBatches(t *testing.T, e Engine, opts *ScanOpts, batchSize int) ([]Header, []types.Row) {
	t.Helper()
	var hdrs []Header
	var rows []types.Row
	err := ScanBatches(e, opts, batchSize, func(hs []Header, rs []types.Row) bool {
		if len(hs) != len(rs) {
			t.Fatalf("hdrs/rows length mismatch: %d vs %d", len(hs), len(rs))
		}
		if len(rs) > batchSize {
			t.Fatalf("batch of %d rows exceeds batchSize %d", len(rs), batchSize)
		}
		hdrs = append(hdrs, hs...)
		rows = append(rows, rs...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return hdrs, rows
}

const contractRows = 2*aoColBlockRows + 300 // two sealed blocks plus a tail

// loadContract fills e with contractRows rows of mixed kinds and NULLs, some
// deleted and superseded and — on the heap — some vacuumed, and returns how
// many rows Scan must hand up.
func loadContract(t *testing.T, e Engine) int {
	for i := 0; i < contractRows; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprint("t", i%9)), types.NewInt(int64(i))}
		if i%11 == 0 {
			row[1+i%2] = types.Null
		}
		if i%5 == 0 {
			row[2] = types.NewFloat(float64(i)) // mixed int/float: boxed blocks
		}
		e.Insert(txn.XID(1+i/1000), row)
	}
	for tid := TupleID(3); tid < contractRows; tid += 777 {
		if err := e.SetXmax(tid, 9); err != nil {
			t.Fatal(err)
		}
		e.LinkUpdate(tid, tid+1)
	}
	if h, ok := e.(*Heap); ok {
		return contractRows - h.Vacuum(func(hd Header) bool { return hd.TID%97 == 0 })
	}
	return contractRows
}

type contractCase struct {
	name             string
	e                Engine
	scanned, skipped int64 // blocks of rangePred(0, 1500, 2500)
}

// forEachEngine runs fn as one subtest per engine, loaded by loadContract.
func forEachEngine(t *testing.T, fn func(t *testing.T, tc contractCase, live int)) {
	for _, tc := range []contractCase{
		{"heap", NewHeap(), 3, 6}, // pages 1, 2 and the partial one scan
		{"ao_row", NewAORow(), 3, 6},
		{"ao_column", NewAOColumn(3, CompressionRLEDelta), 2, 1}, // block 0 and the tail scan
	} {
		t.Run(tc.name, func(t *testing.T) { fn(t, tc, loadContract(t, tc.e)) })
	}
}

// scanChecked runs e.Scan over r and holds every chunk to the contract:
// 1..size rows in ascending tuple-id order inside r, headers and projected
// values equal to Fetch, unprojected columns NULL in the column layout. It
// returns the tuple ids handed up.
func scanChecked(t *testing.T, e Engine, r BlockRange, opts *ScanOpts, size int) []TupleID {
	t.Helper()
	var tids []TupleID
	err := e.Scan(r, opts, size, func(ch *Chunk) bool {
		if ch.Len() < 1 || ch.Len() > size || ch.Cols == nil && len(ch.Rows) != ch.Len() {
			t.Fatalf("size %d: chunk of %d rows (%d stored rows)", size, ch.Len(), len(ch.Rows))
		}
		for i := 0; i < ch.Len(); i++ {
			h, want, ok := e.Fetch(ch.First + TupleID(i))
			if !ok || ch.Header(i) != h || len(tids) > 0 && h.TID <= tids[len(tids)-1] || int(h.TID) <= r.Begin || int(h.TID) > r.End {
				t.Fatalf("size %d range %+v: row %d has header %+v after tuple %d; Fetch says %+v %v", size, r, i, ch.Header(i), len(tids), h, ok)
			}
			tids = append(tids, h.TID)
			got := ch.Row(nil, i)
			for c := range want {
				in := opts.cols() == nil || slices.Contains(opts.Cols, c)
				if in && got[c] != want[c] || !in && ch.Cols != nil && !got[c].IsNull() {
					t.Fatalf("size %d cols %v tuple %d col %d: %v, Fetch says %v", size, opts.cols(), h.TID, c, got[c], want[c])
				}
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return tids
}

// TestScanContract holds every engine to Engine.Scan's contract (scanChecked)
// for every batch size and projection, with no tombstone handed up, the
// zone-map block counts, an early stop, and a corrupt column block an error
// on every path that decodes it. The range tests below cover SplitBlocks.
func TestScanContract(t *testing.T) {
	forEachEngine(t, func(t *testing.T, tc contractCase, live int) {
		for _, size := range []int{1, 100, 256, 5000} {
			for _, opts := range []*ScanOpts{nil, {Cols: []int{2}}, {Cols: []int{2, 0}}} {
				if got := len(scanChecked(t, tc.e, WholeTable, opts, size)); got != live {
					t.Fatalf("size %d cols %v: %d rows, %d live", size, opts.cols(), got, live)
				}
			}
		}
		stats := &ScanStats{}
		scanChecked(t, tc.e, WholeTable, &ScanOpts{Pred: rangePred(0, 1500, 2500), Stats: stats}, 256)
		if stats.BlocksScanned.Load() != tc.scanned || stats.BlocksSkipped.Load() != tc.skipped {
			t.Fatalf("blocks scanned %d skipped %d, want %d and %d", stats.BlocksScanned.Load(), stats.BlocksSkipped.Load(), tc.scanned, tc.skipped)
		}
		calls := 0
		if err := tc.e.Scan(WholeTable, nil, 100, func(*Chunk) bool { calls++; return false }); err != nil || calls != 1 {
			t.Fatalf("a stopped scan made %d calls (err %v)", calls, err)
		}
		a, ok := tc.e.(*AOColumn)
		if !ok {
			return
		}
		a.CorruptBlockForTest(1, 1)
		all := func(*Chunk) bool { return true }
		for path, err := range map[string]error{
			"whole table": a.Scan(WholeTable, nil, 256, all),
			"block range": a.Scan(BlockRange{Begin: aoColBlockRows, End: contractRows}, &ScanOpts{Cols: []int{1}}, 256, all),
			"row view":    ScanBatches(a, nil, 256, func([]Header, []types.Row) bool { return true }),
		} {
			if err == nil || !strings.Contains(err.Error(), "block 1 column 1") {
				t.Errorf("%s over a corrupt block: err %v", path, err)
			}
		}
		if err := a.Scan(WholeTable, &ScanOpts{Cols: []int{0, 2}}, 256, all); err != nil {
			t.Errorf("a scan that does not decode the damaged column: %v", err)
		}
	})
}

// TestScanBatchesMatchesForEach: the row view hands up, batch by batch, the
// rows and headers Fetch returns for exactly the tuples Scan visits.
func TestScanBatchesMatchesForEach(t *testing.T) {
	forEachEngine(t, func(t *testing.T, tc contractCase, live int) {
		hdrs, rows := collectBatches(t, tc.e, nil, 64)
		for i, h := range hdrs {
			if fh, want, ok := tc.e.Fetch(h.TID); !ok || fh != h || !rows[i].Equal(want) {
				t.Fatalf("row %d: %+v %v; Fetch says %+v %v", i, h, rows[i], fh, want)
			}
		}
		if tids := scanChecked(t, tc.e, WholeTable, nil, 64); len(hdrs) != live || len(tids) != live {
			t.Fatalf("row view %d rows, Scan %d, live %d", len(hdrs), len(tids), live)
		}
	})
}

func TestAOColumnBatchProjection(t *testing.T) {
	a := NewAOColumn(3, CompressionRLEDelta)
	for i := 0; i < 5000; i++ { // crosses the seal threshold: sealed + tail
		a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i * 2)), types.NewText("pad")})
	}
	_, rows := collectBatches(t, a, &ScanOpts{Cols: []int{1}}, 256)
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
	all := func(*Chunk) bool { return true }
	a.Scan(WholeTable, &ScanOpts{Cols: []int{1}}, 256, all)
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
	a.Scan(WholeTable, nil, 256, all)
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
