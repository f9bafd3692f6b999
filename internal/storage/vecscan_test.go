package storage

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestScanSurvivesSealDuringScan: an INSERT that seals the tail while a scan
// is in flight (RowExclusive is compatible with the scan's AccessShare) must
// not make the scan lose its place. 4 000 tail rows, batches of 100, 200 rows
// inserted from the first callback — the seal lands at row 4 096 — and the
// scan still returns every row that existed when it began, in tuple-id order,
// through the vector scan and the row view alike.
func TestScanSurvivesSealDuringScan(t *testing.T) {
	const before, during = 4000, 200
	load := func() *AOColumn {
		a := NewAOColumn(2, CompressionRLEDelta)
		for i := 0; i < before; i++ {
			a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewText(fmt.Sprint("v", i))})
		}
		return a
	}
	grow := func(a *AOColumn) {
		for i := 0; i < during; i++ {
			a.Insert(2, types.Row{types.NewInt(int64(before + i)), types.NewText("late")})
		}
	}
	check := func(name string, seen []int64, atLeast int) {
		t.Helper()
		if len(seen) < atLeast {
			t.Fatalf("%s: scan returned %d rows, %d existed before it began", name, len(seen), atLeast)
		}
		for i, k := range seen {
			if k != int64(i) {
				t.Fatalf("%s: row %d has key %d", name, i, k)
			}
		}
	}
	a, first := load(), true
	var seen []int64
	err := a.Scan(nil, 100, func(ch *Chunk) bool {
		if first {
			first = false
			grow(a)
		}
		if int(ch.First) != len(seen)+1 {
			t.Fatalf("chunk starts at tuple %d after %d rows", ch.First, len(seen))
		}
		seen = append(seen, ch.Cols.Vec(0).Ints...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	check("vectors", seen, before)
	if len(seen) != before+during {
		t.Fatalf("scan saw %d of %d rows", len(seen), before+during)
	}
	a, first = load(), true
	seen = nil
	ScanBatches(a, nil, 100, func(_ []Header, rows []types.Row) bool {
		if first {
			first = false
			grow(a)
		}
		for _, r := range rows {
			seen = append(seen, r[0].Int())
		}
		return true
	})
	check("row adapter", seen, before)
}

// TestScanRacesSealingWriter runs scans beside a writer that keeps sealing
// blocks (the race step's view of shared cached vectors): every scan sees at
// least the rows committed before it began, in order.
func TestScanRacesSealingWriter(t *testing.T) {
	a := NewAOColumn(2, CompressionZlib)
	a.SetBlockCache(NewBlockCache(64 << 10)) // small: blocks are evicted and re-decoded
	const total = 3*aoColBlockRows + 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewText("pad")})
		}
	}()
	for scanner := 0; scanner < 3; scanner++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a.RowCount() < total {
				floor, next := a.RowCount(), int64(0)
				err := a.Scan(&ScanOpts{Cols: []int{0}}, 256, func(ch *Chunk) bool {
					for i := range ch.Xmins {
						if got := ch.Cols.Vecs[0].At(ch.Cols.Lo + i).Int(); got != next {
							t.Errorf("row %d has key %d", next, got)
							return false
						}
						next++
					}
					return true
				})
				if err != nil || int(next) < floor {
					t.Errorf("scan saw %d rows, %d were stored before it began (err %v)", next, floor, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScanReportsDecodeError: a sealed block whose bytes do not decode fails
// the vector scan instead of shortening the answer.
func TestScanReportsDecodeError(t *testing.T) {
	for _, codec := range []Compression{CompressionNone, CompressionZlib, CompressionRLEDelta} {
		a := loadAOColumn(3 * aoColBlockRows)
		a.codec = codec
		rows := 0
		count := func(ch *Chunk) bool { rows += len(ch.Xmins); return true }
		if err := a.Scan(nil, 256, count); err != nil || rows != 3*aoColBlockRows {
			t.Fatalf("%v: intact table: %d rows, err %v", codec, rows, err)
		}
		a.CorruptBlockForTest(1, 1)
		rows = 0
		if err := a.Scan(nil, 256, count); err == nil {
			t.Fatalf("%v: scan over a corrupt block returned %d rows and no error", codec, rows)
		}
		// A scan that does not ask for the damaged column never decodes it.
		if err := a.Scan(&ScanOpts{Cols: []int{0}}, 256, count); err != nil {
			t.Fatalf("%v: scan of the intact column: %v", codec, err)
		}
	}
}

// TestVectorScanMatchesRows: the column chunks' vectors, read through the
// ScanBatches row view, hold exactly the stored rows — kinds, NULLs,
// mixed-kind (boxed) blocks, deleted and updated rows — for every batch size
// and projection, the columns outside it NULL.
func TestVectorScanMatchesRows(t *testing.T) {
	a := NewAOColumn(3, CompressionRLEDelta)
	loadContract(t, a)
	for _, size := range []int{1, 100, 256, 5000} {
		for _, opts := range []*ScanOpts{nil, {Cols: []int{2}}, {Cols: []int{2, 0}}} {
			hdrs, rows := collectBatches(t, a, opts, size)
			for n, h := range hdrs {
				_, want, _ := a.Fetch(h.TID)
				for c := range want {
					if in := opts.cols() == nil || slices.Contains(opts.Cols, c); in && rows[n][c] != want[c] || !in && !rows[n][c].IsNull() {
						t.Fatalf("size %d cols %v tuple %d col %d: vector %v (%v), stored %v (%v)", size, opts.cols(), h.TID, c, rows[n][c], rows[n][c].Kind(), want[c], want[c].Kind())
					}
				}
			}
			if len(rows) != a.RowCount() {
				t.Fatalf("size %d cols %v: %d rows, %d stored", size, opts.cols(), len(rows), a.RowCount())
			}
		}
	}
}

// benchBlock is one block's worth of scan_aocol-shaped rows.
func benchBlock(codec Compression) *AOColumn {
	a := NewAOColumn(6, codec)
	for i := 0; i < aoColBlockRows; i++ {
		a.Insert(2, types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 64)), types.NewInt(int64(i / 128)),
			types.NewInt(int64(i % 50)), types.NewFloat(float64(i%4000) / 4), types.NewText(fmt.Sprintf("tag-%02d", i%16)),
		})
	}
	return a
}

var benchSink int

// BenchmarkDecodeBlock: cold decode of one 4 096-row, six-column block to
// vectors, per codec (ns/op and B/op are per block).
func BenchmarkDecodeBlock(b *testing.B) {
	for _, codec := range []Compression{CompressionNone, CompressionRLEDelta, CompressionZlib} {
		b.Run(codec.String(), func(b *testing.B) {
			a := benchBlock(codec)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ReleaseCachedBlocks()
				if err := a.Scan(nil, 256, func(ch *Chunk) bool { benchSink += len(ch.Xmins); return true }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanWarm: Engine.Scan over a loaded table, its column blocks
// already decoded — what a repeated analytical query pays the storage layer
// per row on each engine (ns/row; B/op is per scan).
func BenchmarkScanWarm(b *testing.B) {
	const rows = 16 * aoColBlockRows
	for name, e := range map[string]Engine{"heap": NewHeap(), "aorow": NewAORow(), "aocol": NewAOColumn(6, CompressionRLEDelta)} {
		for i := 0; i < rows; i++ {
			e.Insert(2, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 64)), types.NewInt(0), types.NewInt(0), types.NewFloat(1), types.NewText("tag")})
		}
		scan := func(b *testing.B) {
			if err := e.Scan(nil, 256, func(ch *Chunk) bool { benchSink += ch.Len(); return true }); err != nil {
				b.Fatal(err)
			}
		}
		scan(b) // decode every block into the cache
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scan(b)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
