package storage

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/txn"
	"repro/internal/types"
)

func row(vals ...int64) types.Row {
	r := make(types.Row, len(vals))
	for i, v := range vals {
		r[i] = types.NewInt(v)
	}
	return r
}

// engines under test, by constructor.
func engines() map[string]func() Engine {
	return map[string]func() Engine{
		"heap":      func() Engine { return NewHeap() },
		"ao_row":    func() Engine { return NewAORow() },
		"ao_column": func() Engine { return NewAOColumn(2, CompressionRLEDelta) },
	}
}

func TestEngineInsertFetchForEach(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			e := mk()
			var tids []TupleID
			for i := int64(0); i < 100; i++ {
				tids = append(tids, e.Insert(txn.XID(1), row(i, i*10)))
			}
			if e.RowCount() != 100 {
				t.Fatalf("RowCount = %d", e.RowCount())
			}
			h, r, ok := e.Fetch(tids[42])
			if !ok || h.Xmin != 1 || r[0].Int() != 42 || r[1].Int() != 420 {
				t.Fatalf("Fetch: %v %v %v", h, r, ok)
			}
			_, rows := collectBatches(t, e, nil, 7)
			for i, r := range rows {
				if r[0].Int() != int64(i) || r[1].Int() != int64(i*10) {
					t.Fatalf("scan order: row %d = %v", i, r)
				}
			}
			if len(rows) != 100 {
				t.Fatalf("scan visited %d", len(rows))
			}
		})
	}
}

func TestEngineXmaxProtocol(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			e := mk()
			tid := e.Insert(1, row(1, 2))
			if err := e.SetXmax(tid, 5); err != nil {
				t.Fatal(err)
			}
			// Same xid re-stamp is fine; other xid conflicts.
			if err := e.SetXmax(tid, 5); err != nil {
				t.Fatal(err)
			}
			err := e.SetXmax(tid, 6)
			var conc *ErrConcurrentWrite
			if !errors.As(err, &conc) || conc.Holder != 5 {
				t.Fatalf("conflict err = %v", err)
			}
			// Clear with wrong prev is a no-op; right prev clears.
			e.ClearXmax(tid, 99)
			if h, _, _ := e.Fetch(tid); h.Xmax != 5 {
				t.Fatal("wrong-prev clear removed xmax")
			}
			e.ClearXmax(tid, 5)
			if h, _, _ := e.Fetch(tid); h.Xmax != txn.InvalidXID {
				t.Fatal("xmax not cleared")
			}
			// Update chain linkage.
			tid2 := e.Insert(2, row(1, 3))
			e.LinkUpdate(tid, tid2)
			if h, _, _ := e.Fetch(tid); h.UpdatedTo != tid2 {
				t.Fatal("LinkUpdate not recorded")
			}
		})
	}
}

func TestEngineTruncate(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			e := mk()
			for i := int64(0); i < 10; i++ {
				e.Insert(1, row(i, i))
			}
			e.Truncate()
			if e.RowCount() != 0 {
				t.Fatal("truncate left rows")
			}
			if _, _, ok := e.Fetch(1); ok {
				t.Fatal("fetch after truncate")
			}
			// Still usable.
			e.Insert(2, row(7, 7))
			if e.RowCount() != 1 {
				t.Fatal("insert after truncate")
			}
		})
	}
}

// vacuum prunes every stored version isDead picks, as a segment's VACUUM
// does, and returns how many it reclaimed.
func vacuum(h *Heap, isDead func(Header) bool) int {
	n := 0
	for tid := TupleID(1); int(tid) <= h.RowCount(); tid++ {
		if hdr, _, ok := h.Fetch(tid); ok && isDead(hdr) && h.Prune(tid) {
			n++
		}
	}
	return n
}

func TestHeapVacuum(t *testing.T) {
	h := NewHeap()
	t1 := h.Insert(1, row(1, 1))
	t2 := h.Insert(1, row(2, 2))
	_ = h.SetXmax(t1, 2)
	reclaimed := vacuum(h, func(hdr Header) bool { return hdr.Xmax == 2 })
	if reclaimed != 1 {
		t.Fatalf("reclaimed = %d", reclaimed)
	}
	if _, _, ok := h.Fetch(t1); ok {
		t.Fatal("dead tuple still fetchable")
	}
	if _, _, ok := h.Fetch(t2); !ok {
		t.Fatal("live tuple lost")
	}
	if _, rows := collectBatches(t, h, nil, 256); len(rows) != 1 {
		t.Fatalf("scan sees %d rows after vacuum", len(rows))
	}
}

func TestAOColumnProjectedScanAndSeal(t *testing.T) {
	a := NewAOColumn(3, CompressionRLEDelta)
	for i := int64(0); i < 10000; i++ {
		a.Insert(1, types.Row{types.NewInt(i), types.NewText(fmt.Sprintf("v%d", i)), types.NewInt(i % 7)})
	}
	a.Seal()
	// Projected scan decodes only column 2.
	var sum int64
	_, rows := collectBatches(t, a, &ScanOpts{Cols: []int{2}}, 256)
	for _, r := range rows {
		if !r[1].IsNull() {
			t.Fatal("unrequested column materialized")
		}
		sum += r[2].Int()
	}
	var want int64
	for i := int64(0); i < 10000; i++ {
		want += i % 7
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestAOColumnCompressionShrinksSequentialInts(t *testing.T) {
	comp := NewAOColumn(1, CompressionRLEDelta)
	raw := NewAOColumn(1, CompressionNone)
	for i := int64(0); i < 50000; i++ {
		comp.Insert(1, row(i))
		raw.Insert(1, row(i))
	}
	comp.Seal()
	raw.Seal()
	if comp.Bytes() >= raw.Bytes()/10 {
		t.Fatalf("RLE-delta: %d bytes vs raw %d — expected >10x compression on a sequence",
			comp.Bytes(), raw.Bytes())
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	vals := []types.Datum{
		types.NewInt(1), types.NewInt(2), types.NewInt(3), types.Null,
		types.NewInt(-100), types.NewInt(1 << 40), types.NewBool(true), types.NewDate(19000),
	}
	for _, codec := range []Compression{CompressionNone, CompressionZlib, CompressionRLEDelta} {
		data, used := compressBlock(codec, vals)
		got, err := decompressBlock(used, data, len(vals))
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		for i := range vals {
			if g := got.At(i); types.Compare(g, vals[i]) != 0 || g.Kind() != vals[i].Kind() {
				t.Fatalf("%v: [%d] = %v, want %v", codec, i, g, vals[i])
			}
		}
	}
}

func TestCompressionRoundTripMixedKinds(t *testing.T) {
	vals := []types.Datum{
		types.NewText("hello"), types.NewFloat(3.25), types.NewInt(9), types.Null,
		types.NewText(""), types.NewBool(false),
	}
	// RLE falls back to zlib for non-integer blocks.
	data, used := compressBlock(CompressionRLEDelta, vals)
	if used != CompressionZlib {
		t.Fatalf("fallback codec = %v", used)
	}
	got, err := decompressBlock(used, data, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if g := got.At(i); types.Compare(g, vals[i]) != 0 || g.Kind() != vals[i].Kind() {
			t.Fatalf("[%d] = %v, want %v", i, g, vals[i])
		}
	}
}

func TestQuickRLEDeltaRoundTrip(t *testing.T) {
	f := func(ints []int64) bool {
		vals := make([]types.Datum, len(ints))
		for i, v := range ints {
			vals[i] = types.NewInt(v)
		}
		data := rleDeltaEncode(vals)
		got, err := rleDeltaDecode(data, len(vals))
		if err != nil || got.Len() != len(vals) {
			return false
		}
		for i := range vals {
			if got.At(i).Int() != vals[i].Int() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDatumCodecRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64, b bool) bool {
		vals := []types.Datum{
			types.NewInt(i), types.NewText(s), types.NewFloat(fl), types.NewBool(b), types.Null,
		}
		data := encodeDatums(vals)
		got, err := decodeVec(data, len(vals))
		if err != nil {
			return false
		}
		for j := range vals {
			g := got.At(j)
			if g.Kind() != vals[j].Kind() {
				return false
			}
			if vals[j].Kind() == types.KindFloat {
				if g.Float() != vals[j].Float() {
					return false
				}
			} else if types.Compare(g, vals[j]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHashIndex(t *testing.T) {
	ix := NewHashIndex([]int{0})
	for i := int64(1); i <= 100; i++ {
		ix.Insert(row(i, i*2), TupleID(i))
	}
	if ix.Len() != 100 {
		t.Fatalf("Len = %d", ix.Len())
	}
	tids := ix.Lookup([]types.Datum{types.NewInt(37)})
	found := false
	for _, tid := range tids {
		if tid == 37 {
			found = true
		}
	}
	if !found {
		t.Fatalf("lookup(37) = %v", tids)
	}
	if !ix.Matches(row(37, 74), []types.Datum{types.NewInt(37)}) {
		t.Fatal("Matches")
	}
	if ix.Matches(row(38, 74), []types.Datum{types.NewInt(37)}) {
		t.Fatal("Matches false positive")
	}
	ix.Truncate()
	if ix.Len() != 0 {
		t.Fatal("truncate")
	}
}

// TestHashIndexSpreadsOneSegmentsKeys: a segment's index holds only keys
// that share Bucket(h, nseg), yet they spread over its slots — a key sits a
// few slots from where its probe starts, not a run of thousands.
func TestHashIndexSpreadsOneSegmentsKeys(t *testing.T) {
	ix := NewHashIndex([]int{0})
	for k := int64(0); ix.Len() < 20000; k++ {
		for _, r := range []types.Row{row(k), {types.NewText(fmt.Sprint("c", k))}} {
			if types.Bucket(r.HashKey(), 4) == 1 {
				ix.Insert(r, TupleID(k))
			}
		}
	}
	mask, dist := len(ix.slots)-1, 0
	for i, s := range ix.slots {
		if s.n > 0 {
			dist += (i - int(s.hash>>ix.shift)) & mask
		}
	}
	if avg := float64(dist) / float64(ix.used); avg > 4 {
		t.Fatalf("keys sit %.1f slots past their probe start on average", avg)
	}
}

// TestHashIndexLookupSharesBucket: a lookup returns the bucket without
// copying it, so its cost does not grow with the key's version count, and
// what it returned stays intact while writers append to the same key.
func TestHashIndexLookupSharesBucket(t *testing.T) {
	ix := NewHashIndex([]int{0})
	key := []types.Datum{types.NewInt(7)}
	for i := 1; i <= 4000; i++ {
		ix.Insert(row(7, int64(i)), TupleID(i))
	}
	if allocs := testing.AllocsPerRun(100, func() { ix.Lookup(key) }); allocs != 0 {
		t.Fatalf("Lookup of a 4000-entry bucket: %.1f allocations, want 0", allocs)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 4001; i <= 8000; i++ {
			ix.Insert(row(7, int64(i)), TupleID(i))
		}
	}()
	for round := 0; round < 50; round++ {
		tids := ix.Lookup(key)
		for i, tid := range tids {
			if tid != TupleID(i+1) {
				t.Fatalf("round %d: entry %d = %d, want %d", round, i, tid, i+1)
			}
		}
		if len(tids) < 4000 || cap(tids) != len(tids) {
			t.Fatalf("round %d: len %d cap %d", round, len(tids), cap(tids))
		}
	}
	<-done
	if n := len(ix.Lookup(key)); n != 8000 {
		t.Fatalf("after the writer: %d entries, want 8000", n)
	}
}

func TestHashIndexCompositeKey(t *testing.T) {
	ix := NewHashIndex([]int{0, 1})
	ix.Insert(row(1, 2, 99), 1)
	ix.Insert(row(1, 3, 99), 2)
	key := []types.Datum{types.NewInt(1), types.NewInt(2)}
	tids := ix.Lookup(key)
	ok := false
	for _, tid := range tids {
		if tid == 1 {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("composite lookup: %v", tids)
	}
}

func TestAOColumnFetchAcrossBlocks(t *testing.T) {
	a := NewAOColumn(2, CompressionZlib)
	n := aoColBlockRows*2 + 100 // spans two sealed blocks plus a tail
	for i := int64(0); i < int64(n); i++ {
		a.Insert(1, row(i, -i))
	}
	for _, probe := range []int64{0, 1, int64(aoColBlockRows) - 1, int64(aoColBlockRows), int64(n) - 1} {
		_, r, ok := a.Fetch(TupleID(probe + 1))
		if !ok || r[0].Int() != probe {
			t.Fatalf("Fetch(%d): %v %v", probe+1, r, ok)
		}
	}
	if _, _, ok := a.Fetch(TupleID(n + 1)); ok {
		t.Fatal("fetch past end")
	}
}
