package storage

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/types"
)

// FuzzColumnBlock: decompressBlock under every codec, given arbitrary bytes
// and a row count of at most 4 096, returns a vector of that many values or
// an error, and never panics. Blocks sealed by compressBlock from fuzzed int,
// float and text values with NULLs among them, in single-kind and mixed-kind
// columns, decode to the same datums bit for bit. They are sealed under
// CompressionNone and CompressionRLEDelta, which falls back to zlib for the
// non-integer columns; sealing the integer columns under zlib as well cut
// the fuzzer's executions per second tenfold and reaches no other decoder.
func FuzzColumnBlock(f *testing.F) {
	f.Add(rleDeltaEncode([]types.Datum{types.NewInt(1), types.Null}), uint16(2), int64(0), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(4096), int64(math.MinInt64), math.Float64bits(math.NaN()), "a\x00b")
	f.Add(encodeDatums([]types.Datum{types.NewText("x")}), uint16(1), int64(math.MaxInt64), math.Float64bits(math.Inf(-1)), "text")
	codecs := []Compression{CompressionNone, CompressionRLEDelta, CompressionZlib}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, i int64, bits uint64, s string) {
		n %= 4097
		for _, c := range codecs {
			if v, err := decompressBlock(c, raw, int(n)); err == nil && v.Len() != int(n) {
				t.Fatalf("%v: %d values decoded for a %d-row block", c, v.Len(), n)
			}
		}
		fl := math.Float64frombits(bits)
		columns := [][]types.Datum{
			{types.NewInt(i), types.Null, types.NewInt(i + 1), types.NewInt(-i), types.NewInt(i), types.NewInt(math.MinInt64)},
			{types.NewFloat(fl), types.NewFloat(-fl), types.Null, types.NewFloat(0)},
			{types.NewText(s), types.Null, types.NewText(""), types.NewText(s[:len(s)/2])},
			{types.NewInt(i), types.NewFloat(fl), types.NewText(s), types.Null, types.NewBool(i < 0), types.NewDate(i)},
			{types.Null, types.Null},
		}
		for _, c := range codecs[:2] {
			for _, vals := range columns {
				data, used := compressBlock(c, vals)
				v, err := decompressBlock(used, data, len(vals))
				if err != nil {
					t.Fatalf("%v: %v", used, err)
				}
				for j, want := range vals {
					if got := v.At(j); got != want {
						t.Fatalf("%v: [%d] = %v (%v), want %v (%v)", used, j, got, got.Kind(), want, want.Kind())
					}
				}
			}
		}
	})
}

// TestZlibDecodeAllocations decodes a 1 024-row float block and a text block
// sealed under zlib, the way a cold scan of an AO-column table decodes every
// block the block cache misses. The inflate reader and its output buffer are
// recycled, so a decode allocates the vector it returns, not a reader's
// decompressor state and a buffer grown from empty. The float block's values
// use long Huffman codes, whose lookup tables compress/flate builds afresh
// for every deflate block: about 25 of its allocations. A recycled buffer
// must not leak into an earlier block's values.
func TestZlibDecodeAllocations(t *testing.T) {
	floats := make([]types.Datum, 1024)
	texts := make([]types.Datum, 1024)
	for i := range floats {
		floats[i] = types.NewFloat(float64(i*37%1000) / 8)
		texts[i] = types.NewText(fmt.Sprintf("tag-%d", i%97))
	}
	fdata, _ := compressBlock(CompressionZlib, floats)
	tdata, _ := compressBlock(CompressionZlib, texts)
	first, err := decompressBlock(CompressionZlib, tdata, len(texts))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		data []byte
		max  float64
	}{"float": {fdata, 30}, "text": {tdata, 6}} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := decompressBlock(CompressionZlib, c.data, 1024); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("decoding a zlib %s block: %.0f allocations", name, allocs)
		if allocs > c.max && !raceEnabled {
			t.Errorf("decoding a zlib %s block: %.0f allocations, want at most %.0f", name, allocs, c.max)
		}
	}
	for i, want := range texts {
		if got := first.At(i); got != want {
			t.Fatalf("[%d] = %v after later decodes, want %v", i, got, want)
		}
	}
	// The row count only sizes the buffer: a block sized for none, into no
	// storage, still inflates whole.
	want := len(encodeDatums(texts))
	if raw, err := zlibDecompress(nil, tdata, 0); err != nil || len(raw) != want {
		t.Fatalf("inflated %d bytes (%v) from no storage, want %d", len(raw), err, want)
	}
}

// TestZlibSealAllocations seals a 1 024-row float block under zlib, the way
// an AO-column load seals every float and text column block. The deflate
// writer is recycled, so a seal allocates the serialized values and the
// compressed output, not a writer's ~850 KB state (34 allocations apiece).
// The sealed bytes are the caller's: sealing another block must not change
// them.
func TestZlibSealAllocations(t *testing.T) {
	vals := make([]types.Datum, 1024)
	for i := range vals {
		vals[i] = types.NewFloat(float64(i*37%1000) / 8)
	}
	first, _ := compressBlock(CompressionZlib, vals)
	kept := append([]byte(nil), first...)
	allocs := testing.AllocsPerRun(50, func() { compressBlock(CompressionZlib, vals) })
	t.Logf("sealing a zlib block: %.0f allocations", allocs)
	if allocs > 20 && !raceEnabled {
		t.Errorf("sealing a zlib block: %.0f allocations, want at most 20", allocs)
	}
	other := make([]types.Datum, 1024)
	for i := range other {
		other[i] = types.NewFloat(float64(i))
	}
	compressBlock(CompressionZlib, other)
	if string(first) != string(kept) {
		t.Fatal("a sealed block changed when the next one was sealed")
	}
	v, err := decompressBlock(CompressionZlib, first, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		if got := v.At(i); got != want {
			t.Fatalf("[%d] = %v, want %v", i, got, want)
		}
	}
}
