package storage

import (
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
