package types

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// FuzzRowCodec: DecodeRow over arbitrary bytes returns a row of at most one
// datum per input byte, whose re-encoding decodes to the same datums, or an
// error wrapping ErrCorruptRow; it never panics. A row built from fuzzed
// float bits, text, int and date round-trips with == on every datum, every
// strict prefix of its encoding is an error, and a nil row and an empty row
// stay distinct. The seeds are the datum edge values: ±0, ±Inf, NaN,
// subnormals, MinInt64, NUL inside text and far-past dates.
func FuzzRowCodec(f *testing.F) {
	for _, fl := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -0x1p-1030, math.MaxFloat64} {
		f.Add([]byte{}, math.Float64bits(fl), "text", int64(0), int64(19000))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}, uint64(1), "it's\x00NUL", int64(math.MinInt64), int64(-719162))
	f.Add(AppendRow(nil, Row{NewBool(true), Null, NewText("x")}), uint64(0), "", int64(math.MaxInt64), int64(0))
	f.Add([]byte{2, 9}, uint64(0), "", int64(-1), int64(math.MinInt64)) // unknown kind
	f.Fuzz(func(t *testing.T, raw []byte, bits uint64, s string, i, day int64) {
		row, rest, err := DecodeRow(raw)
		if err != nil {
			if !errors.Is(err, ErrCorruptRow) {
				t.Fatalf("DecodeRow error %v does not wrap ErrCorruptRow", err)
			}
		} else if len(row) > len(raw) || len(rest) > len(raw) {
			t.Fatalf("%d datums and %d trailing bytes from %d input bytes", len(row), len(rest), len(raw))
		} else if again, _, err := DecodeRow(AppendRow(nil, row)); err != nil || !sameDatums(again, row) {
			t.Fatalf("re-encoding %v decodes to %v (%v)", row, again, err)
		}

		want := Row{NewFloat(math.Float64frombits(bits)), NewText(s), NewInt(i), NewDate(day), NewBool(i&1 == 1), Null}
		for _, r := range []Row{want, {}, nil} {
			enc := AppendRow(nil, r)
			got, rest, err := DecodeRow(append(enc, 0xAB))
			if err != nil || len(rest) != 1 || !sameDatums(got, r) {
				t.Fatalf("%v decoded to %v, %d trailing bytes (%v)", r, got, len(rest), err)
			}
			for k := range enc {
				if _, _, err := DecodeRow(enc[:k]); !errors.Is(err, ErrCorruptRow) {
					t.Fatalf("%d-byte prefix of %v: got %v, want ErrCorruptRow", k, r, err)
				}
			}
		}
	})
}

// sameDatums reports whether a and b are both nil, or both non-nil with
// bit-identical datums (== on a datum compares its kind and bits).
func sameDatums(a, b Row) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }
