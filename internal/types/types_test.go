package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestDatumKindsAndAccessors(t *testing.T) {
	cases := []struct {
		d    Datum
		kind Kind
		str  string
	}{
		{NewInt(42), KindInt, "42"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewText("hi"), KindText, "hi"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{Null, KindNull, "NULL"},
		{NewDate(0), KindDate, "1970-01-01"},
		{NewDate(19723), KindDate, "2024-01-01"},
	}
	for _, c := range cases {
		if c.d.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.d, c.d.Kind(), c.kind)
		}
		if c.d.String() != c.str {
			t.Errorf("%v String = %q, want %q", c.d.Kind(), c.d.String(), c.str)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewText("a"), NewText("b"), -1},
		{NewText("b"), NewText("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewBool(false), NewBool(true), -1},
		{NewDate(10), NewDate(20), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHashEqualImpliesSameHash(t *testing.T) {
	// int/float numeric equality must hash identically (hash distribution
	// would break otherwise).
	if NewInt(2).Hash() != NewFloat(2).Hash() {
		t.Error("NewInt(2) and NewFloat(2) must hash alike")
	}
	if NewInt(2).Hash() == NewInt(3).Hash() {
		t.Error("different values colliding in this trivial case is suspicious")
	}
	f := func(v int64) bool {
		return NewInt(v).Hash() == NewInt(v).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzKeyHash checks the key hash over an int, the float it converts to
// (equal only when exact), ±0, NaN, NULL and text: values Compare calls
// equal hash equal (Compare calls NaN equal to every number, so NaN is held
// only to other NaNs); the vector form of a key equals its row form; Bucket
// stays in [0, n).
func FuzzKeyHash(f *testing.F) {
	f.Add(int64(2), 2.0, "", uint16(4))
	f.Add(int64(0), math.Copysign(0, -1), "a", uint16(1))
	f.Add(int64(-7), math.NaN(), "text", uint16(3))
	f.Add(int64(1)<<60+1, math.Inf(-1), "\x00\xff", uint16(64))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, n uint16) {
		nan := math.Float64frombits(math.Float64bits(math.NaN()) ^ uint64(i)&0xffff) // another payload
		vals := []Datum{Null, NewInt(i), NewFloat(float64(i)), NewFloat(fl), NewFloat(-fl),
			NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(nan), NewText(s)}
		isNaN := func(d Datum) bool { return d.Kind() == KindFloat && d.Float() != d.Float() }
		for _, a := range vals {
			for _, b := range vals {
				if isNaN(a) != isNaN(b) || Compare(a, b) != 0 {
					continue
				}
				if a.Hash() != b.Hash() || (Row{a, b}).HashKey() != (Row{b, a}).HashKey() {
					t.Fatalf("%v = %v but they hash %x and %x", a, b, a.Hash(), b.Hash())
				}
			}
		}
		// Key columns: one typed vector per kind (NULLs in the bitmap) and
		// one boxed vector of every value.
		n2 := len(vals)
		ints, floats, texts := make([]Datum, n2), make([]Datum, n2), make([]Datum, n2)
		for r := range vals {
			ints[r], floats[r], texts[r] = NewInt(i+int64(r)), NewFloat(fl*float64(r)), NewText(s[:min(r, len(s))])
			if r%4 == 0 {
				ints[r], floats[r], texts[r] = Null, Null, Null
			}
		}
		keys := []Vec{VecOf(vals), VecOf(ints), VecOf(floats), VecOf(texts)}
		if keys[0].Boxed == nil || keys[1].Ints == nil || keys[2].Floats == nil || keys[3].Strs == nil {
			t.Fatal("VecOf built other layouts than the test means")
		}
		sel := []int{1, 2, 3, 5, 6, n2 - 1}
		hashes := make([]uint64, len(sel))
		HashBatch(hashes, keys, &RowBatch{Sel: sel})
		for r, at := range sel {
			row := Row{vals[at], ints[at], floats[at], texts[at]}
			h := row.HashKey()
			if HashAt(keys, at) != h || hashes[r] != h || row.Hash([]int{0, 1, 2, 3}) != h {
				t.Fatalf("row %v: row form %x, HashAt %x, HashBatch %x", row, h, HashAt(keys, at), hashes[r])
			}
			for _, m := range []int{1, 3, 4, int(n) + 1} {
				if b := Bucket(h, m); b < 0 || b >= m {
					t.Fatalf("Bucket(%x, %d) = %d", h, m, b)
				}
			}
		}
	})
}

func TestCastTo(t *testing.T) {
	d, err := NewText("123").CastTo(KindInt)
	if err != nil || d.Int() != 123 {
		t.Fatalf("text→int: %v %v", d, err)
	}
	d, err = NewInt(5).CastTo(KindFloat)
	if err != nil || d.Float() != 5.0 {
		t.Fatalf("int→float: %v %v", d, err)
	}
	d, err = NewFloat(7.9).CastTo(KindInt)
	if err != nil || d.Int() != 7 {
		t.Fatalf("float→int truncation: %v %v", d, err)
	}
	d, err = NewText("2024-06-12").CastTo(KindDate)
	if err != nil {
		t.Fatalf("text→date: %v", err)
	}
	if d.String() != "2024-06-12" {
		t.Fatalf("date roundtrip: %s", d)
	}
	if _, err := NewText("xyz").CastTo(KindInt); err == nil {
		t.Fatal("bad cast must error")
	}
	// NULL casts to anything.
	if d, err := Null.CastTo(KindInt); err != nil || !d.IsNull() {
		t.Fatal("NULL cast")
	}
}

func TestDateFromTime(t *testing.T) {
	d := DateFromTime(time.Date(2021, 5, 14, 23, 59, 0, 0, time.UTC))
	if d.String() != "2021-05-14" {
		t.Fatalf("DateFromTime = %s", d)
	}
}

func TestRowCloneIsIndependent(t *testing.T) {
	r := Row{NewInt(1), NewText("x")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestRowEqualAndHash(t *testing.T) {
	a := Row{NewInt(1), NewText("x")}
	b := Row{NewInt(1), NewText("x")}
	if !a.Equal(b) {
		t.Fatal("equal rows not equal")
	}
	if a.Hash([]int{0, 1}) != b.Hash([]int{0, 1}) {
		t.Fatal("equal rows hash differently")
	}
	c := Row{NewInt(2), NewText("x")}
	if a.Equal(c) {
		t.Fatal("different rows compare equal")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), Null, NewText("q")}
	if r.String() != "(1, NULL, q)" {
		t.Fatalf("Row.String = %q", r.String())
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Kind: KindInt},
		Column{Name: "b", Kind: KindText},
		Column{Name: "c", Kind: KindFloat},
	)
	if s.Len() != 3 {
		t.Fatal("len")
	}
	if s.ColumnIndex("B") != 1 {
		t.Fatal("case-insensitive lookup")
	}
	if s.ColumnIndex("zzz") != -1 {
		t.Fatal("missing column")
	}
	p := s.Project([]int{2, 0})
	if p.Columns[0].Name != "c" || p.Columns[1].Name != "a" {
		t.Fatalf("project: %+v", p.Columns)
	}
	j := s.Concat(p)
	if j.Len() != 5 {
		t.Fatal("concat")
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		da, db := NewInt(a), NewInt(b)
		return Compare(da, db) == -Compare(db, da)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTransitivityOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		da, db, dc := NewInt(a), NewInt(b), NewInt(c)
		if Compare(da, db) <= 0 && Compare(db, dc) <= 0 {
			return Compare(da, dc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTextCastRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		d, err := NewInt(v).CastTo(KindText)
		if err != nil {
			return false
		}
		back, err := d.CastTo(KindInt)
		return err == nil && back.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDatumIs32Bytes: a float shares the integer word, so a datum is a kind,
// one word and a string header.
func TestDatumIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Datum{}) = %d, want 32", got)
	}
}

// edgeFloats are the values a float codec most easily gets wrong.
var edgeFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, -2.5}

// TestFloatEdgeValues: NewFloat keeps every float bit for bit; ints and bools
// of a float read 0 and false; -0 equals 0 and hashes like 0 and like the
// int 0; NaN, ±Inf and subnormals order as IEEE says.
func TestFloatEdgeValues(t *testing.T) {
	for _, f := range edgeFloats {
		d := NewFloat(f)
		if math.Float64bits(d.Float()) != math.Float64bits(f) || d.Kind() != KindFloat {
			t.Fatalf("NewFloat(%v).Float() = %v (bits %x)", f, d.Float(), math.Float64bits(d.Float()))
		}
		if d.Int() != 0 || d.Bool() {
			t.Fatalf("NewFloat(%v): Int() = %d, Bool() = %v; want 0, false", f, d.Int(), d.Bool())
		}
		if d.Hash() != NewFloat(f).Hash() {
			t.Fatalf("NewFloat(%v) hashes unstably", f)
		}
	}
	negZero := NewFloat(math.Copysign(0, -1))
	for _, zero := range []Datum{NewFloat(0), NewInt(0)} {
		if Compare(negZero, zero) != 0 || negZero.Hash() != zero.Hash() {
			t.Fatalf("-0 vs %v: Compare %d, hashes %x and %x", zero, Compare(negZero, zero), negZero.Hash(), zero.Hash())
		}
	}
	if negZero.String() != "-0" {
		t.Fatalf("-0 prints %q", negZero.String())
	}
	ordered := []Datum{NewFloat(math.Inf(-1)), NewInt(-1), NewFloat(-math.SmallestNonzeroFloat64), NewFloat(0),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(0x1p-1030 * 4), NewInt(1), NewFloat(math.MaxFloat64), NewFloat(math.Inf(1))}
	for i := 1; i < len(ordered); i++ {
		if Compare(ordered[i-1], ordered[i]) != -1 || Compare(ordered[i], ordered[i-1]) != 1 {
			t.Fatalf("%v should sort before %v", ordered[i-1], ordered[i])
		}
	}
	if v := VecOf([]Datum{NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN())}); !math.Signbit(v.At(0).Float()) || !math.IsNaN(v.At(1).Float()) {
		t.Fatalf("a float vector loses bits: %v %v", v.At(0), v.At(1))
	}
}
