package types

import (
	"testing"
	"unsafe"
)

func TestRowBatchReuseKeepsCapacity(t *testing.T) {
	b := NewRowBatch(8)
	if b.Cap() != 8 || b.Len() != 0 {
		t.Fatalf("fresh batch: cap=%d len=%d", b.Cap(), b.Len())
	}
	for i := 0; i < 8; i++ {
		b.Append(Row{NewInt(int64(i))})
	}
	if b.Len() != 8 {
		t.Fatalf("len after fill: %d", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("len after reset: %d", b.Len())
	}
	if b.Cap() != 8 {
		t.Fatalf("reset lost capacity: %d", b.Cap())
	}
	// Refill must not allocate a new backing array.
	first := &b.Rows[:1][0]
	b.Append(Row{NewInt(99)})
	if &b.Rows[0] != first {
		t.Fatal("reset+append reallocated the backing array")
	}
}

func TestNewRowBatchDefaultsCapacity(t *testing.T) {
	b := NewRowBatch(0)
	if b.Cap() != DefaultBatchSize {
		t.Fatalf("zero capacity should default to %d, got %d", DefaultBatchSize, b.Cap())
	}
}

func TestRowBatchSelectionVector(t *testing.T) {
	b := NewRowBatch(4)
	for i := 0; i < 4; i++ {
		b.Append(Row{NewInt(int64(i))})
	}
	b.Sel = []int{1, 3}
	if b.Len() != 2 {
		t.Fatalf("len under selection: %d", b.Len())
	}
	if b.Live(0)[0].Int() != 1 || b.Live(1)[0].Int() != 3 {
		t.Fatalf("live rows: %v %v", b.Live(0), b.Live(1))
	}

	// Reset clears a selection.
	b.Sel = []int{0}
	b.Reset()
	if b.Sel != nil || b.Len() != 0 {
		t.Fatalf("reset kept selection: %v", b.Sel)
	}
}

func TestRowBatchEmptySelection(t *testing.T) {
	b := NewRowBatch(2)
	b.Append(Row{NewInt(1)})
	b.Sel = []int{}
	if b.Len() != 0 {
		t.Fatalf("empty selection: len=%d", b.Len())
	}
}

// TestRowBatchColumnLayout: Len, Index, Live and windowing mean the same on a
// column batch as on the row batch holding the same rows — with NULLs, a boxed
// (mixed-kind) vector, an unpopulated column, a selection and a window that
// does not start at the vectors' first value.
func TestRowBatchColumnLayout(t *testing.T) {
	var rows []Row
	for i := 0; i < 70; i++ {
		r := Row{NewInt(int64(i)), NewFloat(float64(i) / 2), NewText(string(rune('a' + i%26))), NewDate(int64(i)), Null}
		if i%7 == 0 {
			r[i%4] = Null
		}
		if i%5 == 0 {
			r[1] = NewInt(int64(i)) // mixed with floats: boxed
		}
		rows = append(rows, r)
	}
	vecs := make([]Vec, 5) // column 4 stays the zero Vec
	for c := 0; c < 4; c++ {
		col := make([]Datum, len(rows))
		for i, r := range rows {
			col[i] = r[c]
		}
		vecs[c] = VecOf(col)
	}
	if vecs[0].Ints == nil || vecs[1].Boxed == nil || vecs[2].Strs == nil || vecs[3].Kind != KindDate {
		t.Fatalf("vector layouts: %+v", vecs)
	}
	const lo, n = 3, 66
	same := func(name string, col, row *RowBatch) {
		t.Helper()
		if col.Len() != row.Len() || col.Total() != row.Total() {
			t.Fatalf("%s: len %d/%d, rows say %d/%d", name, col.Len(), col.Total(), row.Len(), row.Total())
		}
		for i := 0; i < row.Len(); i++ {
			if g, w := col.Live(i), row.Live(i); col.Index(i) != row.Index(i) || g.String() != w.String() || g[1].Kind() != w[1].Kind() {
				t.Fatalf("%s: live row %d = %v, rows say %v", name, i, g, w)
			}
		}
	}
	for _, sel := range [][]int{nil, {0, 5, 6, 64, 65}, {}} {
		col := &RowBatch{Sel: sel, Cols: &ColBatch{Vecs: vecs, Lo: lo, N: n}}
		row := &RowBatch{Sel: sel, Rows: rows[lo : lo+n]}
		same("batch", col, row)
		if l := row.Len(); l > 3 {
			cw, rw := col.Window(1, l-1), row.Window(1, l-1)
			same("Window", &cw, &rw)
		}
	}
	if got := unsafe.Sizeof(RowBatch{}); got > 6*unsafe.Sizeof(uintptr(0))+unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("RowBatch is %d bytes: the column layout must hide behind one word", got)
	}
}

// TestVecAppend: a vector built by Append reads back what VecOf builds from
// the same datums — typed after any run of leading NULLs, boxed from the first
// value of a second kind — and Truncate empties it for the next batch keeping
// the payload's kind (or its boxedness) and no stale NULL bits.
func TestVecAppend(t *testing.T) {
	day := NewDate(18000)
	for _, vals := range [][]Datum{
		{NewInt(1), Null, NewInt(3)},
		{Null, Null, NewFloat(2.5), NewFloat(3)},
		{Null, NewText("a"), NewText(""), Null},
		{NewBool(true), NewBool(false)},
		{day, Null},
		{Null, Null},
		{NewFloat(1.5), Null, NewInt(2), NewText("x")}, // mixed: boxed
		{NewInt(1), NewBool(true)},                     // both live in Ints, still two kinds
	} {
		var v Vec
		for round := 0; round < 2; round++ {
			for _, d := range vals {
				v.Append(d)
			}
			want := VecOf(vals)
			if v.Len() != len(vals) || (v.Boxed != nil) != (want.Boxed != nil) || (v.Floats != nil) != (want.Floats != nil) || (v.Strs != nil) != (want.Strs != nil) {
				t.Fatalf("round %d: %v built %+v, VecOf builds %+v", round, vals, v, want)
			}
			for i, d := range vals {
				if got := v.At(i); got.Kind() != d.Kind() || Compare(got, d) != 0 {
					t.Fatalf("round %d: %v: value %d reads %v (%v)", round, vals, i, got, got.Kind())
				}
			}
			v.Truncate()
			if v.Len() != 0 {
				t.Fatalf("Truncate left %d values", v.Len())
			}
		}
	}
	// A retyped buffer carries no NULL bit over from the batch before.
	var v Vec
	v.Append(Null)
	v.Append(NewInt(7))
	v.Truncate()
	v.Append(NewFloat(1))
	v.Append(NewFloat(2))
	if v.Null(0) || v.At(1).Float() != 2 || v.Kind != KindFloat || v.Ints != nil {
		t.Fatalf("after Truncate and a new kind: %+v", v)
	}
}
