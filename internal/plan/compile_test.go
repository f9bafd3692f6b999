package plan

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestVecExprGathersTypedColumns: a bare column over a row batch is gathered
// into the typed vector its values' kind calls for — Ints (for int and date),
// Floats or Strs, NULLs in the bitmap — and into Boxed only when the values
// mix kinds. One VecExpr evaluates every case in turn, so a buffer that held
// one kind, or was boxed, gathers the next batch by that batch's own kind.
func TestVecExprGathersTypedColumns(t *testing.T) {
	x := CompileVec(&ColRef{Idx: 1})
	for _, c := range []struct {
		name    string
		vals    []types.Datum
		payload string
	}{
		{"ints", []types.Datum{types.NewInt(3), types.Null, types.NewInt(-7)}, "Ints"},
		{"mixed", []types.Datum{types.NewInt(1), types.NewFloat(2.5), types.Null}, "Boxed"},
		{"floats", []types.Datum{types.Null, types.NewFloat(1.5), types.NewFloat(-2)}, "Floats"},
		{"texts", []types.Datum{types.NewText("a"), types.Null, types.NewText("")}, "Strs"},
		{"dates", []types.Datum{types.NewDate(19000), types.NewDate(-3), types.Null}, "Ints"},
		{"all NULL", []types.Datum{types.Null, types.Null, types.Null}, "Ints"},
	} {
		b := &types.RowBatch{Sel: []int{0, 2}} // a dead position is gathered too
		for _, v := range c.vals {
			b.Rows = append(b.Rows, types.Row{types.NewInt(0), v})
		}
		v, err := x.Eval(b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		payload := "none"
		switch {
		case v.Ints != nil:
			payload = "Ints"
		case v.Floats != nil:
			payload = "Floats"
		case v.Strs != nil:
			payload = "Strs"
		case v.Boxed != nil:
			payload = "Boxed"
		}
		if payload != c.payload {
			t.Fatalf("%s: gathered into %q, want %q", c.name, payload, c.payload)
		}
		for i, want := range c.vals {
			if got := v.At(i); got.Kind() != want.Kind() || types.Compare(got, want) != 0 || v.Null(i) != (want.IsNull() && v.Boxed == nil) {
				t.Fatalf("%s: position %d reads %v (NULL bit %v), want %v", c.name, i, got, v.Null(i), want)
			}
		}
	}
	if _, err := CompileVec(&ColRef{Idx: 2}).Eval(&types.RowBatch{Rows: []types.Row{{types.NewInt(1)}}}); err == nil {
		t.Fatal("a column past the row's end evaluated without an error")
	}
}

// BenchmarkSelectInts: the typed `col <op> const` loop over a 256-position
// int column at 2 %, 50 % and 100 % selectivity (ns/op and B/op are per
// batch; a warm Select allocates nothing — the predicate reuses its vector).
func BenchmarkSelectInts(b *testing.B) {
	vals := make([]types.Datum, types.DefaultBatchSize)
	for i := range vals {
		vals[i] = types.NewInt(int64(i*37) % 100)
	}
	cols := &types.ColBatch{Vecs: []types.Vec{types.VecOf(vals)}, N: len(vals)}
	for _, pct := range []int64{2, 50, 100} {
		b.Run(fmt.Sprintf("%d%%", pct), func(b *testing.B) {
			p := CompilePredicate(&BinOp{Op: "<", Left: &ColRef{Idx: 0}, Right: &Const{Val: types.NewInt(pct)}})
			kept := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				batch := types.RowBatch{Cols: cols}
				if err := p.Select(&batch); err != nil {
					b.Fatal(err)
				}
				kept += batch.Len()
			}
			if want := b.N * len(vals) * int(pct) / 100; kept < want-b.N*3 || kept > want+b.N*3 {
				b.Fatalf("kept %d rows, want about %d", kept, want)
			}
		})
	}
}
