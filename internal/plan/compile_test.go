package plan

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

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
