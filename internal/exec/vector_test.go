package exec

import (
	"context"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// BenchmarkVectorAbsorb: the partial aggregate absorbing 256-position column
// batches — count(*), sum, min and max of an int column under a 64-value int
// key — the inner loop of a GROUP BY over an AO-column scan (ns/op and B/op
// are per batch; warm, it allocates nothing).
func BenchmarkVectorAbsorb(b *testing.B) {
	key := make([]types.Datum, types.DefaultBatchSize)
	arg := make([]types.Datum, len(key))
	for i := range key {
		key[i], arg[i] = types.NewInt(int64(i*37)%64), types.NewInt(int64(i))
	}
	batch := &types.RowBatch{Cols: &types.ColBatch{Vecs: []types.Vec{types.VecOf(key), types.VecOf(arg)}, N: len(key)}}
	col := &plan.ColRef{Idx: 1, Typ: types.KindInt}
	node := plan.NewAgg(nil, []plan.Expr{&plan.ColRef{Idx: 0, Typ: types.KindInt}}, []plan.AggSpec{
		{Func: plan.AggCount}, {Func: plan.AggSum, Arg: col}, {Func: plan.AggMin, Arg: col}, {Func: plan.AggMax, Arg: col},
	}, plan.AggPartial)
	core := newAggCore(&Context{Ctx: context.Background()}, node)
	if err := core.absorb(batch); err != nil { // creates the 64 groups
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.absorb(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := core.order[0].states[0].count; len(core.order) != 64 || n != int64(b.N+1)*4 {
		b.Fatalf("%d groups, first counted %d rows", len(core.order), n)
	}
}
