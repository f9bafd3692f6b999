package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// BenchmarkVectorAbsorb: the partial aggregate absorbing 256-position column
// batches — the inner loop of a GROUP BY over an AO-column scan (ns/op and
// B/op are per batch; warm, it allocates nothing). int_key is count(*), sum,
// min and max of an int column under a 64-value int key; float_avg adds avg
// and sum of a float column; text_key is group_tag's shape (count(*) and a
// float sum under a 16-value text key); two_int_keys groups by 64 × 50 int
// pairs.
func BenchmarkVectorAbsorb(b *testing.B) {
	n := types.DefaultBatchSize
	col := func(f func(i int) types.Datum) types.Vec {
		vals := make([]types.Datum, n)
		for i := range vals {
			vals[i] = f(i)
		}
		return types.VecOf(vals)
	}
	g := col(func(i int) types.Datum { return types.NewInt(int64(i*37) % 64) })
	x := col(func(i int) types.Datum { return types.NewInt(int64(i)) })
	amt := col(func(i int) types.Datum { return types.NewFloat(float64(i) / 4) })
	tag := col(func(i int) types.Datum { return types.NewText(fmt.Sprintf("tag-%02d", i*7%16)) })
	q := col(func(i int) types.Datum { return types.NewInt(int64(i*11) % 50) })
	ref := func(i int, k types.Kind) plan.Expr { return &plan.ColRef{Idx: i, Typ: k} }
	count := plan.AggSpec{Func: plan.AggCount}
	cases := []struct {
		name   string
		vecs   []types.Vec
		keys   []plan.Expr
		specs  []plan.AggSpec
		groups int
	}{
		{"int_key", []types.Vec{g, x}, []plan.Expr{ref(0, types.KindInt)}, []plan.AggSpec{count,
			{Func: plan.AggSum, Arg: ref(1, types.KindInt)}, {Func: plan.AggMin, Arg: ref(1, types.KindInt)},
			{Func: plan.AggMax, Arg: ref(1, types.KindInt)}}, 64},
		{"float_avg", []types.Vec{g, amt}, []plan.Expr{ref(0, types.KindInt)}, []plan.AggSpec{count,
			{Func: plan.AggSum, Arg: ref(1, types.KindFloat)}, {Func: plan.AggAvg, Arg: ref(1, types.KindFloat)}}, 64},
		{"text_key", []types.Vec{tag, amt}, []plan.Expr{ref(0, types.KindText)}, []plan.AggSpec{count,
			{Func: plan.AggSum, Arg: ref(1, types.KindFloat)}}, 16},
		{"two_int_keys", []types.Vec{g, q, x}, []plan.Expr{ref(0, types.KindInt), ref(1, types.KindInt)}, []plan.AggSpec{count,
			{Func: plan.AggSum, Arg: ref(2, types.KindInt)}}, 256},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			batch := &types.RowBatch{Cols: &types.ColBatch{Vecs: c.vecs, N: n}}
			core := newAggCore(&Context{Ctx: context.Background()}, plan.NewAgg(nil, c.keys, c.specs, plan.AggPartial))
			if err := core.absorb(batch); err != nil { // creates the groups
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
			total := int64(0)
			for g := range core.order {
				total += core.states[g*core.ns].count
			}
			if len(core.order) != c.groups || total != int64(b.N+1)*int64(n) {
				b.Fatalf("%d groups counted %d rows", len(core.order), total)
			}
		})
	}
}

// BenchmarkTopN: a per-segment top-N — ORDER BY amt DESC, k LIMIT 100 over
// 16 384 rows arriving as AO-column batches (ns/op and B/op are per sort).
// Only rows that beat the worst row kept are gathered out of the vectors.
func BenchmarkTopN(b *testing.B) {
	const n = 16384
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64((i * 7919) % 4000))}
	}
	src := newColWindows(rows, 2, types.DefaultBatchSize)
	node := &plan.Sort{Keys: []plan.SortKey{{Expr: &plan.ColRef{Idx: 1}, Desc: true}, {Expr: &plan.ColRef{Idx: 0}}},
		Top: &plan.Limit{Count: 100}}
	ctx := &Context{Ctx: context.Background()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.lo = 0
		out, err := DrainBatches(newBatchSortIter(ctx, node, src))
		if err != nil || len(out) != 100 || out[0][1].Float() != 3999 {
			b.Fatalf("%d rows, err %v", len(out), err)
		}
	}
}
