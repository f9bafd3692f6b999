package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
)

// aggInput is one aggregate test input: rows of nk group keys then the
// arguments a (int, some batches mixed with floats), f (float, with NaN)
// and dt (date), cut into column batches. Every other batch of three rows or
// more drops its first row through a selection vector.
type aggInput struct {
	name    string
	nk      int
	batches [][]types.Row
}

func (in aggInput) colBatches() []*types.RowBatch {
	var out []*types.RowBatch
	for bi, rows := range in.batches {
		cb := &types.ColBatch{N: len(rows)}
		for c := range rows[0] {
			vals := make([]types.Datum, len(rows))
			for i, r := range rows {
				vals[i] = r[c]
			}
			cb.Vecs = append(cb.Vecs, types.VecOf(vals))
		}
		b := &types.RowBatch{Cols: cb}
		if bi%2 == 1 && len(rows) > 2 {
			for i := 1; i < len(rows); i++ {
				b.Sel = append(b.Sel, i)
			}
		}
		out = append(out, b)
	}
	return out
}

// live is every row the batches select, in order.
func live(batches []*types.RowBatch) []types.Row {
	var rows []types.Row
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Live(i))
		}
	}
	return rows
}

// oracleAgg is the straightforward datum fold: groups by Compare equality in
// arrival order, every aggregate computed from its group's list of non-NULL
// values, groups sorted by key.
func oracleAgg(nk int, specs []plan.AggSpec, rows []types.Row) []types.Row {
	type grp struct {
		key  types.Row
		vals [][]types.Datum
	}
	var groups []*grp
	for _, r := range rows {
		var g *grp
		for _, c := range groups {
			if c.key.Equal(r[:nk]) {
				g = c
				break
			}
		}
		if g == nil {
			g = &grp{key: r[:nk], vals: make([][]types.Datum, len(specs))}
			groups = append(groups, g)
		}
	next:
		for i, sp := range specs {
			v := types.NewInt(1) // count(*)
			if sp.Arg != nil {
				v, _ = sp.Arg.Eval(r)
			}
			if v.IsNull() {
				continue
			}
			for _, seen := range g.vals[i] {
				if sp.Distinct && types.Equal(seen, v) {
					continue next
				}
			}
			g.vals[i] = append(g.vals[i], v)
		}
	}
	if len(groups) == 0 && nk == 0 {
		groups = append(groups, &grp{vals: make([][]types.Datum, len(specs))})
	}
	sort.SliceStable(groups, func(i, j int) bool {
		for c := range groups[i].key {
			if d := types.Compare(groups[i].key[c], groups[j].key[c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	var out []types.Row
	for _, g := range groups {
		row := append(types.Row(nil), g.key...)
		for i, sp := range specs {
			vals := g.vals[i]
			var isum int64
			fsum, float := 0.0, false
			ext := types.Null
			for k, v := range vals {
				isum += v.Int()
				fsum += v.Float()
				float = float || v.Kind() == types.KindFloat
				if c := types.Compare(v, ext); k == 0 || sp.Func == plan.AggMin && c < 0 || sp.Func == plan.AggMax && c > 0 {
					ext = v
				}
			}
			switch {
			case sp.Func == plan.AggCount:
				row = append(row, types.NewInt(int64(len(vals))))
			case sp.Func == plan.AggMin || sp.Func == plan.AggMax:
				row = append(row, ext)
			case len(vals) == 0:
				row = append(row, types.Null)
			case sp.Func == plan.AggAvg:
				row = append(row, types.NewFloat(fsum/float64(len(vals))))
			case float:
				row = append(row, types.NewFloat(fsum))
			default:
				row = append(row, types.NewInt(isum))
			}
		}
		out = append(out, row)
	}
	return out
}

// runAgg drives one aggregate core over batches and returns its output.
func runAgg(t *testing.T, node *plan.Agg, batches []*types.RowBatch) []types.Row {
	t.Helper()
	core := newAggCore(&Context{Ctx: context.Background()}, node)
	defer core.close()
	saw := false
	for _, b := range batches {
		saw = saw || b.Len() > 0
		if err := core.absorb(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := core.finish(saw); err != nil {
		t.Fatal(err)
	}
	var out []types.Row
	for {
		row, err := core.nextOutput()
		if err != nil {
			return out
		}
		out = append(out, row)
	}
}

// renderRows prints rows with every datum's kind, so an int where a float
// belongs is a difference.
func renderRows(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for _, d := range r {
			fmt.Fprintf(&sb, "%s:%s ", d.Kind(), d)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestTypedAggMatchesDatumPath: the typed group table and accumulators give
// exactly what a straightforward fold over datums gives — over int, date,
// bool, text and float keys, one and two keys and none, NULL keys and
// arguments, a key that arrives as Floats then Ints (and the reverse), a
// boxed batch mid-stream, DISTINCT, count(*) alone, empty input, int64 sum
// wrap-around and NaN min/max — in the plain phase and through partial,
// intermediate and final.
func TestTypedAggMatchesDatumPath(t *testing.T) {
	I, F, T, D, B := types.NewInt, types.NewFloat, types.NewText, types.NewDate, types.NewBool
	N, nan, big := types.Null, types.NewFloat(math.NaN()), types.NewInt(math.MaxInt64)
	args := func(k ...types.Datum) func(a, f types.Datum, dt int64) types.Row {
		return func(a, f types.Datum, dt int64) types.Row {
			return append(append(types.Row(nil), k...), a, f, D(dt))
		}
	}
	inputs := []aggInput{
		{"int key", 1, [][]types.Row{
			{args(I(1))(I(5), F(1.5), 3), args(I(2))(I(7), F(2.25), 1), args(N)(I(1), N, 9), args(I(1))(N, F(0.5), 2)},
			{args(I(2))(I(-3), nan, 5), args(I(3))(big, F(4), 7), args(I(3))(big, F(1), 8), args(I(1))(I(9), F(-2), 1)},
			{args(F(2))(I(4), F(0.25), 4), args(F(2.5))(I(1), nan, 2), args(N)(N, F(3), 6)},        // Floats after Ints: one group 2
			{args(I(2))(F(0.75), F(1), 3), args(T("x"))(I(2), F(5), 5), args(I(1))(I(8), F(6), 0)}, // boxed key and argument
			{args(I(2))(I(6), F(9), 2), args(I(4))(I(0), F(7.5), 3), args(I(3))(I(1), F(1), 1)},
		}},
		{"float key then int", 1, [][]types.Row{
			{args(F(2))(I(1), F(1), 1), args(F(0.5))(I(2), nan, 2), args(N)(I(3), F(3), 3)},
			{args(I(2))(I(4), F(4), 4), args(I(7))(N, nan, 5), args(I(2))(I(5), F(2.5), 6), args(N)(I(6), nan, 7)},
		}},
		{"date key", 1, [][]types.Row{
			{args(D(100))(I(1), F(1), 1), args(D(101))(I(2), F(2), 2), args(N)(I(3), F(3), 3), args(D(100))(I(4), F(4), 4)},
			{args(D(101))(I(5), nan, 5), args(D(99))(I(6), F(6), 6), args(D(100))(N, N, 7)},
		}},
		{"bool key", 1, [][]types.Row{
			{args(B(true))(I(1), F(1), 1), args(B(false))(I(2), F(2), 2), args(N)(I(3), F(3), 3)},
			{args(B(true))(I(4), F(4), 4), args(B(false))(I(5), nan, 5), args(B(true))(I(6), F(0.5), 6)},
		}},
		{"text key", 1, [][]types.Row{
			{args(T("b"))(I(1), F(1), 1), args(T("a"))(I(2), F(2), 2), args(N)(I(3), nan, 3), args(T("b"))(I(4), F(4), 4)},
			{args(T(""))(I(5), F(5), 5), args(T("a"))(I(6), F(6), 6), args(T("b"))(I(7), F(7), 7), args(N)(N, F(8), 8)},
		}},
		{"two keys", 2, [][]types.Row{
			{args(I(1), T("a"))(I(1), F(1), 1), args(I(1), T("b"))(I(2), F(2), 2), args(N, T("a"))(I(3), F(3), 3), args(I(1), N)(I(4), nan, 4)},
			{args(I(1), T("a"))(I(5), F(5), 5), args(I(2), T("a"))(I(6), F(6), 6), args(N, T("a"))(I(7), F(7), 7), args(I(1), T("b"))(N, F(8), 8)},
			{args(F(1), T("a"))(I(9), F(9), 9), args(I(2), I(3))(I(1), F(1), 1), args(I(1), N)(I(2), F(2), 2)},
		}},
		{"no key", 0, [][]types.Row{
			{args()(I(1), F(1), 1), args()(N, nan, 2), args()(I(3), N, 3)},
			{args()(I(4), F(4), 4), args()(F(0.5), F(5), 5), args()(I(6), F(6), 6)},
		}},
		{"empty grouped", 1, nil},
		{"empty scalar", 0, nil},
	}
	for _, in := range inputs {
		a, f, dt := &plan.ColRef{Idx: in.nk}, &plan.ColRef{Idx: in.nk + 1}, &plan.ColRef{Idx: in.nk + 2}
		keys := make([]plan.Expr, in.nk)
		merge := make([]plan.Expr, in.nk)
		for i := range keys {
			keys[i], merge[i] = &plan.ColRef{Idx: i}, &plan.ColRef{Idx: i}
		}
		mergeable := []plan.AggSpec{{Func: plan.AggCount}, {Func: plan.AggCount, Arg: a}, {Func: plan.AggSum, Arg: a},
			{Func: plan.AggMin, Arg: a}, {Func: plan.AggMax, Arg: a}, {Func: plan.AggAvg, Arg: a},
			{Func: plan.AggSum, Arg: f}, {Func: plan.AggMin, Arg: f}, {Func: plan.AggMax, Arg: f}, {Func: plan.AggAvg, Arg: f},
			{Func: plan.AggMin, Arg: dt}, {Func: plan.AggMax, Arg: dt}, {Func: plan.AggAvg, Arg: dt}}
		specSets := map[string][]plan.AggSpec{
			"all":      mergeable,
			"count(*)": {{Func: plan.AggCount}},
			"distinct": {{Func: plan.AggCount, Arg: a, Distinct: true}, {Func: plan.AggSum, Arg: a, Distinct: true}, {Func: plan.AggMax, Arg: f}},
		}
		for setName, specs := range specSets {
			name := in.name + "/" + setName
			batches := in.colBatches()
			want := renderRows(oracleAgg(in.nk, specs, live(batches)))
			if got := renderRows(runAgg(t, plan.NewAgg(nil, keys, specs, plan.AggPlain), batches)); got != want {
				t.Fatalf("%s plain:\n%s\nwant:\n%s", name, got, want)
			}
			if setName == "distinct" {
				continue // DISTINCT aggregates are never split into phases
			}
			// Two partial aggregates (two segments), then the final phase.
			partial := plan.NewAgg(nil, keys, specs, plan.AggPartial)
			half := len(batches) / 2
			var trans []types.Row
			for _, part := range [][]*types.RowBatch{batches[:half], batches[half:]} {
				trans = append(trans, runAgg(t, partial, part)...)
			}
			final := runAgg(t, plan.NewAgg(nil, merge, specs, plan.AggFinal), windows(trans, 3))
			if got := renderRows(final); got != want {
				t.Fatalf("%s partial → final:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}
}

// windows cuts rows into row-layout batches of size n.
func windows(rows []types.Row, n int) []*types.RowBatch {
	var out []*types.RowBatch
	for len(rows) > 0 {
		k := min(n, len(rows))
		out = append(out, &types.RowBatch{Rows: rows[:k:k]})
		rows = rows[k:]
	}
	return out
}

// TestDistinctDedupsByValue: DISTINCT keeps two values whose key hashes
// collide. 7215304905724127637 is too big for a float, so its word is its bits
// xor inexactInt — chosen here to equal the word of 1.
func TestDistinctDedupsByValue(t *testing.T) {
	one, big := types.NewInt(1), types.NewInt(7215304905724127637)
	if one.Hash() != big.Hash() {
		t.Fatalf("the two ints no longer share a word (%x, %x)", one.Hash(), big.Hash())
	}
	node := plan.NewAgg(nil, nil, []plan.AggSpec{{Func: plan.AggCount, Arg: &plan.ColRef{Idx: 0}, Distinct: true}}, plan.AggPlain)
	got := runAgg(t, node, windows([]types.Row{{one}, {big}, {one}, {big}}, 2))
	if len(got) != 1 || got[0][0].Int() != 2 {
		t.Fatalf("count(DISTINCT a) = %v, want 2", got)
	}
}

// TestTablesSpreadOneSegmentsKeys: a segment's group table and join index hold
// only keys that share Bucket(h, nseg), yet they spread over all of their
// slots and buckets.
func TestTablesSpreadOneSegmentsKeys(t *testing.T) {
	for _, text := range []bool{false, true} {
		var rows []types.Row
		for k := int64(0); len(rows) < 20000; k++ {
			r := types.Row{types.NewInt(k)}
			if text {
				r = types.Row{types.NewText(fmt.Sprint("c", k))}
			}
			if types.Bucket(r.HashKey(), 4) == 1 {
				rows = append(rows, r)
			}
		}
		a := newAggCore(&Context{Ctx: context.Background()}, plan.NewAgg(nil, []plan.Expr{&plan.ColRef{Idx: 0}}, nil, plan.AggPlain))
		s := newInnerStore([]plan.Expr{&plan.ColRef{Idx: 0}}, 1, nil)
		for _, b := range windows(rows, 256) {
			keep, _, err := s.eval(b, s.exprs)
			if err == nil {
				s.append(keep)
				err = a.absorb(b)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s.index()
		mask, dist := len(a.slots)-1, 0
		for i, sl := range a.slots {
			if sl.g != 0 {
				dist += (i - int(sl.tag>>a.shift)) & mask
			}
		}
		walk := 0 // rows a lookup of every stored key walks
		for _, h := range s.head {
			n := 0
			for r := h; r != 0; r = s.next[r-1] {
				n++
			}
			walk += n * n
		}
		a.close()
		if avg, chain := float64(dist)/float64(len(rows)), float64(walk)/float64(len(rows)); avg > 2 || chain > 1.75 {
			t.Fatalf("text=%v: a group sits %.1f slots past its probe start, a lookup walks %.1f rows", text, avg, chain)
		}
	}
}
