package exec

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// colWindows emits rows as column-layout batches of size positions, the way
// an AO-column scan does (one set of vectors, windows over it).
type colWindows struct {
	vecs     []types.Vec
	n, size  int
	lo       int
	win      types.RowBatch
	colBatch types.ColBatch
}

func newColWindows(rows []types.Row, width, size int) *colWindows {
	w := &colWindows{vecs: make([]types.Vec, width), n: len(rows), size: size}
	for c := range w.vecs {
		col := make([]types.Datum, len(rows))
		for i, r := range rows {
			col[i] = r[c]
		}
		w.vecs[c] = types.VecOf(col)
	}
	return w
}

func (w *colWindows) NextBatch() (*types.RowBatch, error) {
	if w.lo >= w.n {
		return nil, io.EOF
	}
	w.colBatch = types.ColBatch{Vecs: w.vecs, Lo: w.lo, N: min(w.size, w.n-w.lo)}
	w.lo += w.colBatch.N
	w.win = types.RowBatch{Cols: &w.colBatch}
	return &w.win, nil
}

func (w *colWindows) Close() {}

// TestJoinEmitsNeededColumns: both joins hand up column batches holding the
// plan's Out columns and NULL everywhere else, for inner and LEFT joins, a
// residual over both sides, NULL keys, text and a mixed-kind (boxed) output
// column, whether the outer side arrives as rows or as vectors — against two
// Go loops.
func TestJoinEmitsNeededColumns(t *testing.T) {
	outerTab := testTable(1, "o", "k", "x", "s")
	innerTab := testTable(2, "i", "k", "y", "m")
	var outer, inner []types.Row
	for i := 0; i < 700; i++ {
		r := types.Row{types.NewInt(int64(i % 90)), types.NewInt(int64(i)), types.NewText(fmt.Sprint("s", i%11))}
		if i%17 == 0 {
			r[0] = types.Null
		}
		outer = append(outer, r)
	}
	for i := 0; i < 160; i++ {
		r := types.Row{types.NewInt(int64(i % 80)), types.NewInt(int64(i * 3)), types.NewFloat(float64(i) / 2)}
		switch {
		case i%13 == 0:
			r[0] = types.Null
		case i%5 == 0:
			r[2] = types.NewInt(int64(i)) // among floats: the column comes out boxed
		case i%7 == 0:
			r[2] = types.Null
		}
		inner = append(inner, r)
	}
	residual := &plan.BinOp{Op: ">", Left: &plan.ColRef{Idx: 1}, Right: &plan.ColRef{Idx: 4}} // o.x > i.y
	keyEq := &plan.BinOp{Op: "=", Left: &plan.ColRef{Idx: 0}, Right: &plan.ColRef{Idx: 3}}
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		for _, out := range [][]int{nil, {2, 5}, {1}, {}} {
			var want []types.Row
			for _, o := range outer {
				matched := false
				for _, in := range inner {
					if !o[0].IsNull() && !in[0].IsNull() && o[0].Int() == in[0].Int() && o[1].Int() > in[1].Int() {
						matched = true
						want = append(want, append(o.Clone(), in...))
					}
				}
				if !matched && kind == plan.JoinLeft {
					want = append(want, append(o.Clone(), types.Null, types.Null, types.Null))
				}
			}
			if out != nil {
				for _, r := range want {
					keep := map[int]bool{}
					for _, c := range out {
						keep[c] = true
					}
					for c := range r {
						if !keep[c] {
							r[c] = types.Null
						}
					}
				}
			}
			for _, layout := range []string{"rows", "vectors"} {
				for _, op := range []string{"hash", "nestloop"} {
					ctx := &Context{Ctx: context.Background(), NumSegments: 1, BatchSize: 64}
					var left BatchIterator = &rowWindows{rows: outer, size: 64}
					if layout == "vectors" {
						left = newColWindows(outer, 3, 64)
					}
					right := &rowWindows{rows: inner, size: 64}
					lscan, rscan := plan.NewScan(outerTab, []catalog.TableID{1}, nil), plan.NewScan(innerTab, []catalog.TableID{2}, nil)
					var it BatchIterator
					if op == "hash" {
						node := plan.NewHashJoin(kind, lscan, rscan, []plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, residual)
						node.Out = out
						it = newBatchHashJoinIter(ctx, node, left, right)
					} else {
						node := plan.NewNestLoop(kind, lscan, rscan, &plan.BinOp{Op: "AND", Left: keyEq, Right: residual})
						node.Out = out
						it = newBatchNestLoopIter(ctx, node, left, right)
					}
					var got []types.Row
					for {
						b, err := it.NextBatch()
						if err == io.EOF {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						if b.Cols == nil || len(b.Cols.Vecs) != 6 || b.Len() == 0 {
							t.Fatalf("%s join over %s: batch %+v, want a non-empty 6-column column batch", op, layout, b)
						}
						for i := 0; i < b.Len(); i++ {
							got = append(got, b.Live(i))
						}
					}
					it.Close()
					if len(want) == 0 {
						t.Fatal("the oracle join is empty")
					}
					requireSameRows(t, want, got)
					for i := range got { // requireSameRows compares values; the boxed column must keep kinds too
						if out == nil && got[i][5].Kind() != want[i][5].Kind() {
							t.Fatalf("%s join over %s, kind %v: row %d column m is %v, want %v", op, layout, kind, i, got[i][5].Kind(), want[i][5].Kind())
						}
					}
				}
			}
		}
	}
}

// joinOracle is the joins' reference: every outer row beside each inner row,
// in arrival order, whose key columns [0, keys) all equal its own under
// Compare (NULL equals nothing) and that extra keeps, and for a LEFT join
// every unmatched outer row beside NULLs.
func joinOracle(outer, inner []types.Row, keys int, kind plan.JoinKind, extra func(o, in types.Row) bool) []types.Row {
	var want []types.Row
	for _, o := range outer {
		matched := false
	candidates:
		for _, in := range inner {
			for k := 0; k < keys; k++ {
				if o[k].IsNull() || in[k].IsNull() || types.Compare(o[k], in[k]) != 0 {
					continue candidates
				}
			}
			if extra == nil || extra(o, in) {
				matched = true
				want = append(want, append(o.Clone(), in...))
			}
		}
		if !matched && kind == plan.JoinLeft {
			want = append(want, append(o.Clone(), make(types.Row, len(inner[0]))...))
		}
	}
	return want
}

// TestJoinEdgeCases runs both joins against joinOracle with each side
// arriving as rows and as vectors: duplicate build keys (chains longer than
// one), int keys against float keys, NULL keys on both sides, a LEFT join
// with a residual, text keys, two and three key columns (int, text and
// float), and a LEFT hash join that spills and reloads its partitions
// (compared as a multiset: it emits partition by partition). The nested
// loop runs every in-memory case with the keys and residual as its Cond.
func TestJoinEdgeCases(t *testing.T) {
	ival := func(x int) types.Datum { return types.NewInt(int64(x)) }
	// side builds n rows of 4 columns: key(i, k) in the key columns, then
	// i + k, and i % mod in column 3, which the residual compares.
	side := func(n, keys, mod int, key func(i, k int) types.Datum) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{ival(i), ival(i + 1), ival(i + 2), ival(i % mod)}
			for k := 0; k < keys; k++ {
				rows[i][k] = key(i, k)
			}
		}
		return rows
	}
	intKey := func(mod, nullEvery int) func(i, k int) types.Datum {
		return func(i, k int) types.Datum {
			if nullEvery > 0 && i%nullEvery == 0 {
				return types.Null
			}
			return ival(i%mod + k)
		}
	}
	mixedKey := func(i, k int) types.Datum { // int, text, float
		switch k {
		case 0:
			return ival(i % 4)
		case 1:
			return types.NewText(fmt.Sprint("t", i%3))
		}
		return types.NewFloat(float64(i%5) / 2)
	}
	textKey := func(i, _ int) types.Datum {
		if i%11 == 0 {
			return types.Null
		}
		return types.NewText(fmt.Sprint("key-", i%20))
	}
	cases := []struct {
		name         string
		outer, inner []types.Row
		keys         int
		kind         plan.JoinKind
		extra        bool  // outer column 3 > inner column 3
		budget       int64 // a spill budget; 0: none
	}{
		{"duplicate build keys", side(300, 1, 9, intKey(40, 0)), side(400, 1, 5, intKey(25, 0)), 1, plan.JoinInner, false, 0},
		{"int against float", side(200, 1, 9, intKey(30, 0)),
			side(240, 1, 5, func(i, _ int) types.Datum { return types.NewFloat(float64(i%60) / 2) }), 1, plan.JoinInner, false, 0},
		{"float against int", side(240, 1, 5, func(i, _ int) types.Datum { return types.NewFloat(float64(i%60) / 2) }),
			side(200, 1, 9, intKey(30, 0)), 1, plan.JoinLeft, false, 0},
		{"NULL keys on both sides", side(300, 1, 9, intKey(40, 7)), side(200, 1, 5, intKey(30, 5)), 1, plan.JoinLeft, false, 0},
		{"LEFT with a residual", side(300, 1, 9, intKey(40, 13)), side(200, 1, 5, intKey(30, 0)), 1, plan.JoinLeft, true, 0},
		{"text keys", side(300, 1, 9, textKey), side(150, 1, 5, textKey), 1, plan.JoinLeft, true, 0},
		{"two keys", side(300, 2, 9, intKey(12, 17)), side(200, 2, 5, intKey(8, 0)), 2, plan.JoinInner, false, 0},
		{"three keys", side(300, 3, 9, mixedKey), side(120, 3, 5, mixedKey), 3, plan.JoinLeft, true, 0},
		{"spill and reload", side(1500, 1, 9, intKey(1200, 101)), side(3000, 1, 5, intKey(1000, 97)), 1, plan.JoinLeft, true, 4096},
	}
	src := func(rows []types.Row, vectors bool) BatchIterator {
		if vectors {
			return newColWindows(rows, 4, 64)
		}
		return &rowWindows{rows: rows, size: 64}
	}
	sorted := func(rows []types.Row) []types.Row {
		out := slices.Clone(rows)
		slices.SortFunc(out, func(a, b types.Row) int { return strings.Compare(a.String(), b.String()) })
		return out
	}
	lscan, rscan := plan.NewScan(testTable(1, "o", "a", "b", "c", "d"), []catalog.TableID{1}, nil), plan.NewScan(testTable(2, "i", "a", "b", "c", "d"), []catalog.TableID{2}, nil)
	residual := &plan.BinOp{Op: ">", Left: &plan.ColRef{Idx: 3}, Right: &plan.ColRef{Idx: 7}}
	for _, tc := range cases {
		var extra plan.Expr
		var keep func(o, in types.Row) bool
		if tc.extra {
			extra, keep = residual, func(o, in types.Row) bool { return o[3].Int() > in[3].Int() }
		}
		want := joinOracle(tc.outer, tc.inner, tc.keys, tc.kind, keep)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle join is empty", tc.name)
		}
		var lk, rk []plan.Expr
		cond := extra
		for k := 0; k < tc.keys; k++ {
			lk, rk = append(lk, &plan.ColRef{Idx: k}), append(rk, &plan.ColRef{Idx: k})
			eq := &plan.BinOp{Op: "=", Left: &plan.ColRef{Idx: k}, Right: &plan.ColRef{Idx: 4 + k}}
			if cond == nil {
				cond = eq
			} else {
				cond = &plan.BinOp{Op: "AND", Left: eq, Right: cond}
			}
		}
		for _, layout := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, op := range []string{"hash", "nestloop"} {
				at := fmt.Sprintf("%s, %s join, vectors outer %v inner %v", tc.name, op, layout[0], layout[1])
				ctx := &Context{Ctx: context.Background(), NumSegments: 1, BatchSize: 64}
				var it BatchIterator
				if op == "hash" {
					if tc.budget > 0 {
						ctx.Spill = NewSpillManager(tc.budget)
					}
					it = newBatchHashJoinIter(ctx, plan.NewHashJoin(tc.kind, lscan, rscan, lk, rk, extra), src(tc.outer, layout[0]), src(tc.inner, layout[1]))
				} else if tc.budget == 0 {
					it = newBatchNestLoopIter(ctx, plan.NewNestLoop(tc.kind, lscan, rscan, cond), src(tc.outer, layout[0]), src(tc.inner, layout[1]))
				} else {
					continue
				}
				got := drain(t, it)
				if tc.budget == 0 {
					requireSameRows(t, want, got)
					continue
				}
				if spills, _, _, _ := ctx.Spill.Stats(); spills == 0 {
					t.Fatalf("%s: the join did not spill", at)
				}
				if ctx.Spill.Cleanup() != 0 {
					t.Fatalf("%s: the join left spill files behind", at)
				}
				requireSameRows(t, sorted(want), sorted(got))
			}
		}
	}
}

// BenchmarkHashJoinProbe: 100 000 heap-row probes against a 1 000-row build
// side, each matching once (ns/op, B/op and allocs/op are per 100 000
// probes, build included: the gather is reused, so neither depends on the
// probe count). out=2 and out=15 join on one int key and read 2 and all 15
// output columns above the join; keys=2 joins on two int columns and
// text_key on one text column, each reading 2.
func BenchmarkHashJoinProbe(b *testing.B) {
	const nProbe, nBuild = 100000, 1000
	cols := func(prefix string, n int) (out []string) {
		for c := 0; c < n; c++ {
			out = append(out, fmt.Sprint(prefix, c))
		}
		return out
	}
	lscan := plan.NewScan(testTable(1, "l", cols("l", 8)...), []catalog.TableID{1}, nil)
	rscan := plan.NewScan(testTable(2, "o", cols("o", 7)...), []catalog.TableID{2}, nil)
	for _, c := range []struct {
		name string
		keys int
		text bool
		out  []int
	}{{"out=2", 1, false, []int{6, 12}}, {"out=15", 1, false, nil}, {"keys=2", 2, false, []int{6, 12}}, {"text_key", 1, true, []int{6, 12}}} {
		// Key column j holds key + j (as text for text_key); column j past
		// the keys holds i + j.
		wide := func(n, width int, key func(i int) int) []types.Row {
			rows := make([]types.Row, n)
			for i := range rows {
				rows[i] = make(types.Row, width)
				for j := range rows[i] {
					switch {
					case j >= c.keys:
						rows[i][j] = types.NewInt(int64(i + j))
					case c.text:
						rows[i][j] = types.NewText(fmt.Sprint("key-", key(i)+j))
					default:
						rows[i][j] = types.NewInt(int64(key(i) + j))
					}
				}
			}
			return rows
		}
		probe := wide(nProbe, 8, func(i int) int { return i % nBuild })
		build := wide(nBuild, 7, func(i int) int { return i })
		var keys []plan.Expr
		for j := 0; j < c.keys; j++ {
			keys = append(keys, &plan.ColRef{Idx: j})
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				node := plan.NewHashJoin(plan.JoinInner, lscan, rscan, keys, keys, nil)
				node.Out = c.out
				it := newBatchHashJoinIter(&Context{Ctx: context.Background(), NumSegments: 1}, node,
					&rowWindows{rows: probe, size: types.DefaultBatchSize}, &rowWindows{rows: build, size: types.DefaultBatchSize})
				joined := 0
				for {
					batch, err := it.NextBatch()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					joined += batch.Len()
				}
				it.Close()
				if joined != nProbe {
					b.Fatalf("%d joined rows, want %d", joined, nProbe)
				}
			}
		})
	}
}
