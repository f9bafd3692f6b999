package exec

import (
	"context"
	"fmt"
	"io"
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

// BenchmarkHashJoinProbe: 100 000 heap-row probes against a 1 000-row build
// side, each matching once, with 2 and with all 15 output columns read above
// the join (ns/op, B/op and allocs/op are per 100 000 probes, build
// included: the gather is reused, so neither depends on the probe count).
func BenchmarkHashJoinProbe(b *testing.B) {
	const nProbe, nBuild = 100000, 1000
	wide := func(n, width int, key func(i int) int64) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = make(types.Row, width)
			for c := range rows[i] {
				rows[i][c] = types.NewInt(int64(i + c))
			}
			rows[i][0] = types.NewInt(key(i))
		}
		return rows
	}
	probe := wide(nProbe, 8, func(i int) int64 { return int64(i % nBuild) })
	build := wide(nBuild, 7, func(i int) int64 { return int64(i) })
	cols := func(prefix string, n int) (out []string) {
		for c := 0; c < n; c++ {
			out = append(out, fmt.Sprint(prefix, c))
		}
		return out
	}
	lscan := plan.NewScan(testTable(1, "l", cols("l", 8)...), []catalog.TableID{1}, nil)
	rscan := plan.NewScan(testTable(2, "o", cols("o", 7)...), []catalog.TableID{2}, nil)
	for _, out := range [][]int{{6, 12}, nil} {
		width := len(out)
		if out == nil {
			width = 15
		}
		b.Run(fmt.Sprintf("out=%d", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				node := plan.NewHashJoin(plan.JoinInner, lscan, rscan, []plan.Expr{&plan.ColRef{Idx: 0}}, []plan.Expr{&plan.ColRef{Idx: 0}}, nil)
				node.Out = out
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
