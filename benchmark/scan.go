package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/types"
)

// scan cycles analytic queries over one AO-column fact table. The table is
// sized so that the decoded columns the cycle touches exceed the segments'
// block caches (4 × 16 MiB) by more than 1.5×, while the blocks the zone-map
// range queries touch fit; see README.md for the arithmetic.
//
// The cycle has seven statements over six query shapes — the range query
// runs twice, on two different ranges — because a cycle with an even number
// of equally frequent statements puts the median latency on the boundary
// between two query shapes, where it wanders.
type scan struct {
	rows int
	seed uint64
	next int // position in the cycle
	// queries[i] and want[i] are the i-th statement of the cycle and the
	// rows the generator computed for it in Go.
	queries []string
	want    [][]types.Row
}

var scanQueryNames = []string{"group_g", "expr_filter", "range_lo", "group_tag", "top_d", "top_amt", "range_hi"}

const (
	scanRows = 640000
	// scanMinRows keeps a scaled-down table big enough to have sealed blocks
	// (4096 rows each, per segment) for the zone maps to skip.
	scanMinRows = 40000
	scanGroups  = 64
	scanDays    = 480
	scanTags    = 16
	// scanRangeDays is the width of a range query: 5% of the d domain, so
	// about 5% of the blocks (d grows with the load order).
	scanRangeDays = scanDays / 20
)

type fact struct {
	k, g, d, q int
	amt        float64
	tag        int
}

// factAt is row i of the table. Amounts are multiples of 1/4 so that every
// sum the queries take is exact in float64 whatever order the engine adds in.
func (w *scan) factAt(i int) fact {
	r := fork(w.seed, uint64(i))
	return fact{
		k:   i + 1,
		g:   r.intn(scanGroups),
		d:   i * scanDays / w.rows,
		q:   r.between(1, 50),
		amt: float64(r.intn(40000)) / 4,
		tag: r.intn(scanTags),
	}
}

func newScan(seed uint64, scale int) workload {
	w := &scan{rows: scaled(scanRows, scale, scanMinRows), seed: seed}
	r := fork(seed, 1<<40)
	lo := r.intn(scanDays/2 - scanRangeDays)
	hi := scanDays/2 + r.intn(scanDays/2-scanRangeDays)
	rangeQ := func(from int) string {
		return fmt.Sprintf("SELECT count(*), sum(amt) FROM facts WHERE d BETWEEN %d AND %d", from, from+scanRangeDays-1)
	}
	w.queries = []string{
		"SELECT g, count(*), sum(q), min(amt), max(amt), avg(amt) FROM facts GROUP BY g ORDER BY g",
		"SELECT count(*), sum(amt * q) FROM facts WHERE q BETWEEN 10 AND 40 AND g < 32",
		rangeQ(lo),
		"SELECT tag, count(*), sum(amt) FROM facts GROUP BY tag ORDER BY tag",
		"SELECT d, sum(amt) FROM facts GROUP BY d ORDER BY 2 DESC, 1 LIMIT 10",
		"SELECT k, amt FROM facts WHERE q = 7 ORDER BY amt DESC, k LIMIT 100",
		rangeQ(hi),
	}
	w.want = w.reference(lo, hi)
	return w
}

const scanSchema = `
CREATE TABLE facts (k int, g int, d int, q int, amt float, tag text)
  WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)`

func tagName(t int) string { return fmt.Sprintf("tag-%02d", t) }

func (w *scan) load(ctx context.Context, c conn) error {
	if err := script(ctx, c, scanSchema); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "facts", w.rows, func(sb *strings.Builder, i int) {
		f := w.factAt(i)
		fmt.Fprintf(sb, "(%d,%d,%d,%d,%.2f,'%s')", f.k, f.g, f.d, f.q, f.amt, tagName(f.tag))
	}); err != nil {
		return err
	}
	_, err := c.exec(ctx, "ANALYZE")
	return err
}

// op runs the next statement of the cycle and compares its rows with the
// reference.
func (w *scan) op(ctx context.Context, c conn, _ int) (uint8, error) {
	i := w.next % len(w.queries)
	w.next++
	rows, err := c.exec(ctx, w.queries[i])
	if err == nil {
		err = sameRows(scanQueryNames[i], rows, w.want[i])
	}
	return uint8(i), err
}

// check: every query already matched its reference when it ran; what is left
// is that the table still holds its rows.
func (w *scan) check(ctx context.Context, h *host) error {
	c, err := h.session()
	if err != nil {
		return err
	}
	defer c.close()
	n, err := scalar(ctx, c, "SELECT count(*) FROM facts")
	if err != nil {
		return err
	}
	if n.Int() != int64(w.rows) {
		return fmt.Errorf("scan: facts has %d rows, loaded %d", n.Int(), w.rows)
	}
	return nil
}

func (w *scan) statements() []statement {
	out := make([]statement, len(w.queries))
	for i, q := range w.queries {
		out[i] = statement{sql: q, weight: 1}
	}
	return out
}

// reference computes every query's expected rows from the generator alone.
func (w *scan) reference(lo, hi int) [][]types.Row {
	type agg struct {
		n, sumQ       int64
		sum, min, max float64
		seen          bool
	}
	add := func(a *agg, f fact) {
		a.n++
		a.sumQ += int64(f.q)
		a.sum += f.amt
		if !a.seen || f.amt < a.min {
			a.min = f.amt
		}
		if !a.seen || f.amt > a.max {
			a.max = f.amt
		}
		a.seen = true
	}
	byG := make([]agg, scanGroups)
	byTag := make([]agg, scanTags)
	byD := make([]agg, scanDays)
	var expr, rangeLo, rangeHi agg
	var exprSum float64
	var top []fact
	for i := 0; i < w.rows; i++ {
		f := w.factAt(i)
		add(&byG[f.g], f)
		add(&byTag[f.tag], f)
		add(&byD[f.d], f)
		if f.q >= 10 && f.q <= 40 && f.g < 32 {
			expr.n++
			exprSum += f.amt * float64(f.q)
		}
		if f.d >= lo && f.d < lo+scanRangeDays {
			add(&rangeLo, f)
		}
		if f.d >= hi && f.d < hi+scanRangeDays {
			add(&rangeHi, f)
		}
		if f.q == 7 {
			top = append(top, f)
		}
	}
	I, F := types.NewInt, types.NewFloat
	want := make([][]types.Row, len(scanQueryNames))
	for g, a := range byG {
		if a.n > 0 {
			want[0] = append(want[0], types.Row{I(int64(g)), I(a.n), I(a.sumQ), F(a.min), F(a.max), F(a.sum / float64(a.n))})
		}
	}
	want[1] = []types.Row{{I(expr.n), F(exprSum)}}
	want[2] = []types.Row{{I(rangeLo.n), F(rangeLo.sum)}}
	for t, a := range byTag {
		if a.n > 0 {
			want[3] = append(want[3], types.Row{types.NewText(tagName(t)), I(a.n), F(a.sum)})
		}
	}
	days := make([]int, 0, scanDays)
	for d, a := range byD {
		if a.n > 0 {
			days = append(days, d)
		}
	}
	sort.Slice(days, func(i, j int) bool {
		if byD[days[i]].sum != byD[days[j]].sum {
			return byD[days[i]].sum > byD[days[j]].sum
		}
		return days[i] < days[j]
	})
	for _, d := range days[:min(10, len(days))] {
		want[4] = append(want[4], types.Row{I(int64(d)), F(byD[d].sum)})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].amt != top[j].amt {
			return top[i].amt > top[j].amt
		}
		return top[i].k < top[j].k
	})
	for _, f := range top[:min(100, len(top))] {
		want[5] = append(want[5], types.Row{I(int64(f.k)), F(f.amt)})
	}
	want[6] = []types.Row{{I(rangeHi.n), F(rangeHi.sum)}}
	return want
}

// sameRows compares a result with its reference: integers and text exactly,
// floats to 1e-9 relative (the sums are exact; avg divides once).
func sameRows(name string, got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, reference has %d", name, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s row %d: %d columns, reference has %d", name, i, len(got[i]), len(want[i]))
		}
		for j, g := range got[i] {
			x := want[i][j]
			ok := false
			switch x.Kind() {
			case types.KindFloat:
				ok = !g.IsNull() && math.Abs(g.Float()-x.Float()) <= 1e-9*math.Max(1, math.Abs(x.Float()))
			case types.KindText:
				ok = g.Kind() == types.KindText && g.Text() == x.Text()
			default:
				ok = g.Kind() == types.KindInt && g.Int() == x.Int()
			}
			if !ok {
				return fmt.Errorf("%s row %d column %d: got %s, reference %s", name, i, j, g, x)
			}
		}
	}
	return nil
}
