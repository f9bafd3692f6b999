package plan

import (
	"repro/internal/stats"
	"repro/internal/types"
)

// The cost model follows the classic Selinger/SimpleDB shape: every plan
// node answers three questions — how many blocks does executing it touch
// (NodeCost.Blocks), how many records does it emit (RecordsOutput), and how
// many distinct values does a column of its output carry (DistinctValues).
// Scan estimates come from the ANALYZE statistics in the catalog when they
// are valid (selectivity from per-column histograms, NDV, null fractions
// over the pushdown predicate shapes); without statistics the live row count
// stands in and selectivities fall back to the System R constants, flagged
// stats=none in EXPLAIN.
//
// Every cardinality estimate carries an error bound (NodeCost.Bound)
// derived from the histogram resolution and sample size; bounds propagate
// through the plan by adding relative errors. EXPLAIN prints
// `cost=… rows=… ±bound`; the executor compares actual rows against
// est+bound to detect misestimates mid-flight.

// Cost-model tunables (arbitrary units: one sequential block read = 1).
const (
	// estBlockBytes is the assumed block size for NodeCost.Blocks.
	estBlockBytes = 32 * 1024
	// cpuRowCost charges per row passed through an operator.
	cpuRowCost = 0.01
	// hashBuildCost charges per build-side row of a hash join.
	hashBuildCost = 0.02
	// motionRowCost charges per row crossing the interconnect once.
	motionRowCost = 0.03
)

// NodeCost is the cost model's verdict for one plan node.
type NodeCost struct {
	// Rows is the estimated output cardinality.
	Rows int64
	// Bound is the ± error bound on Rows: a robust plan sizes operator
	// memory for Rows+Bound, the pessimistic cardinality, and the executor
	// records a misestimate when actual rows exceed it.
	Bound int64
	// Cost is the cumulative cost of producing the node's full output.
	Cost float64
	// Blocks is the storage blocks accessed beneath (and including) the node.
	Blocks int64
	// StatsNone marks an estimate not backed by ANALYZE statistics; it
	// propagates upward (a join inherits it from either input), gates the
	// risk-bound misestimate check (an unbacked bound carries no
	// confidence), and prints as stats=none on scans in EXPLAIN.
	StatsNone bool
}

// Stats is the cost model's one input: what the cluster knows of a table's
// rows (implemented by *cluster.Cluster).
type Stats interface {
	// RowCount estimates the total rows of a table across the cluster.
	RowCount(table string) int64
	// TableStats returns the table's ANALYZE statistics, or nil when it was
	// never analyzed or has been written since.
	TableStats(table string) *stats.TableStats
}

// defaultStats is used when no statistics provider is wired (sessions
// always wire the cluster; this is only reachable from direct Planner
// construction). Zero rows means "unknown": the planner then never
// broadcasts on a guess.
type defaultStats struct{}

func (defaultStats) RowCount(string) int64               { return 0 }
func (defaultStats) TableStats(string) *stats.TableStats { return nil }

// Per-datum and per-row footprints matching types.Datum.Size / types.Row.Size
// for numeric columns (text adds its payload, which stats cannot see).
const (
	estDatumBytes = 24
	estRowBytes   = 24
)

// estRowWidth is the accounted bytes of one row of the schema.
func estRowWidth(s *types.Schema) int64 {
	if s == nil {
		return estRowBytes
	}
	return estRowBytes + estDatumBytes*int64(len(s.Columns))
}

// groupEstimateDivisor is how many rows the model assumes share a value when
// it has no distinct-value statistics.
const groupEstimateDivisor = 4

// costEstimator walks a plan computing NodeCost per node. It memoizes by
// node identity, so shared subtrees are costed once, and a tree changed
// after costing (pushdown, pruning) needs a fresh estimator.
type costEstimator struct {
	st    Stats
	nseg  int
	costs map[Node]*NodeCost
}

func newCostEstimator(st Stats, nseg int) *costEstimator {
	if nseg < 1 {
		nseg = 1
	}
	return &costEstimator{st: st, nseg: nseg, costs: make(map[Node]*NodeCost)}
}

// RecordsOutput estimates the node's output cardinality.
func (c *costEstimator) RecordsOutput(n Node) int64 { return c.cost(n).Rows }

// Cost returns the node's cumulative cost estimate.
func (c *costEstimator) Cost(n Node) float64 { return c.cost(n).Cost }

// DistinctValues estimates the number of distinct values of output column
// col of node n, tracing the column to a base table where possible.
func (c *costEstimator) DistinctValues(n Node, col int) int64 {
	rows := c.cost(n).Rows
	ndv := c.distinct(n, col)
	if ndv > rows {
		ndv = rows
	}
	if ndv < 1 {
		ndv = 1
	}
	return ndv
}

func (c *costEstimator) distinct(n Node, col int) int64 {
	switch x := n.(type) {
	case *Scan:
		if ts := c.st.TableStats(x.Table.Name); ts != nil {
			if cs := ts.Column(col); cs != nil && cs.NDV > 0 {
				return cs.NDV
			}
		}
		// No statistics: assume 1/groupEstimateDivisor of rows are distinct.
		return c.cost(n).Rows/groupEstimateDivisor + 1
	case *Project:
		if col < len(x.Exprs) {
			if cr, ok := x.Exprs[col].(*ColRef); ok {
				return c.distinct(x.Child, cr.Idx)
			}
		}
		return c.cost(n).Rows
	case *Filter:
		return c.distinct(x.Child, col)
	case *Motion:
		return c.distinct(x.Child, col)
	case *Sort:
		return c.distinct(x.Child, col)
	case *Limit:
		return c.distinct(x.Child, col)
	case *HashJoin:
		lw := x.Left.Schema().Len()
		if col < lw {
			return c.distinct(x.Left, col)
		}
		return c.distinct(x.Right, col-lw)
	case *NestLoop:
		lw := x.Left.Schema().Len()
		if col < lw {
			return c.distinct(x.Left, col)
		}
		return c.distinct(x.Right, col-lw)
	default:
		return c.cost(n).Rows
	}
}

// cost computes (memoized) the NodeCost of n.
func (c *costEstimator) cost(n Node) *NodeCost {
	if nc, ok := c.costs[n]; ok {
		return nc
	}
	nc := c.compute(n)
	if nc.Rows < 0 {
		nc.Rows = 0
	}
	if nc.Bound < 0 {
		nc.Bound = 0
	}
	c.costs[n] = nc
	return nc
}

func (c *costEstimator) compute(n Node) *NodeCost {
	switch x := n.(type) {
	case *Scan:
		return c.scanCost(x)
	case *IndexScan:
		return &NodeCost{Rows: 1, Bound: 1, Cost: 1, Blocks: 1, StatsNone: true}
	case *Filter:
		ch := c.cost(x.Child)
		sel, withStats := c.filterSelectivity(x.Child, x.Cond)
		rows := scaleRows(ch.Rows, sel)
		bound := scaleRows(ch.Bound, sel)
		if !withStats && bound < rows {
			bound = rows // stats-free guess: ±100%
		}
		return &NodeCost{
			Rows:      rows,
			Bound:     bound,
			Cost:      ch.Cost + float64(ch.Rows)*cpuRowCost,
			Blocks:    ch.Blocks,
			StatsNone: ch.StatsNone || !withStats,
		}
	case *Project:
		ch := c.cost(x.Child)
		return &NodeCost{Rows: ch.Rows, Bound: ch.Bound,
			Cost: ch.Cost + float64(ch.Rows)*cpuRowCost, Blocks: ch.Blocks, StatsNone: ch.StatsNone}
	case *Sort:
		ch := c.cost(x.Child)
		rows, bound := ch.Rows, ch.Bound
		if k := x.Bound(); k > 0 && k < rows/int64(c.nseg) { // a top-k on every segment
			rows, bound = k*int64(c.nseg), 0
		}
		// n log n CPU over the materialized input (n log k for a top-k).
		return &NodeCost{Rows: rows, Bound: bound,
			Cost: ch.Cost + float64(ch.Rows)*cpuRowCost*log2(rows), Blocks: ch.Blocks, StatsNone: ch.StatsNone}
	case *Limit:
		ch := c.cost(x.Child)
		rows := ch.Rows
		bound := ch.Bound
		if x.Count >= 0 && x.Count < rows {
			rows = x.Count
			bound = 0
		}
		return &NodeCost{Rows: rows, Bound: bound, Cost: ch.Cost, Blocks: ch.Blocks, StatsNone: ch.StatsNone}
	case *Motion:
		ch := c.cost(x.Child)
		rows := ch.Rows
		cost := ch.Cost + float64(ch.Rows)*motionRowCost
		if x.Type == MotionBroadcast {
			// Every segment receives the full stream.
			cost = ch.Cost + float64(ch.Rows)*motionRowCost*float64(c.nseg)
			rows = ch.Rows * int64(c.nseg)
		}
		return &NodeCost{Rows: rows, Bound: ch.Bound, Cost: cost, Blocks: ch.Blocks, StatsNone: ch.StatsNone}
	case *Agg:
		return c.aggCost(x)
	case *HashJoin:
		return c.joinCost(x.Left, x.Right, x.LeftKeys, x.RightKeys)
	case *NestLoop:
		l, r := c.cost(x.Left), c.cost(x.Right)
		rows := l.Rows * max(c.cost(oneCopy(x.Right)).Rows, 1)
		if x.Cond != nil {
			rows = scaleRows(rows, stats.DefaultSelectivity("="))
		}
		return &NodeCost{Rows: rows, Bound: rows,
			Cost:      l.Cost + r.Cost + float64(l.Rows)*float64(max(r.Rows, 1))*cpuRowCost,
			Blocks:    l.Blocks + r.Blocks,
			StatsNone: l.StatsNone || r.StatsNone || x.Cond != nil}
	case *Values:
		return &NodeCost{Rows: int64(len(x.Rows))}
	default:
		// Pass-through for unknown nodes (DML wrappers, etc.).
		nc := &NodeCost{Rows: 1}
		for _, ch := range n.Children() {
			cc := c.cost(ch)
			nc.Rows = cc.Rows
			nc.Bound = cc.Bound
			nc.Cost += cc.Cost
			nc.Blocks += cc.Blocks
			nc.StatsNone = nc.StatsNone || cc.StatsNone
		}
		return nc
	}
}

// scanCost estimates a table scan: full blocks of the (pruned) table, with
// the filter's selectivity applied to the output cardinality.
func (c *costEstimator) scanCost(s *Scan) *NodeCost {
	ts := c.st.TableStats(s.Table.Name)
	var tableRows int64
	if ts != nil {
		tableRows = ts.RowCount
	} else {
		tableRows = c.st.RowCount(s.Table.Name)
	}
	// Partition pruning scales the scanned fraction.
	frac := 1.0
	if s.Table.IsPartitioned() && len(s.Table.Partitions) > 0 {
		frac = float64(len(s.Partitions)) / float64(len(s.Table.Partitions))
	}
	scanned := scaleRows(tableRows, frac)
	blocks := scanned*estRowWidth(s.Table.Schema)/estBlockBytes + 1
	rows := scanned
	withStats := ts != nil
	if s.Filter != nil {
		sel, ok := c.selectivityOn(ts, s.Filter)
		rows = scaleRows(scanned, sel)
		withStats = withStats && ok
	}
	var bound int64
	if ts != nil {
		bound = ts.ErrorBound(rows)
	} else {
		bound = rows // no statistics: the estimate carries no confidence
	}
	return &NodeCost{
		Rows:      rows,
		Bound:     bound,
		Cost:      float64(blocks) + float64(scanned)*cpuRowCost,
		Blocks:    blocks,
		StatsNone: ts == nil,
	}
}

// aggCost estimates groups from the group-by columns' distinct counts.
func (c *costEstimator) aggCost(a *Agg) *NodeCost {
	ch := c.cost(a.Child)
	groups := int64(1)
	if len(a.GroupBy) > 0 {
		groups = 1
		for _, g := range a.GroupBy {
			var ndv int64
			if cr, ok := g.(*ColRef); ok {
				ndv = c.distinct(a.Child, cr.Idx)
			} else {
				ndv = ch.Rows/groupEstimateDivisor + 1
			}
			if ndv < 1 {
				ndv = 1
			}
			// Cap the product as it grows to avoid overflow.
			if groups > ch.Rows {
				groups = ch.Rows
				break
			}
			groups *= ndv
		}
		if groups > ch.Rows {
			groups = ch.Rows
		}
		if groups < 1 {
			groups = 1
		}
	}
	bound := int64(0)
	if len(a.GroupBy) > 0 {
		bound = scaleRows(ch.Bound, float64(groups)/float64(max(ch.Rows, 1)))
		if bound < 1 {
			bound = 1
		}
	}
	return &NodeCost{Rows: groups, Bound: bound,
		Cost: ch.Cost + float64(ch.Rows)*cpuRowCost, Blocks: ch.Blocks, StatsNone: ch.StatsNone}
}

// joinCost estimates an equality join: |L|·|R| / max(ndv(lk), ndv(rk)) per
// key pair, with build-side CPU charged on the right. R is one copy of the
// inner side: a broadcast makes every segment build the whole stream, which
// the cost pays for, but each outer row still meets R once.
func (c *costEstimator) joinCost(left, right Node, lk, rk []Expr) *NodeCost {
	build := c.cost(right)
	right = oneCopy(right)
	l, r := c.cost(left), c.cost(right)
	rows := l.Rows * max(r.Rows, 1)
	for i := range lk {
		sel := c.joinKeySelectivity(left, right, lk[i], rk[i])
		rows = scaleRows(rows, sel)
	}
	if rows < 1 {
		rows = 1
	}
	// Relative errors add under the independence assumption.
	rel := relError(l) + relError(r)
	bound := int64(float64(rows) * rel)
	if bound < 1 {
		bound = 1
	}
	return &NodeCost{
		Rows:      rows,
		Bound:     bound,
		Cost:      l.Cost + build.Cost + float64(l.Rows)*cpuRowCost + float64(build.Rows)*hashBuildCost + float64(rows)*cpuRowCost,
		Blocks:    l.Blocks + build.Blocks,
		StatsNone: l.StatsNone || r.StatsNone,
	}
}

// oneCopy looks through a broadcast to the stream it copies to every segment.
func oneCopy(n Node) Node {
	if m, ok := n.(*Motion); ok && m.Type == MotionBroadcast {
		return m.Child
	}
	return n
}

// joinKeySelectivity is 1/max(ndv_left, ndv_right) for one key equality.
func (c *costEstimator) joinKeySelectivity(left, right Node, lk, rk Expr) float64 {
	ndv := int64(0)
	if cr, ok := lk.(*ColRef); ok {
		ndv = c.DistinctValues(left, cr.Idx)
	}
	if cr, ok := rk.(*ColRef); ok {
		if d := c.DistinctValues(right, cr.Idx); d > ndv {
			ndv = d
		}
	}
	if ndv <= 0 {
		ndv = max(c.cost(left).Rows, c.cost(right).Rows)/groupEstimateDivisor + 1
	}
	return 1 / float64(max(ndv, 1))
}

// filterSelectivity estimates a predicate over an arbitrary child node:
// sargable conjuncts use base-table statistics when the child is a scan,
// everything else falls back to the default constants. ok reports whether
// statistics backed the whole estimate.
func (c *costEstimator) filterSelectivity(child Node, cond Expr) (sel float64, ok bool) {
	if s, isScan := child.(*Scan); isScan {
		return c.selectivityOn(c.st.TableStats(s.Table.Name), cond)
	}
	return c.selectivityOn(nil, cond)
}

// selectivityOn estimates an AND-chain's selectivity against one table's
// statistics (ts may be nil; columns are table-schema offsets). ok reports
// whether every conjunct was estimated from statistics.
func (c *costEstimator) selectivityOn(ts *stats.TableStats, cond Expr) (float64, bool) {
	sel := 1.0
	ok := ts != nil
	for _, conj := range flattenAnd(cond) {
		s, backed := conjunctSelectivity(ts, conj)
		sel *= s
		ok = ok && backed
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel, ok
}

// conjunctSelectivity estimates one conjunct; backed reports whether the
// estimate came from column statistics rather than a default constant.
func conjunctSelectivity(ts *stats.TableStats, conj Expr) (sel float64, backed bool) {
	// Reuse the pushdown classifier: it recognizes exactly the sargable
	// shapes the statistics can estimate (=, range ops, IN, BETWEEN).
	if sc := sargable(nil, conj); len(sc) > 0 {
		sel = 1.0
		backed = ts != nil
		for _, cj := range sc {
			cs := ts.Column(cj.Col)
			if cs == nil {
				sel *= stats.DefaultSelectivity(cj.Op.String())
				backed = false
				continue
			}
			switch cj.Op {
			case types.OpEqual:
				sel *= cs.EqSelectivity(cj.Val)
			case types.OpLess | types.OpGreater:
				sel *= 1 - cs.EqSelectivity(cj.Val)
			case types.OpIn:
				sel *= cs.InSelectivity(cj.In)
			default:
				sel *= cs.RangeSelectivity(cj.Op.String(), cj.Val)
			}
		}
		return sel, backed
	}
	switch x := conj.(type) {
	case *IsNull:
		if cr, ok := x.Operand.(*ColRef); ok {
			if cs := ts.Column(cr.Idx); cs != nil {
				if x.Negate {
					return 1 - cs.NullFrac, true
				}
				return cs.NullFrac, true
			}
		}
		return 0.1, false
	case *BinOp:
		if x.Op == "OR" {
			l, lb := conjunctSelectivity(ts, x.Left)
			r, rb := conjunctSelectivity(ts, x.Right)
			s := l + r - l*r
			if s > 1 {
				s = 1
			}
			return s, lb && rb
		}
		return stats.DefaultSelectivity(x.Op), false
	default:
		return 1.0 / 3.0, false
	}
}

// relError is a cost's relative error bound (bound/rows, capped at 1).
func relError(nc *NodeCost) float64 {
	if nc.Rows <= 0 {
		return 1
	}
	r := float64(nc.Bound) / float64(nc.Rows)
	if r > 1 {
		r = 1
	}
	return r
}

func scaleRows(rows int64, f float64) int64 {
	out := int64(float64(rows) * f)
	if out < 0 {
		out = 0
	}
	if f > 0 && out == 0 && rows > 0 {
		out = 1
	}
	return out
}

func log2(n int64) float64 {
	f := 1.0
	for v := int64(2); v < n; v *= 2 {
		f++
	}
	return f
}

// sizeMemory sets the working-set estimate of every blocking operator under
// n from the rows the model estimates it holds: a sort its output, an
// aggregate its groups, a hash join its build side. A robust plan sizes for
// the upper end of each estimate's interval (Rows+Bound), so a misestimated
// input finds its spill fanout already sized for it.
func (c *costEstimator) sizeMemory(n Node, robust bool) {
	rows := func(n Node) int64 {
		nc := c.cost(n)
		if robust {
			return nc.Rows + nc.Bound
		}
		return nc.Rows
	}
	switch x := n.(type) {
	case *Sort:
		x.EstMemBytes = rows(x) * estRowWidth(x.Child.Schema())
	case *Agg:
		// Each group holds its key row plus per-spec transition state (the
		// executor charges 64 bytes per aggregate state).
		x.EstMemBytes = rows(x) * (estRowBytes + estDatumBytes*int64(len(x.GroupBy)) + 64*int64(len(x.Specs)))
	case *HashJoin:
		x.EstMemBytes = rows(x.Right) * estRowWidth(x.Right.Schema())
	}
	for _, ch := range n.Children() {
		c.sizeMemory(ch, robust)
	}
}
