package plan

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// OpSegStat is one plan node's executor statistics at one location (a
// segment, or the coordinator slice). All fields are atomics: every worker
// pipeline of a slice records into the same cell.
//
// WallNanos is the operator's inclusive time — nanoseconds spent inside
// Next/NextBatch including time waiting on children — mirroring how
// EXPLAIN ANALYZE reports "actual time" in the real system.
type OpSegStat struct {
	Rows      atomic.Int64
	Batches   atomic.Int64
	WallNanos atomic.Int64
	PeakMem   atomic.Int64 // high-water operator memory (blocking operators)
	Spill     atomic.Int64 // bytes this operator wrote to spill files
}

// MaxMem raises the peak-memory high-water mark.
func (s *OpSegStat) MaxMem(n int64) {
	if s == nil {
		return
	}
	for {
		cur := s.PeakMem.Load()
		if n <= cur || s.PeakMem.CompareAndSwap(cur, n) {
			return
		}
	}
}

// OpStats collects per-node, per-location executor statistics for
// operator-level EXPLAIN ANALYZE. Cells are pre-registered at plan time so
// executor lookups are lock-free map reads; like NodeRowCounts, nodes the
// executor makes up itself (per-worker partial-aggregate clones) have no
// cell and are silently untracked. Index 0 is the coordinator (SegID -1); index
// seg+1 is segment seg.
type OpStats struct {
	nseg  int
	cells map[Node][]*OpSegStat
}

// NewOpStats registers a cell per (node, location) for the whole plan.
func NewOpStats(root Node, numSegments int) *OpStats {
	o := &OpStats{nseg: numSegments, cells: make(map[Node][]*OpSegStat)}
	var walk func(Node)
	walk = func(n Node) {
		row := make([]*OpSegStat, numSegments+1)
		for i := range row {
			row[i] = new(OpSegStat)
		}
		o.cells[n] = row
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	return o
}

// At returns the cell for node n at segment seg (-1 = coordinator), or nil
// when n is untracked or seg out of range. Nil-safe.
func (o *OpStats) At(n Node, seg int) *OpSegStat {
	if o == nil {
		return nil
	}
	row, ok := o.cells[n]
	if !ok || seg < -1 || seg+1 >= len(row) {
		return nil
	}
	return row[seg+1]
}

// Segments returns the per-segment cells of n (coordinator excluded), or
// nil when untracked.
func (o *OpStats) Segments(n Node) []*OpSegStat {
	if o == nil {
		return nil
	}
	row, ok := o.cells[n]
	if !ok {
		return nil
	}
	return row[1:]
}

// NumSegments returns the segment count the stats were sized for.
func (o *OpStats) NumSegments() int {
	if o == nil {
		return 0
	}
	return o.nseg
}

// Skew returns max/avg of per-segment row counts for node n — 1.0 means
// perfectly balanced, nseg means all rows on one segment. ok=false when the
// node emitted no rows on any segment (skew is undefined).
func (o *OpStats) Skew(n Node) (float64, bool) {
	segs := o.Segments(n)
	if len(segs) == 0 {
		return 0, false
	}
	var total, max int64
	for _, c := range segs {
		r := c.Rows.Load()
		total += r
		if r > max {
			max = r
		}
	}
	if total == 0 {
		return 0, false
	}
	avg := float64(total) / float64(len(segs))
	return float64(max) / avg, true
}

// totals sums one node's stats across every location.
func (o *OpStats) totals(n Node) (rows, batches, wall, peakMem, spill int64, any bool) {
	row, ok := o.cells[n]
	if o == nil || !ok {
		return
	}
	for _, c := range row {
		rows += c.Rows.Load()
		batches += c.Batches.Load()
		wall += c.WallNanos.Load()
		if p := c.PeakMem.Load(); p > peakMem {
			peakMem = p
		}
		spill += c.Spill.Load()
		if c.Rows.Load() > 0 || c.WallNanos.Load() > 0 || c.Batches.Load() > 0 {
			any = true
		}
	}
	return
}

// ExplainAnalyzedOps renders the plan with per-node estimated vs actual
// rows plus the operator-level statistics: total rows/batches/time, peak
// operator memory, spill bytes, a skew ratio, and one indented detail line
// per active segment. costs and actuals may be nil (DML plans have no cost
// annotations).
func ExplainAnalyzedOps(root Node, costs map[Node]*NodeCost, actuals *NodeRowCounts, ops *OpStats) string {
	annotated := explainAnnotated(root, func(n Node) string {
		var b strings.Builder
		if nc, ok := costs[n]; ok {
			fmt.Fprintf(&b, "  (cost=%.2f rows=%d ±%d actual=%d", nc.Cost, nc.Rows, nc.Bound, actuals.Rows(n))
			if _, isScan := n.(*Scan); isScan && nc.StatsNone {
				b.WriteString(" stats=none")
			}
			b.WriteString(")")
		}
		rows, batches, wall, peakMem, spill, any := ops.totals(n)
		if !any {
			return b.String()
		}
		fmt.Fprintf(&b, "  (actual rows=%d batches=%d time=%.3fms", rows, batches, float64(wall)/1e6)
		if peakMem > 0 {
			fmt.Fprintf(&b, " mem=%s", fmtBytes(peakMem))
		}
		if spill > 0 {
			fmt.Fprintf(&b, " spill=%s", fmtBytes(spill))
		}
		if skew, ok := ops.Skew(n); ok {
			fmt.Fprintf(&b, " skew=%.2f", skew)
		}
		b.WriteString(")")
		return b.String()
	})
	if ops == nil {
		return annotated
	}
	// Inject per-segment detail lines beneath each node, re-walking in the
	// same order explainAnnotated emits nodes.
	lines := strings.Split(strings.TrimRight(annotated, "\n"), "\n")
	var order []Node
	var walk func(Node)
	walk = func(n Node) {
		order = append(order, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	var out []string
	for i, line := range lines {
		out = append(out, line)
		if i >= len(order) {
			continue
		}
		n := order[i]
		indent := strings.Repeat(" ", indentOf(line)+5)
		for seg, c := range ops.Segments(n) {
			// Only segments where the node actually ran get a detail line;
			// coordinator-only work is already covered by the totals.
			if c.Rows.Load() == 0 && c.Batches.Load() == 0 && c.WallNanos.Load() == 0 {
				continue
			}
			out = append(out, fmt.Sprintf("%sseg%d: rows=%d batches=%d time=%.3fms mem=%s spill=%s",
				indent, seg, c.Rows.Load(), c.Batches.Load(), float64(c.WallNanos.Load())/1e6,
				fmtBytes(c.PeakMem.Load()), fmtBytes(c.Spill.Load())))
		}
	}
	return strings.Join(out, "\n") + "\n"
}

func indentOf(line string) int {
	n := 0
	for n < len(line) && line[n] == ' ' {
		n++
	}
	return n
}

// fmtBytes renders a byte count compactly (B/KB/MB).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
