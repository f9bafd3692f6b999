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

// Ran reports whether the node did any work at this location.
func (s *OpSegStat) Ran() bool {
	return s.Rows.Load() > 0 || s.Batches.Load() > 0 || s.WallNanos.Load() > 0
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

// OpStats collects per-node, per-location executor statistics: the one
// collector behind EXPLAIN ANALYZE, per-operator trace spans and the
// cost-based optimizer's risk-bound check. Cells are pre-registered at plan
// time so executor lookups are lock-free map reads; nodes the executor makes
// up itself (per-worker partial-aggregate clones) have no cell and are
// silently untracked. Index 0 of a node's row is the coordinator (SegID -1);
// index seg+1 is segment seg. Timed is false for a collector that only
// counts rows and batches (the risk check's): its operators then read no
// clock.
type OpStats struct {
	Timed bool
	cells map[Node][]OpSegStat
}

// NewOpStats registers a cell per (node, location) for the whole plan, all
// in one allocation.
func NewOpStats(root Node, numSegments int, timed bool) *OpStats {
	o := &OpStats{Timed: timed, cells: make(map[Node][]OpSegStat)}
	var walk func(Node)
	walk = func(n Node) {
		o.cells[n] = nil
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	w := numSegments + 1
	slab := make([]OpSegStat, len(o.cells)*w)
	for n := range o.cells {
		o.cells[n], slab = slab[:w:w], slab[w:]
	}
	return o
}

// At returns the cell for node n at segment seg (-1 = coordinator), or nil
// when n is untracked or seg out of range. Nil-safe.
func (o *OpStats) At(n Node, seg int) *OpSegStat {
	if o == nil {
		return nil
	}
	row := o.cells[n]
	if seg < -1 || seg+1 >= len(row) {
		return nil
	}
	return &row[seg+1]
}

// segments returns the per-segment cells of n (coordinator excluded), or
// nil when untracked. Nil-safe.
func (o *OpStats) segments(n Node) []OpSegStat {
	if o == nil || len(o.cells[n]) == 0 {
		return nil
	}
	return o.cells[n][1:]
}

// skew returns max/avg of per-segment row counts for node n — 1.0 means
// perfectly balanced, nseg means all rows on one segment. ok=false when the
// node emitted no rows on any segment (skew is undefined).
func (o *OpStats) skew(n Node) (float64, bool) {
	segs := o.segments(n)
	var total, max int64
	for i := range segs {
		r := segs[i].Rows.Load()
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

// opTotal is one node's statistics over every location: the sums, the
// highest peak memory, and whether it ran anywhere.
type opTotal struct {
	rows, batches, wall, peakMem, spill int64
	ran                                 bool
}

// total sums one node's stats across every location. Nil-safe.
func (o *OpStats) total(n Node) (t opTotal) {
	if o == nil {
		return
	}
	row := o.cells[n]
	for i := range row {
		c := &row[i]
		t.rows += c.Rows.Load()
		t.batches += c.Batches.Load()
		t.wall += c.WallNanos.Load()
		t.peakMem = max(t.peakMem, c.PeakMem.Load())
		t.spill += c.Spill.Load()
		t.ran = t.ran || c.Ran()
	}
	return
}

// CheckRiskBounds reports whether a node's observed rows, summed over every
// location, broke its estimate plus error bound. Only statistics-backed
// estimates participate: without ANALYZE statistics the bound is just the
// estimate itself and carries no confidence, so breaking it proves nothing
// about the plan. A misestimate drives the robust-plan fallback for
// subsequent executions.
func CheckRiskBounds(costs map[Node]*NodeCost, ops *OpStats) bool {
	for n, nc := range costs {
		if nc.StatsNone {
			continue
		}
		switch n.(type) {
		case *Motion:
			// A broadcast's receive count scales with the segment count, not
			// with estimation quality; its child is already checked.
			continue
		case *Agg:
			// A partial aggregate emits one group set per segment, so its
			// summed actual exceeds the global estimate by construction. The
			// risk check targets scan/filter/join cardinalities anyway —
			// those are what pick the join order and motion strategy.
			continue
		}
		if ops.total(n).rows > nc.Rows+nc.Bound {
			return true
		}
	}
	return false
}

// ExplainPlan renders the plan tree in one walk as indented text resembling
// Greenplum's EXPLAIN output. costs (nil: none) appends each costed node's
// cost=… rows=… ±bound annotation, with stats=none on a scan that had no
// ANALYZE statistics. ops (nil: none) holds an executed statement's
// statistics (EXPLAIN ANALYZE): each node's cost annotation gains actual=,
// and a node that ran gets its totals — rows, batches, inclusive time, peak
// operator memory, spill bytes, a skew ratio — and one detail line per
// segment where it ran; coordinator-only work is covered by the totals.
func ExplainPlan(root Node, costs map[Node]*NodeCost, ops *OpStats) string {
	var b []byte
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b = append(b, strings.Repeat("  ", depth)...)
		if depth > 0 {
			b = append(b, "-> "...)
		}
		b = append(b, n.Explain()...)
		t := ops.total(n)
		if nc, ok := costs[n]; ok {
			b = fmt.Appendf(b, "  (cost=%.2f rows=%d ±%d", nc.Cost, nc.Rows, nc.Bound)
			if ops != nil {
				b = fmt.Appendf(b, " actual=%d", t.rows)
			}
			if _, isScan := n.(*Scan); isScan && nc.StatsNone {
				b = append(b, " stats=none"...)
			}
			b = append(b, ')')
		}
		if t.ran {
			b = fmt.Appendf(b, "  (actual rows=%d batches=%d time=%.3fms", t.rows, t.batches, float64(t.wall)/1e6)
			if t.peakMem > 0 {
				b = fmt.Appendf(b, " mem=%s", fmtBytes(t.peakMem))
			}
			if t.spill > 0 {
				b = fmt.Appendf(b, " spill=%s", fmtBytes(t.spill))
			}
			if skew, ok := ops.skew(n); ok {
				b = fmt.Appendf(b, " skew=%.2f", skew)
			}
			b = append(b, ')')
		}
		b = append(b, '\n')
		segs := ops.segments(n)
		for seg := range segs {
			if c := &segs[seg]; c.Ran() {
				b = append(b, strings.Repeat(" ", 2*depth+5)...)
				b = fmt.Appendf(b, "seg%d: rows=%d batches=%d time=%.3fms mem=%s spill=%s\n",
					seg, c.Rows.Load(), c.Batches.Load(), float64(c.WallNanos.Load())/1e6,
					fmtBytes(c.PeakMem.Load()), fmtBytes(c.Spill.Load()))
			}
		}
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return string(b)
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
