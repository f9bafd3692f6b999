package plan

import "sync/atomic"

// NodeRowCounts collects the actual output rows of every plan node during
// execution, summed across slices and segments (they all share one
// process). Counters are pre-registered at plan time so executor lookups are
// lock-free map reads.
type NodeRowCounts struct {
	counts map[Node]*atomic.Int64
}

// NewNodeRowCounts registers a counter for every node of the plan.
func NewNodeRowCounts(root Node) *NodeRowCounts {
	c := &NodeRowCounts{counts: make(map[Node]*atomic.Int64)}
	var walk func(Node)
	walk = func(n Node) {
		c.counts[n] = new(atomic.Int64)
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
	return c
}

// Counter returns the node's counter, or nil (nil-safe).
func (c *NodeRowCounts) Counter(n Node) *atomic.Int64 {
	if c == nil {
		return nil
	}
	return c.counts[n]
}

// Rows returns the observed output rows of a node (0 when untracked).
func (c *NodeRowCounts) Rows(n Node) int64 {
	if ctr := c.Counter(n); ctr != nil {
		return ctr.Load()
	}
	return 0
}

// Misestimate is one node whose actual cardinality broke its error bound.
type Misestimate struct {
	Node   Node
	Est    int64
	Bound  int64
	Actual int64
}

// CheckRiskBounds compares each node's observed rows against its estimate
// plus error bound. Only statistics-backed estimates participate: without
// ANALYZE statistics the bound is just the estimate itself and carries no
// confidence, so breaking it proves nothing about the plan. The returned
// misestimates drive the robust-plan fallback for subsequent executions.
func CheckRiskBounds(costs map[Node]*NodeCost, actuals *NodeRowCounts) []Misestimate {
	var out []Misestimate
	if costs == nil || actuals == nil {
		return nil
	}
	for n, nc := range costs {
		if nc.StatsNone {
			continue
		}
		if _, isMotion := n.(*Motion); isMotion {
			// A broadcast's receive count scales with the segment count, not
			// with estimation quality; its child is already checked.
			continue
		}
		if _, isAgg := n.(*Agg); isAgg {
			// A partial aggregate emits one group set per segment, so its
			// summed actual exceeds the global estimate by construction. The
			// risk check targets scan/filter/join cardinalities anyway —
			// those are what pick the join order and motion strategy.
			continue
		}
		actual := actuals.Rows(n)
		if actual > nc.Rows+nc.Bound {
			out = append(out, Misestimate{Node: n, Est: nc.Rows, Bound: nc.Bound, Actual: actual})
		}
	}
	return out
}
