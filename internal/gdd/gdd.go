// Package gdd implements Greenplum's Global Deadlock Detector (paper §4.3,
// Algorithm 1): a coordinator-side daemon that periodically gathers each
// segment's local wait-for graph, runs the greedy edge-reduction algorithm,
// and — when a residual graph remains and all of its transactions still
// exist — breaks the deadlock by terminating the youngest transaction.
package gdd

import (
	"sort"

	"repro/internal/lockmgr"
)

// SegmentID identifies a segment; the coordinator is segment -1, matching
// the paper's notation (deg_{-1}).
type SegmentID int

// CoordinatorSeg is the coordinator's segment id.
const CoordinatorSeg SegmentID = -1

// LocalGraph is one segment's wait-for edges.
type LocalGraph struct {
	Segment SegmentID
	Edges   []lockmgr.Edge
}

// GlobalGraph is the union of local graphs the detector analyzes.
type GlobalGraph struct {
	Locals []LocalGraph
}

// edgeSet is a mutable copy of the graph during reduction: edges[seg] is the
// slice of remaining edges in that segment's local graph.
type edgeSet struct {
	segs  []SegmentID
	edges map[SegmentID][]lockmgr.Edge
}

func newEdgeSet(g *GlobalGraph) *edgeSet {
	es := &edgeSet{edges: make(map[SegmentID][]lockmgr.Edge)}
	for _, lg := range g.Locals {
		es.segs = append(es.segs, lg.Segment)
		es.edges[lg.Segment] = append([]lockmgr.Edge(nil), lg.Edges...)
	}
	sort.Slice(es.segs, func(i, j int) bool { return es.segs[i] < es.segs[j] })
	return es
}

func (es *edgeSet) globalOutDegree() map[lockmgr.TxnID]int {
	deg := make(map[lockmgr.TxnID]int)
	for _, seg := range es.segs {
		for _, e := range es.edges[seg] {
			deg[e.Waiter]++
			if _, ok := deg[e.Holder]; !ok {
				deg[e.Holder] = 0
			}
		}
	}
	return deg
}

func (es *edgeSet) localOutDegree(seg SegmentID) map[lockmgr.TxnID]int {
	deg := make(map[lockmgr.TxnID]int)
	for _, e := range es.edges[seg] {
		deg[e.Waiter]++
		if _, ok := deg[e.Holder]; !ok {
			deg[e.Holder] = 0
		}
	}
	return deg
}

func (es *edgeSet) empty() bool {
	for _, seg := range es.segs {
		if len(es.edges[seg]) > 0 {
			return false
		}
	}
	return true
}

func (es *edgeSet) remaining() []lockmgr.Edge {
	var out []lockmgr.Edge
	for _, seg := range es.segs {
		out = append(out, es.edges[seg]...)
	}
	return out
}

// Reduce runs Algorithm 1's greedy edge elimination and returns the residual
// edges (empty means no deadlock) plus the set of transactions involved in
// the residual graph.
//
// The two greedy rules, verbatim from the paper:
//
//  1. A vertex with zero *global* out-degree is not blocked anywhere, so it
//     will eventually finish and release everything: remove all edges
//     pointing to it (solid and dotted alike).
//  2. A vertex with zero *local* out-degree in some segment is not blocked in
//     that segment, so it will eventually release the locks it can release
//     without ending the transaction: remove all *dotted* edges pointing to
//     it in that segment.
func Reduce(g *GlobalGraph) (residual []lockmgr.Edge, involved map[lockmgr.TxnID]struct{}) {
	es := newEdgeSet(g)
	for {
		removed := false

		// Rule 1: drop all edges into vertices with zero global out-degree.
		gdeg := es.globalOutDegree()
		for _, seg := range es.segs {
			kept := es.edges[seg][:0]
			for _, e := range es.edges[seg] {
				if gdeg[e.Holder] == 0 {
					removed = true
					continue
				}
				kept = append(kept, e)
			}
			es.edges[seg] = kept
		}

		// Rule 2: drop dotted edges into vertices with zero local out-degree.
		for _, seg := range es.segs {
			ldeg := es.localOutDegree(seg)
			kept := es.edges[seg][:0]
			for _, e := range es.edges[seg] {
				if !e.Solid && ldeg[e.Holder] == 0 {
					removed = true
					continue
				}
				kept = append(kept, e)
			}
			es.edges[seg] = kept
		}

		if !removed {
			break
		}
	}
	if es.empty() {
		return nil, nil
	}
	residual = es.remaining()
	involved = make(map[lockmgr.TxnID]struct{})
	for _, e := range residual {
		involved[e.Waiter] = struct{}{}
		involved[e.Holder] = struct{}{}
	}
	return residual, involved
}

// ChooseVictim implements the paper's default policy: terminate the youngest
// transaction, i.e. the one with the largest (most recently assigned,
// monotonically increasing) distributed transaction id. Only transactions
// that appear as waiters in the residual graph are candidates — killing a
// pure holder would not unblock it if it is not itself waiting.
func ChooseVictim(residual []lockmgr.Edge) lockmgr.TxnID {
	var victim lockmgr.TxnID
	for _, e := range residual {
		if e.Waiter > victim {
			victim = e.Waiter
		}
	}
	return victim
}
