package lockmgr

import (
	"fmt"
	"sort"
)

// Edge is one arc of the local wait-for graph: Waiter is blocked by Holder.
// Solid edges come from locks released only at transaction end (relation
// and transaction locks, and a tuple lock taken with AcquireToEnd);
// dotted edges come from the other tuple locks, which the holder can release
// mid-transaction (paper §4.3).
type Edge struct {
	Waiter TxnID
	Holder TxnID
	Solid  bool
}

// WaitGraph exports the current local wait-for graph. For each queued
// request it emits an edge to every current holder whose mode conflicts and
// to every earlier queued waiter it must not overtake — both are genuine
// waits under the fair FIFO grant policy.
func (m *Manager) WaitGraph() []Edge {
	m.mu.Lock()
	defer m.mu.Unlock()
	var edges []Edge
	seen := make(map[Edge]struct{})
	add := func(e Edge) {
		if _, dup := seen[e]; !dup && e.Waiter != e.Holder {
			seen[e] = struct{}{}
			edges = append(edges, e)
		}
	}
	for tag, l := range m.locks {
		solid := tag.Kind != TagTuple
		for i, w := range l.queue {
			for _, g := range l.grants {
				if conflicts[w.mode]&g.modes != 0 {
					add(Edge{Waiter: w.txn, Holder: g.txn, Solid: solid || g.toEnd})
				}
			}
			for _, prev := range l.queue[:i] {
				if Conflicts(w.mode, prev.mode) {
					add(Edge{Waiter: w.txn, Holder: prev.txn, Solid: solid || prev.toEnd})
				}
			}
		}
	}
	return edges
}

const heldPos, fastPos = -1, -2 // each's pos of a grant and a fast-path entry

// each calls fn, under the table's mutex, for every grant in the table,
// fast-path entry and queued request (with its queue position).
func (m *Manager) each(fn func(tag Tag, txn TxnID, modes uint16, pos int)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for tag, l := range m.locks {
		for _, g := range l.grants {
			fn(tag, g.txn, g.modes, heldPos)
		}
		for i, w := range l.queue {
			fn(tag, w.txn, 1<<w.mode, i)
		}
	}
	for _, o := range m.owners {
		o.mu.Lock()
		for _, f := range o.fast[:o.nfast] {
			fn(RelationTag(f.rel), o.id, f.modes, fastPos)
		}
		o.mu.Unlock()
	}
}

// Dump renders the lock table like pg_locks: one line per held mode, ending
// "fastpath" for a fast-path one, and one per queued request. For
// diagnostics and the gpshell \locks command.
func (m *Manager) Dump() []string {
	var out []string
	m.each(func(tag Tag, txn TxnID, modes uint16, pos int) {
		for mode := AccessShare; mode <= AccessExclusive; mode++ {
			switch {
			case modes&(1<<mode) == 0:
			case pos >= 0:
				out = append(out, fmt.Sprintf("%s wanted by txn %d in %s (queue pos %d)", tag, txn, mode, pos))
			case pos == fastPos:
				out = append(out, fmt.Sprintf("%s held by txn %d in %s fastpath", tag, txn, mode))
			default:
				out = append(out, fmt.Sprintf("%s held by txn %d in %s", tag, txn, mode))
			}
		}
	})
	sort.Strings(out)
	return out
}

// HoldsAny reports whether txn holds — in the table or on the fast path —
// or awaits any lock (diagnostics and tests).
func (m *Manager) HoldsAny(txn TxnID) bool {
	found := false
	m.each(func(_ Tag, t TxnID, _ uint16, _ int) { found = found || t == txn })
	return found
}
