package lockmgr

import (
	"fmt"
	"sort"
)

// Edge is one arc of the local wait-for graph: Waiter is blocked by Holder.
// Solid edges come from locks released only at transaction end (relation,
// transaction and object locks, and a tuple lock taken with AcquireToEnd);
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
		if e.Waiter == e.Holder {
			return
		}
		if _, dup := seen[e]; dup {
			return
		}
		seen[e] = struct{}{}
		edges = append(edges, e)
	}
	for tag, l := range m.locks {
		solid := tag.Kind != TagTuple
		for i, w := range l.queue {
			for _, g := range l.grants {
				if g.txn != w.txn && conflicts[w.mode]&g.modes != 0 {
					add(Edge{Waiter: w.txn, Holder: g.txn, Solid: solid || g.toEnd})
				}
			}
			for j := 0; j < i; j++ {
				prev := l.queue[j]
				if prev.txn == w.txn {
					continue
				}
				if Conflicts(w.mode, prev.mode) {
					add(Edge{Waiter: w.txn, Holder: prev.txn, Solid: solid || prev.toEnd})
				}
			}
		}
	}
	return edges
}

// Dump renders the lock table like pg_locks: one line per holder and per
// queued waiter. For diagnostics and the gpshell \locks command.
func (m *Manager) Dump() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for tag, l := range m.locks {
		for _, g := range l.grants {
			for mode := AccessShare; mode <= AccessExclusive; mode++ {
				if g.modes&(1<<mode) != 0 {
					out = append(out, fmt.Sprintf("%s held by txn %d in %s", tag, g.txn, mode))
				}
			}
		}
		for i, w := range l.queue {
			out = append(out, fmt.Sprintf("%s wanted by txn %d in %s (queue pos %d)", tag, w.txn, w.mode, i))
		}
	}
	sort.Strings(out)
	return out
}

// Waiting reports whether txn is currently blocked in this lock table.
func (m *Manager) Waiting(txn TxnID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range m.locks {
		for _, w := range l.queue {
			if w.txn == txn {
				return true
			}
		}
	}
	return false
}
