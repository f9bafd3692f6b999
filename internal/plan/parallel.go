package plan

// Intra-segment parallelism planning: the planner decides which slices are
// safe to run as N worker pipelines over disjoint block ranges of the scanned
// table, and annotates the slice's Motion with the configured degree. The
// executor re-validates the shape (and the storage engine's ability to split)
// at build time, so the annotation is advisory — an annotated slice that
// turns out unsplittable simply runs serially.

// ParallelSafe reports whether the slice subtree rooted at n (the child of a
// Motion) can be split into independent worker pipelines: a chain of
// Filter/Project nodes with at most one aggregate, ending at a plain table
// scan. The aggregate must be rewritable into per-worker partials —
// AggPlain/AggPartial without DISTINCT — and the scan must not lock rows
// (FOR UPDATE scans run on the row-locking path).
//
// A top-N sort may sit at the slice root: it runs above the workers'
// ordered gather. Anything else — joins (the build side would be rebuilt
// per worker), other sorts and limits (order- and count-sensitive), motions
// (a receiving worker would compete for the slice's interconnect stream),
// index scans (point lookups gain nothing) — keeps the slice serial.
func ParallelSafe(n Node) bool {
	if s, ok := n.(*Sort); ok && s.Top != nil {
		n = s.Child
	}
	return parallelChainSafe(n, true)
}

// parallelChainSafe walks the unary chain; aggAllowed is spent once the
// single aggregate has been seen.
func parallelChainSafe(n Node, aggAllowed bool) bool {
	switch x := n.(type) {
	case *Scan:
		return !x.ForUpdate
	case *Filter:
		return parallelChainSafe(x.Child, aggAllowed)
	case *Project:
		return parallelChainSafe(x.Child, aggAllowed)
	case *Agg:
		if !aggAllowed {
			return false
		}
		if x.Phase != AggPlain && x.Phase != AggPartial {
			return false // final/intermediate phases merge partial layouts
		}
		for _, sp := range x.Specs {
			if sp.Distinct {
				return false // per-worker dedup would overcount across workers
			}
		}
		return parallelChainSafe(x.Child, false)
	default:
		return false
	}
}

// MarkParallelSlices annotates every parallel-safe sending slice of the plan
// with the degree dop (clamped to >= 1). Slices that are not parallel-safe
// keep Parallel == 0.
func MarkParallelSlices(root Node, dop int) {
	if dop < 1 {
		dop = 1
	}
	var walk func(Node)
	walk = func(n Node) {
		if m, ok := n.(*Motion); ok && ParallelSafe(m.Child) {
			m.Parallel = dop
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
}
