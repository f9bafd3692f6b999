package plan

// Column pruning: one top-down pass over the finished plan tree that carries
// the set of output columns each node's consumers read and records it where
// the executor can use it — Scan.Project (the column store decodes only
// those) and HashJoin.Out / NestLoop.Out (the join gathers only those). The
// convention is Scan.Project's: offsets keep their positions and an unread
// column reads NULL, so no ColRef, sort key, hash key or locus is renumbered.

// colSet is a need-set over a node's output offsets; nil means every column
// (the statement's result, or a reader the pass cannot see into).
type colSet []bool

// pruneColumns runs the pass from the statement's root, whose every output
// column goes to the client.
func pruneColumns(root Node) { prune(root, nil) }

// readBy returns need plus the columns exprs reference, over width columns;
// nil when need is nil or an expression defeats collectCols.
func readBy(width int, need colSet, exprs ...Expr) colSet {
	if need == nil {
		return nil
	}
	refs := make(map[int]struct{})
	for _, e := range exprs {
		if !collectCols(e, refs) {
			return nil
		}
	}
	out := make(colSet, width)
	copy(out, need)
	for c := range refs {
		if c < 0 || c >= width {
			return nil // let evaluation report the bad reference
		}
		out[c] = true
	}
	return out
}

// offsets lists the set's members in ascending order (non-nil even when
// empty: nil means all), or nil when the set is nil or holds every column.
func (s colSet) offsets() []int {
	if s == nil {
		return nil
	}
	out := make([]int, 0, len(s))
	for c, ok := range s {
		if ok {
			out = append(out, c)
		}
	}
	if len(out) == len(s) {
		return nil
	}
	return out
}

// prune records what n's subtree must produce given that n's consumers read
// need of its output.
func prune(n Node, need colSet) {
	switch x := n.(type) {
	case *Scan:
		if !x.ForUpdate { // the row-locking path returns whole stored rows
			x.Project = readBy(x.schema.Len(), need, x.Filter).offsets()
		}
	case *Project:
		// A fresh set: the needed outputs' expressions. An unneeded output
		// that is a bare column costs nothing to compute over a NULL input;
		// any other expression is kept fed, so it fails or not as before.
		var exprs []Expr
		for i, e := range x.Exprs {
			if _, bare := e.(*ColRef); need == nil || need[i] || !bare {
				exprs = append(exprs, e)
			}
		}
		prune(x.Child, readBy(x.Child.Schema().Len(), colSet{}, exprs...))
	case *Agg:
		if x.Phase == AggFinal {
			prune(x.Child, nil) // merges the whole partial layout by position
			return
		}
		exprs := append([]Expr(nil), x.GroupBy...)
		for _, sp := range x.Specs {
			exprs = append(exprs, sp.Arg)
		}
		prune(x.Child, readBy(x.Child.Schema().Len(), colSet{}, exprs...))
	case *Filter:
		prune(x.Child, readBy(x.Schema().Len(), need, x.Cond))
	case *Sort:
		keys := make([]Expr, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = k.Expr
		}
		prune(x.Child, readBy(x.Schema().Len(), need, keys...))
	case *Limit:
		prune(x.Child, need)
	case *Motion:
		prune(x.Child, readBy(x.Schema().Len(), need, x.HashExprs...))
	case *HashJoin:
		x.Out = need.offsets()
		lw := x.Left.Schema().Len()
		both := readBy(x.schema.Len(), need, x.Extra)
		pruneSide(x.Left, both, 0, lw, x.LeftKeys)
		pruneSide(x.Right, both, lw, x.schema.Len(), x.RightKeys)
	case *NestLoop:
		x.Out = need.offsets()
		lw := x.Left.Schema().Len()
		both := readBy(x.schema.Len(), need, x.Cond)
		pruneSide(x.Left, both, 0, lw, nil)
		pruneSide(x.Right, both, lw, x.schema.Len(), nil)
	}
}

// InnerCols lists the inner-side columns a join reads, as offsets into that
// side: those of its output need-set out (nil: every column) at lw and
// beyond, and those cond references. nil means all of them.
func InnerCols(width, lw int, out []int, cond Expr) []int {
	if out == nil {
		return nil
	}
	need := make(colSet, width)
	for _, c := range out {
		need[c] = true
	}
	if need = readBy(width, need, cond); need == nil {
		return nil
	}
	return need[lw:].offsets()
}

// pruneSide prunes one join input: the window [lo, hi) of the join's
// need-set plus the side's own key columns.
func pruneSide(side Node, both colSet, lo, hi int, keys []Expr) {
	if both == nil {
		prune(side, nil)
		return
	}
	prune(side, readBy(hi-lo, both[lo:hi], keys...))
}
