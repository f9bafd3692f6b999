package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/types"
)

// Predicate pushdown: the planner reads a scan's WHERE conjunction once for
// its sargable part — conjuncts of the shape `col <op> const`, `col IN
// (consts)`, `col BETWEEN const AND const` — as types.Conjuncts. The scan
// carries them as its ScanPredicate, and partition pruning and the storage
// layer's zone maps (per-block min/max/null-count) both test them against a
// value range to skip whole partitions and blocks.
//
// The pushdown is advisory, not a rewrite: zone maps are block-granular, so
// rows of blocks that survive skipping must still be filtered row-by-row.
// The scan's Filter therefore keeps the full conjunction (it is the batch
// filter that produces the selection vector); ScanPredicate only adds the
// ability to prove, per block or partition, that no row can pass.

// ScanPredicate is the pushed-down part of a scan filter: a conjunction of
// sargable conjuncts, handed to the storage layer as it is.
type ScanPredicate []types.Conjunct

// String renders the predicate for EXPLAIN output.
func (p ScanPredicate) String() string {
	parts := make([]string, len(p))
	for i, c := range p {
		col := c.Name
		if col == "" {
			col = fmt.Sprintf("$%d", c.Col)
		}
		if c.Op == types.OpIn {
			vals := make([]string, len(c.In))
			for j, v := range c.In {
				vals[j] = v.String()
			}
			parts[i] = fmt.Sprintf("%s IN (%s)", col, strings.Join(vals, ", "))
		} else {
			parts[i] = fmt.Sprintf("%s %s %s", col, c.Op, c.Val)
		}
	}
	return strings.Join(parts, " AND ")
}

// colCmp matches e as a comparison of a column with an operand in either
// order: `col <op> operand` as written, `operand <op> col` with the operator
// mirrored. It is the one reading of that shape — pushdown, index choice,
// direct dispatch and the compiled filter each only judge the operand — and
// it does not allocate, since route runs it on every Bind.
func colCmp(e Expr) (cr *ColRef, op types.CmpOp, operand Expr, ok bool) {
	b, isBin := e.(*BinOp)
	if !isBin {
		return nil, 0, nil, false
	}
	if op = types.ParseCmpOp(b.Op); op == 0 {
		return nil, 0, nil, false
	}
	if cr, ok = b.Left.(*ColRef); ok {
		return cr, op, b.Right, true
	}
	cr, ok = b.Right.(*ColRef)
	return cr, op.Mirror(), b.Left, ok
}

// sargable appends to out every sargable conjunct of e's AND-chain; BETWEEN
// decomposes into its two bound conjuncts. Anything else contributes nothing:
// OR trees, expressions over several columns, non-constant comparands, and
// NULL comparands — a comparison with NULL is never true, so there is no
// block it could select. e is not modified and remains the row-level filter.
func sargable(out ScanPredicate, e Expr) ScanPredicate {
	switch x := e.(type) {
	case *BinOp:
		if x.Op == "AND" {
			return sargable(sargable(out, x.Left), x.Right)
		}
		cr, op, operand, ok := colCmp(x)
		if cn, isConst := operand.(*Const); ok && isConst && !cn.Val.IsNull() {
			out = append(out, types.Conjunct{Col: cr.Idx, Op: op, Val: cn.Val, Name: cr.Name})
		}
	case *InList:
		cr, ok := x.Operand.(*ColRef)
		if x.Negate || !ok {
			return out
		}
		vals := make([]types.Datum, 0, len(x.List))
		for _, item := range x.List {
			cn, isConst := item.(*Const)
			if !isConst {
				return out
			}
			if !cn.Val.IsNull() { // NULL candidates never match; drop them
				vals = append(vals, cn.Val)
			}
		}
		if len(vals) > 0 {
			out = append(out, types.Conjunct{Col: cr.Idx, Op: types.OpIn, In: vals, Name: cr.Name})
		}
	case *Between:
		cr, ok := x.Operand.(*ColRef)
		lo, loOk := x.Lo.(*Const)
		hi, hiOk := x.Hi.(*Const)
		if !x.Negate && ok && loOk && hiOk && !lo.Val.IsNull() && !hi.Val.IsNull() {
			out = append(out,
				types.Conjunct{Col: cr.Idx, Op: types.OpGreater | types.OpEqual, Val: lo.Val, Name: cr.Name},
				types.Conjunct{Col: cr.Idx, Op: types.OpLess | types.OpEqual, Val: hi.Val, Name: cr.Name})
		}
	}
	return out
}

// deriveScan is the one analysis of a scan's filter: it extracts the pushed
// predicate and prunes the partitions from the table's full list, keeping
// each leaf whose [Start, End) every conjunct on the partition column may
// match. The planner runs it whenever it sets a scan's filter, and Bind
// whenever new values fill the filter's slots.
func deriveScan(s *Scan) {
	s.ScanPred = sargable(nil, s.Filter)
	t := s.Table
	if !t.IsPartitioned() {
		return
	}
	keep := make([]catalog.TableID, 0, len(t.Partitions))
leaves:
	for i := range t.Partitions {
		part := &t.Partitions[i]
		for j := range s.ScanPred {
			if c := &s.ScanPred[j]; c.Col == t.PartitionCol && !c.MayMatch(part.Start, part.End, true) {
				continue leaves
			}
		}
		keep = append(keep, part.ID)
	}
	s.Partitions = keep
}

// AttachPushdown derives the pushed predicate and partitions of every
// filtered sequential scan in a plan. Called by the planner once the final
// plan shape is known.
func AttachPushdown(root Node) {
	if s, ok := root.(*Scan); ok && s.Filter != nil {
		deriveScan(s)
	}
	for _, c := range root.Children() {
		AttachPushdown(c)
	}
}
