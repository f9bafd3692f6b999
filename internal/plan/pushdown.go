package plan

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Predicate pushdown: the planner splits a scan's WHERE conjunction into the
// sargable part — conjuncts of the shape `col <op> const`, `col IN
// (consts)`, `col BETWEEN const AND const` — and everything else. The
// sargable part is attached to the Scan node as a ScanPredicate; the storage
// layer evaluates it against per-block zone maps (min/max/null-count) to
// skip whole blocks before decoding them.
//
// The pushdown is advisory, not a rewrite: zone maps are block-granular, so
// rows of blocks that survive skipping must still be filtered row-by-row.
// The scan's Filter therefore keeps the full conjunction (it is the batch
// filter that produces the selection vector); ScanPredicate only adds the
// ability to prove, per block, that no row can pass.

// ScanConjunct is one sargable conjunct. Op is a comparison operator
// ("=", "<>", "<", "<=", ">", ">=") with the constant in Val, or "in" with
// the non-NULL candidate values in In.
type ScanConjunct struct {
	Col int
	Op  string
	Val types.Datum
	In  []types.Datum
	// name is the referenced column's name, kept for EXPLAIN output.
	name string
}

// ScanPredicate is the pushed-down part of a scan filter: a conjunction of
// sargable conjuncts.
type ScanPredicate struct {
	Conjuncts []ScanConjunct
}

// String renders the predicate for EXPLAIN output.
func (p *ScanPredicate) String() string {
	parts := make([]string, len(p.Conjuncts))
	for i, c := range p.Conjuncts {
		col := c.name
		if col == "" {
			col = fmt.Sprintf("$%d", c.Col)
		}
		if c.Op == "in" {
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

// ExtractPushdown walks the AND-chain of e and collects every sargable
// conjunct. It returns nil when nothing is sargable (OR trees, expressions
// over multiple columns, non-constant comparands, NULL comparands — a
// comparison against NULL is never true, so there is no block it could
// select). The input expression is not modified and remains the scan's
// row-level filter.
func ExtractPushdown(e Expr) *ScanPredicate {
	var out []ScanConjunct
	var walk func(Expr)
	walk = func(e Expr) {
		if b, ok := e.(*BinOp); ok && b.Op == "AND" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		out = append(out, sargable(e)...)
	}
	walk(e)
	if len(out) == 0 {
		return nil
	}
	return &ScanPredicate{Conjuncts: out}
}

// sargable matches one conjunct against the pushable shapes; BETWEEN
// decomposes into its two bound conjuncts. An unpushable conjunct yields
// nil (it simply contributes nothing to block skipping).
func sargable(e Expr) []ScanConjunct {
	switch x := e.(type) {
	case *BinOp:
		op := x.Op
		cr, crOk := x.Left.(*ColRef)
		cn, cnOk := x.Right.(*Const)
		if !crOk || !cnOk {
			cr, crOk = x.Right.(*ColRef)
			cn, cnOk = x.Left.(*Const)
			if !crOk || !cnOk {
				return nil
			}
			op = flipCmp(op)
		}
		switch op {
		case "=", "<", "<=", ">", ">=":
		case "<>", "!=":
			op = "<>"
		default:
			return nil
		}
		if cn.Val.IsNull() {
			// col <op> NULL is never true; the row filter rejects everything
			// anyway, so there is nothing useful to push.
			return nil
		}
		return []ScanConjunct{{Col: cr.Idx, Op: op, Val: cn.Val, name: cr.Name}}
	case *InList:
		if x.Negate {
			return nil
		}
		cr, ok := x.Operand.(*ColRef)
		if !ok {
			return nil
		}
		vals := make([]types.Datum, 0, len(x.List))
		for _, item := range x.List {
			cn, isConst := item.(*Const)
			if !isConst {
				return nil
			}
			if cn.Val.IsNull() {
				continue // NULL candidates never match; drop them
			}
			vals = append(vals, cn.Val)
		}
		if len(vals) == 0 {
			return nil
		}
		return []ScanConjunct{{Col: cr.Idx, Op: "in", In: vals, name: cr.Name}}
	case *Between:
		if x.Negate {
			return nil
		}
		cr, ok := x.Operand.(*ColRef)
		if !ok {
			return nil
		}
		lo, loOk := x.Lo.(*Const)
		hi, hiOk := x.Hi.(*Const)
		if !loOk || !hiOk || lo.Val.IsNull() || hi.Val.IsNull() {
			return nil
		}
		return []ScanConjunct{
			{Col: cr.Idx, Op: ">=", Val: lo.Val, name: cr.Name},
			{Col: cr.Idx, Op: "<=", Val: hi.Val, name: cr.Name},
		}
	}
	return nil
}

// AttachPushdown walks a plan and attaches the extracted ScanPredicate to
// every filtered sequential scan. Called by the planner once the final plan
// shape is known.
func AttachPushdown(root Node) {
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok && s.Filter != nil {
			s.ScanPred = ExtractPushdown(s.Filter)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
}
