package plan

import (
	"fmt"

	"repro/internal/types"
)

// Predicate is a compiled boolean filter, with SQL three-valued semantics
// already collapsed to keep/drop (NULL = drop), matching EvalBool. Select
// narrows a whole batch; a Predicate holds scratch state, so each operator
// compiles its own.
type Predicate struct {
	row func(types.Row) (bool, error)
	// Column-layout form: a conjunction narrows by l then r; a `col <op>
	// const` comparison (mask != 0) runs a typed loop over the column's
	// vector; anything else gathers each row into scratch and calls row.
	l, r    *Predicate
	col     int
	val     types.Datum
	mask    uint8 // the comparison's types.CmpOp: the orderings that keep the row
	scratch types.Row
	sel     []int // reused selection vector of a dense input batch
}

// CompilePredicate specializes the common filter shapes of analytical scans
// — comparisons between a column and a constant, BETWEEN, and conjunctions of
// those — so the vectorized executor avoids re-walking the expression tree
// for every row. Anything else falls back to the generic evaluator; a nil
// expression compiles to keep-everything.
func CompilePredicate(e Expr) *Predicate {
	if e == nil {
		return &Predicate{row: func(types.Row) (bool, error) { return true, nil }}
	}
	if p := compileCmp(e); p != nil {
		return p
	}
	var l, r *Predicate
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		l, r = CompilePredicate(b.Left), CompilePredicate(b.Right)
	} else if b, ok := e.(*Between); ok && !b.Negate {
		l = compileCmp(&BinOp{Op: ">=", Left: b.Operand, Right: b.Lo})
		r = compileCmp(&BinOp{Op: "<=", Left: b.Operand, Right: b.Hi})
	}
	if l == nil || r == nil {
		return &Predicate{row: func(row types.Row) (bool, error) { return EvalBool(e, row) }}
	}
	return &Predicate{l: l, r: r, row: func(row types.Row) (bool, error) {
		ok, err := l.row(row)
		if err != nil || !ok {
			return false, err
		}
		return r.row(row)
	}}
}

// compileCmp handles `col <op> const` (either operand order); it returns nil
// when the shape doesn't match.
func compileCmp(e Expr) *Predicate {
	cr, op, operand, ok := colCmp(e)
	cn, isConst := operand.(*Const)
	if !ok || !isConst {
		return nil
	}
	idx, val := cr.Idx, cn.Val
	if val.IsNull() {
		// NULL comparand: never true under three-valued logic.
		return &Predicate{row: func(types.Row) (bool, error) { return false, nil }}
	}
	return &Predicate{col: idx, val: val, mask: uint8(op), row: func(row types.Row) (bool, error) {
		if idx < 0 || idx >= len(row) {
			return EvalBool(e, row) // let the generic path report the error
		}
		d := row[idx]
		return !d.IsNull() && op.Holds(types.Compare(d, val)), nil
	}}
}

// Select narrows b's selection to the rows passing the predicate. A batch
// that already carries a selection is narrowed in place (the kept prefix of
// the existing vector is rewritten, which is safe because selections ascend);
// a dense batch stays dense when every row passes and otherwise gets the
// predicate's own vector, reused by its next Select — like every container of
// a batch it is valid until the operator's next NextBatch.
func (p *Predicate) Select(b *types.RowBatch) (err error) {
	b.Sel, err = p.narrow(b, b.Sel)
	return err
}

func (p *Predicate) narrow(b *types.RowBatch, sel []int) ([]int, error) {
	c := b.Cols
	if c != nil && p.l != nil {
		sel, err := p.l.narrow(b, sel)
		if err != nil || (sel != nil && len(sel) == 0) {
			return sel, err
		}
		return p.r.narrow(b, sel)
	}
	n := b.Total()
	if sel == nil && cap(p.sel) < n {
		p.sel = make([]int, n)
	}
	if c != nil && p.mask != 0 && p.col >= 0 && p.col < len(c.Vecs) {
		switch v, k := c.Vec(p.col), p.val.Kind(); {
		case v.Ints != nil && (k == types.KindInt || k == types.KindBool || k == types.KindDate):
			return selectOrd(&v, v.Ints, p.val.Int(), p.mask, sel, p.sel), nil
		case v.Floats != nil && k != types.KindText:
			return selectOrd(&v, v.Floats, p.val.Float(), p.mask, sel, p.sel), nil
		case v.Strs != nil && k == types.KindText:
			return selectOrd(&v, v.Strs, p.val.Text(), p.mask, sel, p.sel), nil
		}
	}
	// One row at a time: stored rows directly, vectors through a scratch row.
	if sel != nil {
		out := sel[:0]
		for _, i := range sel {
			ok, err := p.row(p.rowAt(b, i))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, i)
			}
		}
		return out, nil
	}
	var out []int
	for i := 0; i < n; i++ {
		ok, err := p.row(p.rowAt(b, i))
		if err != nil {
			return nil, err
		}
		out = keepDense(out, p.sel, i, ok)
	}
	return out, nil
}

// rowAt returns position i of b as a row: the stored row, or the vectors'
// values gathered into the predicate's scratch row.
func (p *Predicate) rowAt(b *types.RowBatch, i int) types.Row {
	if b.Cols == nil {
		return b.Rows[i]
	}
	p.scratch = b.Cols.RowInto(p.scratch, i)
	return p.scratch
}

// keepDense records the verdict on position i of a dense batch: the selection
// stays nil while every position passes, and materializes (0..i-1) in buf,
// which has room for every position, at the first failure.
func keepDense(out, buf []int, i int, ok bool) []int {
	switch {
	case ok && out != nil:
		out = append(out, i)
	case !ok && out == nil:
		out = buf[:i]
		for j := range out {
			out[j] = j
		}
	}
	return out
}

// selectOrd is the typed comparison loop: it keeps the non-NULL values of
// vals whose ordering against k is in mask.
func selectOrd[T int64 | float64 | string](v *types.Vec, vals []T, k T, mask uint8, sel, buf []int) []int {
	pass := func(i int) bool {
		x, bit := vals[i], uint8(2)
		if x < k {
			bit = 1
		} else if x > k {
			bit = 4
		}
		return mask&bit != 0 && !v.Null(i)
	}
	if sel != nil {
		out := sel[:0]
		for _, i := range sel {
			if pass(i) {
				out = append(out, i)
			}
		}
		return out
	}
	var out []int
	for i, n := 0, len(vals); i < n; i++ {
		out = keepDense(out, buf, i, pass(i))
	}
	return out
}

// VecExpr evaluates one expression over a whole batch into a vector indexed
// by batch position, so the aggregate, the join and the projection read
// typed values instead of walking the expression tree per row. A bare column
// of a column batch is shared and one of a row batch gathered into a typed
// vector, `+ - * /` over numeric vectors and constants runs a typed loop, and
// every other expression is evaluated row by row into a boxed vector. A
// VecExpr owns its result buffer: the vector Eval returns is valid until the
// next Eval.
type VecExpr struct {
	e       Expr
	col     int  // >= 0: bare column reference
	op      byte // '+', '-', '*' or '/' over l and r; 0 otherwise
	l, r    *VecExpr
	buf     types.Vec
	scratch types.Row
}

// CompileVec prepares e for batch evaluation.
func CompileVec(e Expr) *VecExpr {
	x := &VecExpr{e: e, col: -1}
	switch n := e.(type) {
	case *ColRef:
		x.col = n.Idx
	case *BinOp:
		if n.Op == "+" || n.Op == "-" || n.Op == "*" || n.Op == "/" {
			x.op, x.l, x.r = n.Op[0], CompileVec(n.Left), CompileVec(n.Right)
		}
	}
	return x
}

// Eval computes the expression at b's live positions; the other positions of
// the result are undefined.
func (x *VecExpr) Eval(b *types.RowBatch) (types.Vec, error) {
	n := b.Total()
	if c := b.Cols; c != nil {
		switch cn, isConst := x.e.(*Const); {
		case x.col >= 0 && x.col < len(c.Vecs):
			return c.Vec(x.col), nil
		case isConst && (cn.Val.Kind() == types.KindInt || cn.Val.Kind() == types.KindFloat):
			if x.buf.Len() < n { // broadcast once, reuse for every batch
				x.buf.Reset(cn.Val.Kind(), n)
				for i := 0; i < n; i++ {
					if x.buf.Ints != nil {
						x.buf.Ints[i] = cn.Val.Int()
					} else {
						x.buf.Floats[i] = cn.Val.Float()
					}
				}
			}
			return x.buf.Slice(0, n), nil
		case x.op != 0:
			l, err := x.l.Eval(b)
			if err != nil {
				return l, err
			}
			r, err := x.r.Eval(b)
			if err != nil {
				return r, err
			}
			if done, err := arith(&x.buf, x.op, &l, &r, b); done {
				return x.buf, err
			}
		}
	} else if x.col >= 0 && x.gather(b) {
		return x.buf, nil
	}
	x.buf.Reset(types.KindNull, n)
	for i, live := 0, b.Len(); i < live; i++ {
		at := b.Index(i)
		row := types.Row(nil)
		if b.Cols == nil {
			row = b.Rows[at]
		} else {
			x.scratch = b.Cols.RowInto(x.scratch, at)
			row = x.scratch
		}
		v, err := x.e.Eval(row)
		if err != nil {
			return x.buf, err
		}
		x.buf.Boxed[at] = v
	}
	return x.buf, nil
}

// gather fills buf with the bare column at every position of a row batch —
// typed, boxed only when the values mix kinds (Append's rule) — or reports
// false when a row lacks the column, leaving the error to the boxed path.
func (x *VecExpr) gather(b *types.RowBatch) bool {
	if x.buf.Truncate(); x.buf.Boxed != nil {
		x.buf = types.Vec{} // a batch of one kind gathers typed again
	}
	for _, row := range b.Rows {
		if x.col >= len(row) {
			return false
		}
		x.buf.Append(row[x.col])
	}
	return true
}

// arith computes l op r at b's live positions into out with evalArith's
// typing — int op int is int, anything with a float is float — and NULL
// where either side is NULL. done is false when an operand is not a numeric
// vector.
func arith(out *types.Vec, op byte, l, r *types.Vec, b *types.RowBatch) (done bool, err error) {
	switch n := b.Total(); {
	case l.Ints != nil && r.Ints != nil:
		out.Reset(types.KindInt, n)
		err = arithLoop(out, out.Ints, l, r, l.Ints, r.Ints, op, b)
	case l.Ints != nil && r.Floats != nil:
		out.Reset(types.KindFloat, n)
		err = arithLoop(out, out.Floats, l, r, l.Ints, r.Floats, op, b)
	case l.Floats != nil && r.Ints != nil:
		out.Reset(types.KindFloat, n)
		err = arithLoop(out, out.Floats, l, r, l.Floats, r.Ints, op, b)
	case l.Floats != nil && r.Floats != nil:
		out.Reset(types.KindFloat, n)
		err = arithLoop(out, out.Floats, l, r, l.Floats, r.Floats, op, b)
	default:
		return false, nil
	}
	return true, err
}

func arithLoop[L, R, O int64 | float64](out *types.Vec, res []O, l, r *types.Vec, lv []L, rv []R, op byte, b *types.RowBatch) error {
	nulls := l.HasNulls() || r.HasNulls()
	for i, live := 0, b.Len(); i < live; i++ {
		at := b.Index(i)
		if nulls && (l.Null(at) || r.Null(at)) {
			out.SetNull(at)
			continue
		}
		x, y := O(lv[at]), O(rv[at])
		switch op {
		case '+':
			res[at] = x + y
		case '-':
			res[at] = x - y
		case '*':
			res[at] = x * y
		default:
			if y == 0 {
				return fmt.Errorf("plan: division by zero")
			}
			res[at] = x / y
		}
	}
	return nil
}
