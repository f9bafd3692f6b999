package plan

import (
	"fmt"
	"strings"

	"repro/internal/sql"
	"repro/internal/types"
)

// scopeCol is one resolvable column: qualifier (table alias), name, offset.
type scopeCol struct {
	qual string
	name string
	idx  int
	kind types.Kind
}

// scope resolves column references against the current input row layout.
type scope struct {
	cols []scopeCol
}

func (s *scope) add(qual string, schema *types.Schema, base int) {
	for i, c := range schema.Columns {
		s.cols = append(s.cols, scopeCol{qual: strings.ToLower(qual), name: strings.ToLower(c.Name), idx: base + i, kind: c.Kind})
	}
}

func (s *scope) resolve(qual, name string) (*scopeCol, error) {
	qual = strings.ToLower(qual)
	name = strings.ToLower(name)
	var found *scopeCol
	for i := range s.cols {
		c := &s.cols[i]
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("plan: column reference %q is ambiguous", name)
		}
		found = c
	}
	if found == nil {
		if qual != "" {
			return nil, fmt.Errorf("plan: column %s.%s does not exist", qual, name)
		}
		return nil, fmt.Errorf("plan: column %q does not exist", name)
	}
	return found, nil
}

// hasAgg reports whether the AST expression contains an aggregate call.
func hasAgg(e sql.Expr) bool {
	switch x := e.(type) {
	case *sql.FuncCall:
		switch x.Name {
		case "count", "sum", "avg", "min", "max":
			return true
		}
		for _, a := range x.Args {
			if hasAgg(a) {
				return true
			}
		}
		return false
	case *sql.BinaryOp:
		return hasAgg(x.Left) || hasAgg(x.Right)
	case *sql.UnaryOp:
		return hasAgg(x.Operand)
	case *sql.IsNullExpr:
		return hasAgg(x.Operand)
	case *sql.InExpr:
		if hasAgg(x.Operand) {
			return true
		}
		for _, it := range x.List {
			if hasAgg(it) {
				return true
			}
		}
		return false
	case *sql.BetweenExpr:
		return hasAgg(x.Operand) || hasAgg(x.Lo) || hasAgg(x.Hi)
	case *sql.CaseExpr:
		for _, w := range x.Whens {
			if hasAgg(w.Cond) || hasAgg(w.Then) {
				return true
			}
		}
		return x.Else != nil && hasAgg(x.Else)
	default:
		return false
	}
}

// binder converts AST expressions to bound plan expressions.
type binder struct {
	scope  *scope
	params []types.Datum
	// fold makes $N bind to its value as a Const instead of a Param slot:
	// the plan is then valid for this one binding only. slots counts the
	// slots emitted (shared with the Planner that created the binder).
	fold  bool
	slots *int
	// aggMode: when non-nil, aggregate calls are collected here and replaced
	// by references into the agg output layout.
	aggs        *[]AggSpec
	aggBase     int // offset of the first agg output column
	groupExprs  []sql.Expr
	groupOffset int
}

func (b *binder) bind(e sql.Expr) (Expr, error) {
	// Inside an aggregating query, a subexpression matching a GROUP BY item
	// resolves to that group column.
	if b.aggs != nil {
		for i, g := range b.groupExprs {
			if exprEqual(e, g) {
				return &ColRef{Idx: b.groupOffset + i, Name: g.String()}, nil
			}
		}
	}
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Value}, nil
	case *sql.Param:
		if x.Index-1 >= len(b.params) {
			return nil, fmt.Errorf("plan: parameter $%d not supplied", x.Index)
		}
		if b.fold {
			return &Const{Val: b.params[x.Index-1]}, nil
		}
		*b.slots++
		return &Param{Idx: x.Index - 1, Typ: b.params[x.Index-1].Kind()}, nil
	case *sql.ColumnRef:
		c, err := b.scope.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return &ColRef{Idx: c.idx, Name: x.Column, Typ: c.kind}, nil
	case *sql.BinaryOp:
		l, err := b.bind(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := b.bind(x.Right)
		if err != nil {
			return nil, err
		}
		l, r = coercePair(l, r)
		return &BinOp{Op: x.Op, Left: l, Right: r}, nil
	case *sql.UnaryOp:
		o, err := b.bind(x.Operand)
		if err != nil {
			return nil, err
		}
		if x.Op == "NOT" {
			return &NotExpr{Operand: o}, nil
		}
		return &NegExpr{Operand: o}, nil
	case *sql.IsNullExpr:
		o, err := b.bind(x.Operand)
		if err != nil {
			return nil, err
		}
		return &IsNull{Operand: o, Negate: x.Negate}, nil
	case *sql.InExpr:
		o, err := b.bind(x.Operand)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(x.List))
		for i, it := range x.List {
			bi, err := b.bind(it)
			if err != nil {
				return nil, err
			}
			list[i] = bi
		}
		return &InList{Operand: o, List: list, Negate: x.Negate}, nil
	case *sql.BetweenExpr:
		o, err := b.bind(x.Operand)
		if err != nil {
			return nil, err
		}
		lo, err := b.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bind(x.Hi)
		if err != nil {
			return nil, err
		}
		o2, lo2 := coercePair(o, lo)
		_, hi2 := coercePair(o, hi)
		res := Expr(&Between{Operand: o2, Lo: lo2, Hi: hi2})
		if x.Negate {
			res = &NotExpr{Operand: res}
		}
		return res, nil
	case *sql.CaseExpr:
		c := &Case{}
		for _, w := range x.Whens {
			cond, err := b.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := b.bind(w.Then)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			el, err := b.bind(x.Else)
			if err != nil {
				return nil, err
			}
			c.Else = el
		}
		return c, nil
	case *sql.FuncCall:
		return b.bindFunc(x)
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func (b *binder) bindFunc(x *sql.FuncCall) (Expr, error) {
	var fn AggFunc
	switch x.Name {
	case "count":
		fn = AggCount
	case "sum":
		fn = AggSum
	case "avg":
		fn = AggAvg
	case "min":
		fn = AggMin
	case "max":
		fn = AggMax
	default:
		return nil, fmt.Errorf("plan: unknown function %q", x.Name)
	}
	if b.aggs == nil {
		return nil, fmt.Errorf("plan: aggregate %s() not allowed here", x.Name)
	}
	spec := AggSpec{Func: fn, Distinct: x.Distinct, Name: x.String()}
	if !x.Star {
		if len(x.Args) != 1 {
			return nil, fmt.Errorf("plan: %s() takes exactly one argument", x.Name)
		}
		// Aggregate arguments bind against the pre-agg scope directly.
		inner := &binder{scope: b.scope, params: b.params, fold: b.fold, slots: b.slots}
		arg, err := inner.bind(x.Args[0])
		if err != nil {
			return nil, err
		}
		spec.Arg = arg
	} else if fn != AggCount {
		return nil, fmt.Errorf("plan: %s(*) is not valid", x.Name)
	}
	idx := b.aggBase + len(*b.aggs)
	*b.aggs = append(*b.aggs, spec)
	return &ColRef{Idx: idx, Name: spec.Name, Typ: aggKind(spec)}, nil
}

// exprEqual is a syntactic equality check used to match GROUP BY items.
func exprEqual(a, b sql.Expr) bool {
	return a != nil && b != nil && a.String() == b.String()
}

// coercePair applies the implicit cast SQL performs when a constant of one
// kind is compared with an expression of another: a text constant compared
// to a date column becomes a date constant ('2021-06-01' style literals),
// and an int constant compared to a float expression becomes float. A $N
// slot takes the cast as its kind and Bind applies it to the bound value.
func coercePair(l, r Expr) (Expr, Expr) {
	lk, rk := l.Kind(), r.Kind()
	if lk == rk {
		return l, r
	}
	if e, ok := coerceConst(r, lk); ok {
		return l, e
	}
	if e, ok := coerceConst(l, rk); ok {
		return e, r
	}
	return l, r
}

// coerceConst casts the literal or slot e to want when that is one of the two
// implicit casts; ok is false when e is neither or the literal does not cast.
func coerceConst(e Expr, want types.Kind) (Expr, bool) {
	from := e.Kind()
	if !(want == types.KindDate && from == types.KindText || want == types.KindFloat && from == types.KindInt) {
		return e, false
	}
	switch c := e.(type) {
	case *Const:
		if v, err := c.Val.CastTo(want); err == nil {
			return &Const{Val: v}, true
		}
	case *Param:
		return &Param{Idx: c.Idx, Typ: want}, true
	}
	return e, false
}
