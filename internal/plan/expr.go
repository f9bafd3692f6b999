// Package plan defines bound (name-resolved) expressions, the physical plan
// node tree with Greenplum-style Motion nodes and slices, and the two query
// planners: a latency-optimized OLTP planner and a cost-based OLAP planner
// (the paper's Postgres-planner/Orca duality, §3.4).
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/types"
)

// Expr is a bound scalar expression evaluated against an input row.
type Expr interface {
	Eval(row types.Row) (types.Datum, error)
	// Kind is the static result type (best effort; KindNull if unknown).
	Kind() types.Kind
	String() string
}

// ColRef reads column Idx of the input row.
type ColRef struct {
	Idx  int
	Name string
	Typ  types.Kind
}

// Eval implements Expr.
func (c *ColRef) Eval(row types.Row) (types.Datum, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return types.Null, fmt.Errorf("plan: column offset %d out of range", c.Idx)
	}
	return row[c.Idx], nil
}

// Kind implements Expr.
func (c *ColRef) Kind() types.Kind { return c.Typ }

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal.
type Const struct{ Val types.Datum }

// Eval implements Expr.
func (c *Const) Eval(types.Row) (types.Datum, error) { return c.Val, nil }

// Kind implements Expr.
func (c *Const) Kind() types.Kind { return c.Val.Kind() }

func (c *Const) String() string { return c.Val.String() }

// Param is a $N slot: the binder leaves one wherever a statement names a
// parameter, so the plan around it is a template every execution can share.
// Typ is the slot's static kind — the kind of the value bound when the
// template was planned, or the kind coercePair decided it is cast to — and
// Planned.Lower replaces the slot by a Const cell that Instance.Bind sets to
// a value of that kind before the plan runs; a slot is never evaluated.
type Param struct {
	Idx int // zero-based: $1 is 0
	Typ types.Kind
}

// Eval implements Expr.
func (p *Param) Eval(types.Row) (types.Datum, error) {
	return types.Null, fmt.Errorf("plan: parameter $%d is not bound", p.Idx+1)
}

// Kind implements Expr.
func (p *Param) Kind() types.Kind { return p.Typ }

func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx+1) }

// Cast converts its operand's value to the kind of the column Col an INSERT
// stores it in.
type Cast struct {
	Operand Expr
	Col     types.Column
}

// Eval implements Expr.
func (c *Cast) Eval(row types.Row) (types.Datum, error) {
	v, err := c.Operand.Eval(row)
	if err == nil {
		v, err = v.CastTo(c.Col.Kind)
	}
	if err != nil {
		return types.Null, fmt.Errorf("plan: column %q: %w", c.Col.Name, err)
	}
	return v, nil
}

// Kind implements Expr.
func (c *Cast) Kind() types.Kind { return c.Col.Kind }

func (c *Cast) String() string { return c.Operand.String() }

// BinOp evaluates an infix operator with SQL NULL semantics.
type BinOp struct {
	Op          string
	Left, Right Expr
}

// Kind implements Expr.
func (b *BinOp) Kind() types.Kind {
	switch b.Op {
	case "AND", "OR", "=", "<>", "<", "<=", ">", ">=", "LIKE":
		return types.KindBool
	case "||":
		return types.KindText
	default:
		if b.Left.Kind() == types.KindFloat || b.Right.Kind() == types.KindFloat {
			return types.KindFloat
		}
		return b.Left.Kind()
	}
}

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// Eval implements Expr.
func (b *BinOp) Eval(row types.Row) (types.Datum, error) {
	switch b.Op {
	case "AND":
		l, err := b.Left.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !l.IsNull() && !l.Bool() {
			return types.NewBool(false), nil
		}
		r, err := b.Right.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !r.IsNull() && !r.Bool() {
			return types.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.NewBool(true), nil
	case "OR":
		l, err := b.Left.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !l.IsNull() && l.Bool() {
			return types.NewBool(true), nil
		}
		r, err := b.Right.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !r.IsNull() && r.Bool() {
			return types.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		return types.NewBool(false), nil
	}
	l, err := b.Left.Eval(row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.Right.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	switch b.Op {
	case "=":
		return types.NewBool(types.Compare(l, r) == 0), nil
	case "<>", "!=":
		return types.NewBool(types.Compare(l, r) != 0), nil
	case "<":
		return types.NewBool(types.Compare(l, r) < 0), nil
	case "<=":
		return types.NewBool(types.Compare(l, r) <= 0), nil
	case ">":
		return types.NewBool(types.Compare(l, r) > 0), nil
	case ">=":
		return types.NewBool(types.Compare(l, r) >= 0), nil
	case "LIKE":
		return types.NewBool(matchLike(l.String(), r.String())), nil
	case "||":
		return types.NewText(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, l, r)
	default:
		return types.Null, fmt.Errorf("plan: unknown operator %q", b.Op)
	}
}

func evalArith(op string, l, r types.Datum) (types.Datum, error) {
	useFloat := l.Kind() == types.KindFloat || r.Kind() == types.KindFloat
	if op == "/" && !useFloat {
		// SQL integer division truncates; guard divide-by-zero.
		if r.Int() == 0 {
			return types.Null, fmt.Errorf("plan: division by zero")
		}
		return types.NewInt(l.Int() / r.Int()), nil
	}
	if useFloat {
		lf, rf := l.Float(), r.Float()
		switch op {
		case "+":
			return types.NewFloat(lf + rf), nil
		case "-":
			return types.NewFloat(lf - rf), nil
		case "*":
			return types.NewFloat(lf * rf), nil
		case "/":
			if rf == 0 {
				return types.Null, fmt.Errorf("plan: division by zero")
			}
			return types.NewFloat(lf / rf), nil
		case "%":
			if rf == 0 {
				return types.Null, fmt.Errorf("plan: division by zero")
			}
			return types.NewFloat(math.Mod(lf, rf)), nil
		}
	}
	li, ri := l.Int(), r.Int()
	switch op {
	case "+":
		return types.NewInt(li + ri), nil
	case "-":
		return types.NewInt(li - ri), nil
	case "*":
		return types.NewInt(li * ri), nil
	case "%":
		if ri == 0 {
			return types.Null, fmt.Errorf("plan: division by zero")
		}
		return types.NewInt(li % ri), nil
	}
	return types.Null, fmt.Errorf("plan: unknown arithmetic op %q", op)
}

// matchLike implements SQL LIKE with % and _ wildcards.
func matchLike(s, pattern string) bool {
	// Dynamic-programming match without regexp.
	n, m := len(s), len(pattern)
	prev := make([]bool, n+1)
	cur := make([]bool, n+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		pc := pattern[j-1]
		cur[0] = prev[0] && pc == '%'
		for i := 1; i <= n; i++ {
			switch pc {
			case '%':
				cur[i] = cur[i-1] || prev[i]
			case '_':
				cur[i] = prev[i-1]
			default:
				cur[i] = prev[i-1] && s[i-1] == pc
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// NotExpr negates a boolean.
type NotExpr struct{ Operand Expr }

// Eval implements Expr.
func (n *NotExpr) Eval(row types.Row) (types.Datum, error) {
	v, err := n.Operand.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	return types.NewBool(!v.Bool()), nil
}

// Kind implements Expr.
func (n *NotExpr) Kind() types.Kind { return types.KindBool }

func (n *NotExpr) String() string { return fmt.Sprintf("(NOT %s)", n.Operand) }

// NegExpr numerically negates.
type NegExpr struct{ Operand Expr }

// Eval implements Expr.
func (n *NegExpr) Eval(row types.Row) (types.Datum, error) {
	v, err := n.Operand.Eval(row)
	if err != nil || v.IsNull() {
		return v, err
	}
	if v.Kind() == types.KindFloat {
		return types.NewFloat(-v.Float()), nil
	}
	return types.NewInt(-v.Int()), nil
}

// Kind implements Expr.
func (n *NegExpr) Kind() types.Kind { return n.Operand.Kind() }

func (n *NegExpr) String() string { return fmt.Sprintf("(-%s)", n.Operand) }

// IsNull tests nullness.
type IsNull struct {
	Operand Expr
	Negate  bool
}

// Eval implements Expr.
func (e *IsNull) Eval(row types.Row) (types.Datum, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != e.Negate), nil
}

// Kind implements Expr.
func (e *IsNull) Kind() types.Kind { return types.KindBool }

func (e *IsNull) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Operand)
	}
	return fmt.Sprintf("(%s IS NULL)", e.Operand)
}

// InList tests membership in a constant-or-expression list.
type InList struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

// Eval implements Expr.
func (e *InList) Eval(row types.Row) (types.Datum, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	anyNull := false
	for _, item := range e.List {
		iv, err := item.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if iv.IsNull() {
			anyNull = true
			continue
		}
		if types.Compare(v, iv) == 0 {
			return types.NewBool(!e.Negate), nil
		}
	}
	if anyNull {
		return types.Null, nil
	}
	return types.NewBool(e.Negate), nil
}

// Kind implements Expr.
func (e *InList) Kind() types.Kind { return types.KindBool }

func (e *InList) String() string {
	items := make([]string, len(e.List))
	for i, it := range e.List {
		items[i] = it.String()
	}
	neg := ""
	if e.Negate {
		neg = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", e.Operand, neg, strings.Join(items, ", "))
}

// Between tests lo <= v <= hi.
type Between struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

// Eval implements Expr.
func (e *Between) Eval(row types.Row) (types.Datum, error) {
	v, err := e.Operand.Eval(row)
	if err != nil {
		return types.Null, err
	}
	lo, err := e.Lo.Eval(row)
	if err != nil {
		return types.Null, err
	}
	hi, err := e.Hi.Eval(row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return types.Null, nil
	}
	in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
	return types.NewBool(in != e.Negate), nil
}

// Kind implements Expr.
func (e *Between) Kind() types.Kind { return types.KindBool }

func (e *Between) String() string {
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", e.Operand, e.Lo, e.Hi)
}

// Case is CASE WHEN.
type Case struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one branch.
type CaseWhen struct{ Cond, Then Expr }

// Eval implements Expr.
func (c *Case) Eval(row types.Row) (types.Datum, error) {
	for _, w := range c.Whens {
		v, err := w.Cond.Eval(row)
		if err != nil {
			return types.Null, err
		}
		if !v.IsNull() && v.Bool() {
			return c.as(w.Then.Eval(row))
		}
	}
	if c.Else != nil {
		return c.as(c.Else.Eval(row))
	}
	return types.Null, nil
}

// Kind implements Expr: the branches' common kind, as SQL types a CASE. An
// untyped NULL branch fits any kind, int and float branches meet in float,
// and branches with no common kind give KindNull.
func (c *Case) Kind() types.Kind {
	k := types.KindNull
	for i := 0; i <= len(c.Whens); i++ {
		b := c.Else
		if i < len(c.Whens) {
			b = c.Whens[i].Then
		}
		if b == nil {
			continue
		}
		switch bk := b.Kind(); {
		case bk == k || bk == types.KindNull:
		case k == types.KindNull:
			k = bk
		case (k == types.KindInt || k == types.KindFloat) && (bk == types.KindInt || bk == types.KindFloat):
			k = types.KindFloat
		default:
			return types.KindNull
		}
	}
	return k
}

// as returns a branch's value in the CASE's kind: an int comes back as a
// float when another branch is float.
func (c *Case) as(v types.Datum, err error) (types.Datum, error) {
	if err == nil && v.Kind() == types.KindInt && c.Kind() == types.KindFloat {
		return v.CastTo(types.KindFloat)
	}
	return v, err
}

func (c *Case) String() string { return "CASE..END" }

// EvalBool evaluates e as a filter predicate: NULL counts as false.
func EvalBool(e Expr, row types.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}

// IsConst reports whether e contains no column references (a $N slot is as
// row-independent as a literal).
func IsConst(e Expr) bool {
	switch x := e.(type) {
	case *Const, *Param:
		return true
	case *ColRef:
		return false
	case *BinOp:
		return IsConst(x.Left) && IsConst(x.Right)
	case *NotExpr:
		return IsConst(x.Operand)
	case *NegExpr:
		return IsConst(x.Operand)
	case *IsNull:
		return IsConst(x.Operand)
	case *InList:
		if !IsConst(x.Operand) {
			return false
		}
		for _, it := range x.List {
			if !IsConst(it) {
				return false
			}
		}
		return true
	case *Between:
		return IsConst(x.Operand) && IsConst(x.Lo) && IsConst(x.Hi)
	case *Case:
		for _, w := range x.Whens {
			if !IsConst(w.Cond) || !IsConst(w.Then) {
				return false
			}
		}
		return x.Else == nil || IsConst(x.Else)
	default:
		return false
	}
}

// rewrite returns e with leaf applied to every leaf (ColRef, Const, Param).
// Interior nodes are rebuilt only on a path to a leaf that changed; every
// other subtree is shared with e, and an expression no leaf of which changed
// is returned as is — callers compare with e to learn whether anything did.
func rewrite(e Expr, leaf func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *BinOp:
		if l, r := rewrite(x.Left, leaf), rewrite(x.Right, leaf); l != x.Left || r != x.Right {
			return &BinOp{Op: x.Op, Left: l, Right: r}
		}
	case *NotExpr:
		if o := rewrite(x.Operand, leaf); o != x.Operand {
			return &NotExpr{Operand: o}
		}
	case *NegExpr:
		if o := rewrite(x.Operand, leaf); o != x.Operand {
			return &NegExpr{Operand: o}
		}
	case *Cast:
		if o := rewrite(x.Operand, leaf); o != x.Operand {
			return &Cast{Operand: o, Col: x.Col}
		}
	case *IsNull:
		if o := rewrite(x.Operand, leaf); o != x.Operand {
			return &IsNull{Operand: o, Negate: x.Negate}
		}
	case *InList:
		o, list := rewrite(x.Operand, leaf), rewriteAll(x.List, leaf)
		if o != x.Operand || !sameExprs(list, x.List) {
			return &InList{Operand: o, List: list, Negate: x.Negate}
		}
	case *Between:
		o, lo, hi := rewrite(x.Operand, leaf), rewrite(x.Lo, leaf), rewrite(x.Hi, leaf)
		if o != x.Operand || lo != x.Lo || hi != x.Hi {
			return &Between{Operand: o, Lo: lo, Hi: hi, Negate: x.Negate}
		}
	case *Case:
		c := &Case{Whens: make([]CaseWhen, len(x.Whens)), Else: rewrite(x.Else, leaf)}
		changed := c.Else != x.Else
		for i, w := range x.Whens {
			c.Whens[i] = CaseWhen{Cond: rewrite(w.Cond, leaf), Then: rewrite(w.Then, leaf)}
			changed = changed || c.Whens[i] != w
		}
		if changed {
			return c
		}
	default:
		return leaf(e)
	}
	return e
}

// rewriteAll rewrites a list, copying it only when some element changed.
func rewriteAll(es []Expr, leaf func(Expr) Expr) []Expr {
	out := es
	for i, e := range es {
		if re := rewrite(e, leaf); re != e {
			if sameExprs(out, es) {
				out = append([]Expr(nil), es...)
			}
			out[i] = re
		}
	}
	return out
}

// sameExprs reports whether a and b are the same slice (not merely equal).
func sameExprs(a, b []Expr) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
