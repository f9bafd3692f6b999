package plan

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// A plan whose statement names $N parameters is a template: the binder left
// a Param slot per placeholder, every decision that needs only the plan's
// shape (join strategy, index choice, projections, slices) is already made,
// and the steps that need the values wait for Bind. Planned.Bind turns the
// template into an ordinary plan for one execution without touching it, so
// any number of sessions run one cached template concurrently.

// Plan plans a SELECT, INSERT, UPDATE or DELETE (gdd selects the write lock
// level, see PlanUpdate).
func (p *Planner) Plan(st sql.Statement, gdd bool) (*Planned, error) {
	switch x := st.(type) {
	case *sql.SelectStmt:
		return p.PlanSelect(x)
	case *sql.InsertStmt:
		return p.PlanInsert(x)
	case *sql.UpdateStmt:
		return p.PlanUpdate(x, gdd)
	case *sql.DeleteStmt:
		return p.PlanDelete(x, gdd)
	default:
		return nil, fmt.Errorf("plan: cannot plan %T (SELECT, INSERT, UPDATE and DELETE only)", st)
	}
}

// finish stamps what Bind needs onto a freshly planned statement and, when
// the plan holds no slot, routes it now.
func (p *Planner) finish(pl *Planned) *Planned {
	pl.slots, pl.nseg = p.slots > 0, p.NumSegments
	if !pl.slots {
		pl.route()
	}
	return pl
}

// route derives DirectSegment from a slot-free plan: an INSERT of one row
// into a hash-distributed table goes to the segment that row hashes to, and
// a plan whose one table access has a filter pinning the distribution key
// reads (or writes) only that key's segment — an UPDATE or DELETE, or a
// SELECT whose only motion is a gather above a chain of single-input
// operators over that access. Everything above that gather runs on the
// coordinator and only the pinned segment can feed it a base row (or hold a
// row to write), so dispatch may run the statement there alone.
func (pl *Planned) route() {
	pl.DirectSegment = -1
	if ip, ok := pl.Root.(*InsertPlan); ok {
		if v, ok := ip.Child.(*Values); ok && len(v.Rows) == 1 && ip.Table.Distribution == catalog.DistHash {
			pl.DirectSegment = RouteRow(ip.Table, v.Rows[0], PlacementWidth(ip.Table, pl.nseg))
		}
		return
	}
	n := pl.Root
	if len(pl.Motions) == 1 && pl.Motions[0].Type == MotionGather {
		n = pl.Motions[0].Child
	} else if len(pl.Motions) > 0 {
		return
	}
	for {
		switch x := n.(type) {
		case *IndexScan:
			pl.DirectSegment = directSegmentFor(x.Table, x.Filter, pl.nseg)
		case *Scan:
			if x.OnSeg < 0 {
				pl.DirectSegment = directSegmentFor(x.Table, x.Filter, pl.nseg)
			}
		case *Project:
			n = x.Child
			continue
		case *Filter:
			n = x.Child
			continue
		case *Agg:
			n = x.Child
			continue
		default: // an UPDATE or DELETE routes by its access path
			if ch := n.Children(); len(ch) == 1 {
				n = ch[0]
				continue
			}
		}
		return
	}
}

// Bind instantiates the plan for one execution: every $N slot becomes the
// Const of its parameter, copying only the expression and plan nodes on a
// path to a slot (the rest stay shared with the template), and the steps
// that depend on the values then run over ordinary constants — partition
// pruning, zone-map pushdown extraction, LIMIT/OFFSET evaluation and direct
// dispatch. A plan without slots is returned as is.
func (pl *Planned) Bind(params []types.Datum) (*Planned, error) {
	if !pl.slots {
		return pl, nil
	}
	b := &instantiation{tmpl: pl, params: params}
	b.leaf = b.bindLeaf
	out := *pl
	// A write binds its SET list here and its access path or source like a
	// SELECT's.
	switch x := pl.Root.(type) {
	case *InsertPlan:
		c := *x
		c.Child = b.node(x.Child)
		out.Root = &c
	case *UpdatePlan:
		c := *x
		c.SetExprs, c.Child = b.exprs(x.SetExprs), b.node(x.Child)
		out.Root = &c
	case *DeletePlan:
		c := *x
		c.Child = b.node(x.Child)
		out.Root = &c
	default:
		out.Root = b.node(pl.Root)
	}
	if b.err != nil {
		return nil, b.err
	}
	// Costs is keyed by the template's nodes: it does not describe the copy.
	out.Motions, out.Costs, out.slots = b.motions, nil, false
	out.route()
	return &out, nil
}

// instantiation is one Bind call's state.
type instantiation struct {
	tmpl    *Planned
	params  []types.Datum
	leaf    func(Expr) Expr // bindLeaf, bound once
	bound   int             // slots bound so far
	motions []*Motion       // the bound plan's motions, post-order
	err     error
}

// expr returns e with its slots bound (rewrite's sharing rules apply: an
// expression without a slot comes back unchanged).
func (b *instantiation) expr(e Expr) Expr { return rewrite(e, b.leaf) }

func (b *instantiation) exprs(es []Expr) []Expr { return rewriteAll(es, b.leaf) }

// bindLeaf turns a slot into the Const of its parameter.
func (b *instantiation) bindLeaf(e Expr) Expr {
	p, ok := e.(*Param)
	if !ok {
		return e
	}
	if p.Idx >= len(b.params) {
		b.err = fmt.Errorf("plan: parameter $%d not supplied", p.Idx+1)
		return e
	}
	v := b.params[p.Idx]
	if v.Kind() != p.Typ {
		// coercePair's cast; a value that does not cast compares as it is.
		if cv, err := v.CastTo(p.Typ); err == nil {
			v = cv
		}
	}
	b.bound++
	return &Const{Val: v}
}

// limit returns x over child with its LIMIT and OFFSET slots evaluated.
func (b *instantiation) limit(x *Limit, child Node) *Limit {
	l := &Limit{Child: child, Count: x.Count, Offset: x.Offset}
	if e := b.expr(x.CountExpr); e != nil && b.err == nil {
		l.Count, b.err = limitValue(e, "LIMIT")
	}
	if e := b.expr(x.OffsetExpr); e != nil && b.err == nil {
		l.Offset, b.err = limitValue(e, "OFFSET")
	}
	return l
}

// node returns n with the slots of its subtree bound: a copy of n when the
// subtree held one, n itself (shared with the template) when not.
func (b *instantiation) node(n Node) Node {
	mark := b.bound
	switch x := n.(type) {
	case *Values:
		if x.Slots != nil {
			c := *x
			c.Rows, c.Slots = slices.Clone(x.Rows), nil
			for i, es := range x.Slots {
				if es == nil {
					continue
				}
				row := make(types.Row, len(es))
				for j, e := range es {
					if v, err := b.expr(e).Eval(nil); err != nil {
						b.err = err
					} else {
						row[j] = v
					}
				}
				c.Rows[i] = row
			}
			return &c
		}
	case *Scan:
		if f := b.expr(x.Filter); b.bound > mark {
			c := *x
			c.Filter = f
			prunePartitions(&c)
			c.ScanPred = ExtractPushdown(f)
			return &c
		}
	case *IndexScan:
		if keys, f := b.exprs(x.KeyVals), b.expr(x.Filter); b.bound > mark {
			c := *x
			c.KeyVals, c.Filter = keys, f
			return &c
		}
	case *Project:
		if ch, es := b.node(x.Child), b.exprs(x.Exprs); b.bound > mark {
			c := *x
			c.Child, c.Exprs = ch, es
			return &c
		}
	case *Filter:
		if ch, cond := b.node(x.Child), b.expr(x.Cond); b.bound > mark {
			return &Filter{Child: ch, Cond: cond}
		}
	case *HashJoin:
		l, r := b.node(x.Left), b.node(x.Right)
		if lk, rk, extra := b.exprs(x.LeftKeys), b.exprs(x.RightKeys), b.expr(x.Extra); b.bound > mark {
			c := *x
			c.Left, c.Right, c.LeftKeys, c.RightKeys, c.Extra = l, r, lk, rk, extra
			return &c
		}
	case *NestLoop:
		if l, r, cond := b.node(x.Left), b.node(x.Right), b.expr(x.Cond); b.bound > mark {
			c := *x
			c.Left, c.Right, c.Cond = l, r, cond
			return &c
		}
	case *Agg:
		ch, gb, specs := b.node(x.Child), b.exprs(x.GroupBy), x.Specs
		for i, sp := range x.Specs {
			if arg := b.expr(sp.Arg); arg != sp.Arg {
				if &specs[0] == &x.Specs[0] {
					specs = append([]AggSpec(nil), x.Specs...)
				}
				specs[i].Arg = arg
			}
		}
		if b.bound > mark {
			c := *x
			c.Child, c.GroupBy, c.Specs = ch, gb, specs
			return &c
		}
	case *Sort:
		ch, keys, top := b.node(x.Child), x.Keys, x.Top
		for i, k := range x.Keys {
			if e := b.expr(k.Expr); e != k.Expr {
				if &keys[0] == &x.Keys[0] {
					keys = append([]SortKey(nil), x.Keys...)
				}
				keys[i].Expr = e
			}
		}
		if top != nil && (top.CountExpr != nil || top.OffsetExpr != nil) {
			top = b.limit(top, nil) // a top-N's bound, from the LIMIT above its Gather
		}
		if b.bound > mark {
			c := *x
			c.Child, c.Keys, c.Top = ch, keys, top
			return &c
		}
	case *Limit:
		if ch := b.node(x.Child); b.bound > mark || x.CountExpr != nil || x.OffsetExpr != nil {
			return b.limit(x, ch)
		}
	case *Motion:
		m := x
		if ch, he := b.node(x.Child), b.exprs(x.HashExprs); b.bound > mark {
			c := *x
			c.Child, c.HashExprs = ch, he
			m = &c
		}
		b.motions = append(b.motions, m)
		return m
	}
	return n
}
