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
// and the steps that need the values wait for the execution. Planned.Lower
// copies a template once into an Instance, one session's executable plan,
// and Instance.Bind writes each execution's values into it in place. The
// template itself is only ever read, so any number of sessions lower and run
// one cached template concurrently.

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

// finish stamps what Lower needs onto a freshly planned statement and, when
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
		case *UpdatePlan: // a write routes by its access path
			n = x.Child
			continue
		case *DeletePlan:
			n = x.Child
			continue
		default:
			if ch := n.Children(); len(ch) == 1 {
				n = ch[0]
				continue
			}
		}
		return
	}
}

// An Instance is a template lowered for one session: a copy of the nodes on
// a path to a slot, in which every slot is a Const cell the instance owns,
// with the rest of the tree shared with the template. Bind writes one
// execution's values into the cells and re-runs, on the copy, the steps
// that depend on them: evaluating an INSERT's VALUES rows, a scan's derive
// step (its pushed predicate and partitions), LIMIT/OFFSET, and direct
// dispatch. The embedded Planned is the executable plan. An instance
// is not safe for concurrent use; a failed Bind leaves it ready for the
// next one.
type Instance struct {
	Planned
	cells  []cell
	values []valuesStep
	scans  []*Scan // scans whose filter holds a cell
	limits []limitStep
}

// cell is one slot occurrence: the Const the lowered plan reads in its
// place, and the parameter and kind it takes.
type cell struct {
	c   *Const
	idx int
	typ types.Kind
}

// valuesStep re-evaluates the slotted rows of a VALUES list. An INSERT
// stores copies of the rows it is handed, so its rows are rewritten in
// place; any other reader may keep them, and gets fresh ones.
type valuesStep struct {
	v     *Values
	slots [][]Expr // lowered, one entry per row; nil for a folded row
	reuse bool
}

// limitStep evaluates a LIMIT or a top-N sort's bound.
type limitStep struct {
	l             *Limit
	count, offset int64 // the template's values, where no slot sets them
	countExpr     Expr
	offsetExpr    Expr
}

// Lower copies the plan for one session's executions. A plan without slots
// needs no copy: its instance shares the whole tree, and Bind is a no-op.
func (pl *Planned) Lower() *Instance {
	in := &Instance{Planned: *pl}
	if !pl.slots {
		return in
	}
	l := &lowering{in: in}
	l.leaf = l.cellFor
	// A write lowers its SET list here and its access path or source like
	// a SELECT's.
	switch x := pl.Root.(type) {
	case *InsertPlan:
		c := *x
		l.insert = &c
		c.Child = l.node(x.Child)
		in.Root = &c
	case *UpdatePlan:
		c := *x
		c.SetExprs, c.Child = l.exprs(x.SetExprs), l.node(x.Child)
		in.Root = &c
	case *DeletePlan:
		c := *x
		c.Child = l.node(x.Child)
		in.Root = &c
	default:
		in.Root = l.node(pl.Root)
	}
	// Costs is keyed by the template's nodes: it does not describe the copy.
	in.Motions, in.Costs, in.slots = l.motions, nil, false
	return in
}

// Bind readies the instance for one execution with params: every cell takes
// its parameter's value, cast to the slot's kind where it casts, and the
// value-dependent steps run over the new values.
func (in *Instance) Bind(params []types.Datum) error {
	if len(in.cells) == 0 {
		return nil
	}
	for _, s := range in.cells {
		if s.idx >= len(params) {
			return fmt.Errorf("plan: parameter $%d not supplied", s.idx+1)
		}
		v := params[s.idx]
		if v.Kind() != s.typ {
			// coercePair's cast; a value that does not cast compares as it is.
			if cv, err := v.CastTo(s.typ); err == nil {
				v = cv
			}
		}
		s.c.Val = v
	}
	for _, st := range in.values {
		for i, es := range st.slots {
			if es == nil {
				continue
			}
			row := st.v.Rows[i]
			if !st.reuse || row == nil {
				row = make(types.Row, len(es))
			}
			for j, e := range es {
				v, err := e.Eval(nil)
				if err != nil {
					return err
				}
				row[j] = v
			}
			st.v.Rows[i] = row
		}
	}
	for _, sc := range in.scans {
		deriveScan(sc)
	}
	for _, st := range in.limits {
		st.l.Count, st.l.Offset = st.count, st.offset
		var err error
		if st.countExpr != nil {
			if st.l.Count, err = limitValue(st.countExpr, "LIMIT"); err != nil {
				return err
			}
		}
		if st.offsetExpr != nil {
			if st.l.Offset, err = limitValue(st.offsetExpr, "OFFSET"); err != nil {
				return err
			}
		}
	}
	in.route()
	return nil
}

// Bind is Lower and Instance.Bind for one execution: the plan of a single
// run of the template with params, which needs no instance kept.
func (pl *Planned) Bind(params []types.Datum) (*Planned, error) {
	in := pl.Lower()
	if err := in.Bind(params); err != nil {
		return nil, err
	}
	return &in.Planned, nil
}

// lowering is one Lower call's state.
type lowering struct {
	in      *Instance
	insert  *InsertPlan     // the lowered root of an INSERT
	leaf    func(Expr) Expr // cellFor, bound once
	cells   int             // slots lowered so far
	motions []*Motion       // the lowered plan's motions, post-order
}

// expr returns e with its slots lowered (rewrite's sharing rules apply: an
// expression without a slot comes back unchanged).
func (l *lowering) expr(e Expr) Expr { return rewrite(e, l.leaf) }

func (l *lowering) exprs(es []Expr) []Expr { return rewriteAll(es, l.leaf) }

// cellFor turns a slot into a fresh cell.
func (l *lowering) cellFor(e Expr) Expr {
	p, ok := e.(*Param)
	if !ok {
		return e
	}
	c := &Const{Val: types.Null}
	l.in.cells = append(l.in.cells, cell{c: c, idx: p.Idx, typ: p.Typ})
	l.cells++
	return c
}

// limit returns x over child with its LIMIT and OFFSET slots lowered into a
// step Bind evaluates.
func (l *lowering) limit(x *Limit, child Node) *Limit {
	c := &Limit{Child: child, Count: x.Count, Offset: x.Offset}
	if x.CountExpr != nil || x.OffsetExpr != nil {
		l.in.limits = append(l.in.limits, limitStep{l: c, count: x.Count, offset: x.Offset,
			countExpr: l.expr(x.CountExpr), offsetExpr: l.expr(x.OffsetExpr)})
	}
	return c
}

// node returns n with the slots of its subtree lowered: a copy of n when the
// subtree held one, n itself (shared with the template) when not.
func (l *lowering) node(n Node) Node {
	mark := l.cells
	switch x := n.(type) {
	case *Values:
		if x.Slots != nil {
			c := *x
			c.Rows, c.Slots = slices.Clone(x.Rows), nil
			st := valuesStep{v: &c, slots: make([][]Expr, len(x.Slots)), reuse: l.insert != nil && l.insert.Child == Node(x)}
			for i, es := range x.Slots {
				if es != nil {
					st.slots[i] = l.exprs(es)
					c.Rows[i] = nil
				}
			}
			l.in.values = append(l.in.values, st)
			return &c
		}
	case *Scan:
		if f := l.expr(x.Filter); l.cells > mark {
			c := *x
			c.Filter = f
			l.in.scans = append(l.in.scans, &c)
			return &c
		}
	case *IndexScan:
		if keys, f := l.exprs(x.KeyVals), l.expr(x.Filter); l.cells > mark {
			c := *x
			c.KeyVals, c.Filter = keys, f
			return &c
		}
	case *Project:
		if ch, es := l.node(x.Child), l.exprs(x.Exprs); l.cells > mark {
			c := *x
			c.Child, c.Exprs = ch, es
			return &c
		}
	case *Filter:
		if ch, cond := l.node(x.Child), l.expr(x.Cond); l.cells > mark {
			return &Filter{Child: ch, Cond: cond}
		}
	case *HashJoin:
		lt, rt := l.node(x.Left), l.node(x.Right)
		if lk, rk, extra := l.exprs(x.LeftKeys), l.exprs(x.RightKeys), l.expr(x.Extra); l.cells > mark {
			c := *x
			c.Left, c.Right, c.LeftKeys, c.RightKeys, c.Extra = lt, rt, lk, rk, extra
			return &c
		}
	case *NestLoop:
		if lt, rt, cond := l.node(x.Left), l.node(x.Right), l.expr(x.Cond); l.cells > mark {
			c := *x
			c.Left, c.Right, c.Cond = lt, rt, cond
			return &c
		}
	case *Agg:
		ch, gb, specs := l.node(x.Child), l.exprs(x.GroupBy), x.Specs
		for i, sp := range x.Specs {
			if arg := l.expr(sp.Arg); arg != sp.Arg {
				if &specs[0] == &x.Specs[0] {
					specs = append([]AggSpec(nil), x.Specs...)
				}
				specs[i].Arg = arg
			}
		}
		if l.cells > mark {
			c := *x
			c.Child, c.GroupBy, c.Specs = ch, gb, specs
			return &c
		}
	case *Sort:
		ch, keys, top := l.node(x.Child), x.Keys, x.Top
		for i, k := range x.Keys {
			if e := l.expr(k.Expr); e != k.Expr {
				if &keys[0] == &x.Keys[0] {
					keys = append([]SortKey(nil), x.Keys...)
				}
				keys[i].Expr = e
			}
		}
		if top != nil && (top.CountExpr != nil || top.OffsetExpr != nil) {
			top = l.limit(top, nil) // a top-N's bound, from the LIMIT above its Gather
		}
		if l.cells > mark {
			c := *x
			c.Child, c.Keys, c.Top = ch, keys, top
			return &c
		}
	case *Limit:
		if ch := l.node(x.Child); l.cells > mark || x.CountExpr != nil || x.OffsetExpr != nil {
			return l.limit(x, ch)
		}
	case *Motion:
		m := x
		if ch, he := l.node(x.Child), l.exprs(x.HashExprs); l.cells > mark {
			c := *x
			c.Child, c.HashExprs = ch, he
			m = &c
		}
		l.motions = append(l.motions, m)
		return m
	}
	return n
}
