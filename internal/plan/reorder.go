package plan

import (
	"math"
	"math/bits"

	"repro/internal/sql"
)

// Cost-based join reordering. A FROM clause of inner/cross joins over base
// tables is flattened into a relation set plus a conjunct pool (ON clauses
// and the WHERE clause together). Single-relation conjuncts are pushed into
// the scans, two-relation equalities become join edges, and the join order
// is chosen by cost: exhaustive dynamic programming over left-deep orders
// for small sets, greedy nearest-neighbor beyond. The chosen order also
// fixes the build side of each hash join (the newly joined relation builds,
// so the DP's choice of first pair doubles as build-side choice). A final
// Project restores the syntactic column order, so reordering is invisible
// to everything above the FROM clause.

// dpReorderRels is the largest relation count planned by exhaustive DP.
const dpReorderRels = 6

// maxReorderRels bounds reordering altogether (greedy beyond the DP limit);
// larger FROM lists fall back to the syntactic order.
const maxReorderRels = 16

// baseRel is one base relation of the flattened join.
type baseRel struct {
	pl     *planned
	offset int // first column in the original (syntactic) concatenation
	width  int
}

// joinEdge is an equality conjunct linking two relations; both expressions
// are in original global coordinates.
type joinEdge struct {
	a, b   int
	ea, eb Expr
	sel    float64 // the cost model's selectivity of ea = eb
	used   bool
}

// residualPred is a conjunct spanning several relations that is not a
// simple equality edge; applied at the first join covering its mask.
type residualPred struct {
	mask     uint64
	e        Expr // original global coordinates
	attached bool
}

// planReorderedJoin plans a join tree with cost-based ordering. It returns
// (nil, nil, false, nil) when the tree does not qualify (outer joins,
// USING, subqueries, too many relations) — the caller falls back to the
// syntactic planJoin path. whereHandled reports that the WHERE clause was
// folded into the join and must not be re-applied.
func (p *Planner) planReorderedJoin(jr *sql.JoinRef, where sql.Expr) (pn *planned, sc *scope, whereHandled bool, err error) {
	var bases []*sql.BaseTable
	var onConds []sql.Expr
	if !flattenJoinTree(jr, &bases, &onConds) {
		return nil, nil, false, nil
	}
	if len(bases) < 2 || len(bases) > maxReorderRels {
		return nil, nil, false, nil
	}

	// Plan every base relation and build the original-order scope.
	rels := make([]*baseRel, len(bases))
	combined := &scope{}
	off := 0
	for i, bt := range bases {
		pl, bsc, err := p.planFrom(bt)
		if err != nil {
			return nil, nil, false, err
		}
		w := pl.node.Schema().Len()
		for _, c := range bsc.cols {
			combined.cols = append(combined.cols, scopeCol{qual: c.qual, name: c.name, idx: c.idx + off, kind: c.kind})
		}
		rels[i] = &baseRel{pl: pl, offset: off, width: w}
		off += w
	}
	totalWidth := off
	relOf := func(col int) int {
		for i := len(rels) - 1; i > 0; i-- {
			if col >= rels[i].offset {
				return i
			}
		}
		return 0
	}

	// Bind ON conjuncts and the WHERE clause over the full scope and
	// classify each conjunct.
	bnd := p.newBinder(combined)
	var conjuncts []Expr
	pool := onConds
	if where != nil {
		pool = append(pool[:len(pool):len(pool)], where)
	}
	for _, raw := range pool {
		e, err := bnd.bind(raw)
		if err != nil {
			return nil, nil, false, err
		}
		conjuncts = append(conjuncts, flattenAnd(e)...)
	}

	var edges []*joinEdge
	var residuals []*residualPred
	var topResidual Expr
	for _, c := range conjuncts {
		set := make(map[int]struct{})
		if !collectCols(c, set) {
			return nil, nil, false, nil // unmappable expression: keep syntactic order
		}
		var mask uint64
		for col := range set {
			mask |= 1 << uint(relOf(col))
		}
		switch bits.OnesCount64(mask) {
		case 0:
			topResidual = conjoin(topResidual, c)
		case 1:
			// Single-relation predicate: push into that relation's scan.
			k := bits.TrailingZeros64(mask)
			scan := rels[k].pl.node.(*Scan)
			scan.Filter = conjoin(scan.Filter, rebase(c, -rels[k].offset))
			deriveScan(scan)
		default:
			if eq, ok := c.(*BinOp); ok && eq.Op == "=" {
				la, lo := exprRel(eq.Left, relOf)
				ra, rok := exprRel(eq.Right, relOf)
				if lo && rok && la != ra {
					edges = append(edges, &joinEdge{a: la, b: ra, ea: eq.Left, eb: eq.Right})
					continue
				}
			}
			residuals = append(residuals, &residualPred{mask: mask, e: c})
		}
	}

	// Cost the filtered base relations and the edges between them.
	est := p.estimator()
	rows := make([]float64, len(rels))
	for i, r := range rels {
		rows[i] = float64(max(est.RecordsOutput(r.pl.node), 1))
	}
	for _, e := range edges {
		a, b := rels[e.a], rels[e.b]
		e.sel = est.joinKeySelectivity(a.pl.node, b.pl.node, rebase(e.ea, -a.offset), rebase(e.eb, -b.offset))
	}

	// card(S): product of base cardinalities times the selectivity of every
	// edge inside S (cross joins inside S simply keep the full product, so
	// the search avoids them whenever a connected order exists).
	cardMemo := make(map[uint64]float64)
	card := func(mask uint64) float64 {
		if c, ok := cardMemo[mask]; ok {
			return c
		}
		c := 1.0
		for i := range rels {
			if mask&(1<<uint(i)) != 0 {
				c *= rows[i]
			}
		}
		for _, e := range edges {
			em := uint64(1)<<uint(e.a) | uint64(1)<<uint(e.b)
			if mask&em == em {
				c *= e.sel
			}
		}
		if c < 1 {
			c = 1
		}
		cardMemo[mask] = c
		return c
	}
	// stepCost charges the probe side, the (costlier) build side, and the
	// join output.
	stepCost := func(acc uint64, r int) float64 {
		return card(acc) + 2*rows[r] + card(acc|1<<uint(r))
	}

	var order []int
	if len(rels) <= dpReorderRels {
		order = dpJoinOrder(len(rels), card, stepCost)
	} else {
		order = greedyJoinOrder(len(rels), card, stepCost)
	}

	// Build the left-deep plan in the chosen order.
	acc := rels[order[0]].pl
	curOff := make(map[int]int, len(rels)) // rel index -> offset in current layout
	curOff[order[0]] = 0
	accMask := uint64(1) << uint(order[0])
	for _, r := range order[1:] {
		leftWidth := acc.node.Schema().Len()
		newMask := accMask | 1<<uint(r)
		// Maps from original global coordinates into probe-side (current
		// acc layout) and combined-output coordinates.
		toAcc := func(g int) int {
			k := relOf(g)
			return curOff[k] + (g - rels[k].offset)
		}
		toOut := func(g int) int {
			if k := relOf(g); k != r {
				return curOff[k] + (g - rels[k].offset)
			}
			return leftWidth + (g - rels[r].offset)
		}

		var lks, rks []Expr
		var residual Expr
		for _, e := range edges {
			em := uint64(1)<<uint(e.a) | uint64(1)<<uint(e.b)
			if e.used || newMask&em != em {
				continue
			}
			e.used = true
			switch {
			case e.a == r:
				lks = append(lks, remapCols(e.eb, toAcc))
				rks = append(rks, rebase(e.ea, -rels[r].offset))
			case e.b == r:
				lks = append(lks, remapCols(e.ea, toAcc))
				rks = append(rks, rebase(e.eb, -rels[r].offset))
			default:
				// Redundant edge between two already-joined relations
				// (e.g. the third side of a triangle): recheck as residual.
				eq := &BinOp{Op: "=", Left: remapCols(e.ea, toOut), Right: remapCols(e.eb, toOut)}
				residual = conjoin(residual, eq)
			}
		}
		for _, rp := range residuals {
			if rp.attached || newMask&rp.mask != rp.mask {
				continue
			}
			rp.attached = true
			residual = conjoin(residual, remapCols(rp.e, toOut))
		}

		node, pl, err := p.buildJoin(JoinInner, acc, rels[r].pl, lks, rks, residual, leftWidth)
		if err != nil {
			return nil, nil, false, err
		}
		pl.node = node
		curOff[r] = leftWidth
		acc = pl
		accMask = newMask
	}

	if topResidual != nil {
		acc.node = &Filter{Child: acc.node, Cond: topResidual}
	}

	// Restore the original column order so reordering stays invisible.
	if !isIdentityOrder(order) {
		origToCur := make([]int, totalWidth)
		for k, r := range rels {
			for c := 0; c < r.width; c++ {
				origToCur[r.offset+c] = curOff[k] + c
			}
		}
		curToOrig := make([]int, totalWidth)
		for o, c := range origToCur {
			curToOrig[c] = o
		}
		sch := acc.node.Schema()
		exprs := make([]Expr, totalWidth)
		names := make([]string, totalWidth)
		for g := 0; g < totalWidth; g++ {
			col := sch.Columns[origToCur[g]]
			exprs[g] = &ColRef{Idx: origToCur[g], Name: col.Name, Typ: col.Kind}
			names[g] = col.Name
		}
		acc.node = NewProject(acc.node, exprs, names)
		acc.hashKeys = remapAllCols(acc.hashKeys, func(c int) int { return curToOrig[c] })
	}
	return acc, combined, where != nil, nil
}

// flattenJoinTree decomposes nested inner/cross joins over base tables.
func flattenJoinTree(r sql.TableRef, bases *[]*sql.BaseTable, conds *[]sql.Expr) bool {
	switch x := r.(type) {
	case *sql.BaseTable:
		*bases = append(*bases, x)
		return true
	case *sql.JoinRef:
		if x.Type == sql.JoinLeft || len(x.Using) > 0 {
			return false
		}
		if !flattenJoinTree(x.Left, bases, conds) || !flattenJoinTree(x.Right, bases, conds) {
			return false
		}
		if x.On != nil {
			*conds = append(*conds, x.On)
		}
		return true
	default:
		return false
	}
}

// exprRel reports the single relation an expression references.
func exprRel(e Expr, relOf func(int) int) (rel int, ok bool) {
	set := make(map[int]struct{})
	if !collectCols(e, set) || len(set) == 0 {
		return 0, false
	}
	rel = -1
	for col := range set {
		k := relOf(col)
		if rel == -1 {
			rel = k
		} else if rel != k {
			return 0, false
		}
	}
	return rel, true
}

// dpJoinOrder finds the cheapest left-deep order by dynamic programming
// over relation subsets.
func dpJoinOrder(n int, card func(uint64) float64, stepCost func(uint64, int) float64) []int {
	type entry struct {
		cost  float64
		order []int
	}
	best := make(map[uint64]entry, 1<<uint(n))
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = entry{cost: 0, order: []int{i}}
	}
	for mask := uint64(1); mask < 1<<uint(n); mask++ {
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		cur := entry{cost: math.Inf(1)}
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) == 0 {
				continue
			}
			prev, ok := best[mask&^(1<<uint(r))]
			if !ok {
				continue
			}
			c := prev.cost + stepCost(mask&^(1<<uint(r)), r)
			if c < cur.cost {
				cur = entry{cost: c, order: append(append([]int(nil), prev.order...), r)}
			}
		}
		best[mask] = cur
	}
	return best[1<<uint(n)-1].order
}

// greedyJoinOrder starts with the cheapest pair and repeatedly joins the
// relation that keeps the running cardinality smallest.
func greedyJoinOrder(n int, card func(uint64) float64, stepCost func(uint64, int) float64) []int {
	bi, bj := 0, 1
	bc := math.Inf(1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if c := stepCost(1<<uint(i), j); c < bc {
				bc, bi, bj = c, i, j
			}
		}
	}
	order := []int{bi, bj}
	mask := uint64(1)<<uint(bi) | uint64(1)<<uint(bj)
	for len(order) < n {
		next, nc := -1, math.Inf(1)
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				continue
			}
			if c := stepCost(mask, r); c < nc {
				nc, next = c, r
			}
		}
		order = append(order, next)
		mask |= 1 << uint(next)
	}
	return order
}

func isIdentityOrder(order []int) bool {
	for i, r := range order {
		if i != r {
			return false
		}
	}
	return true
}

// remapCols rewrites every column reference through f.
func remapCols(e Expr, f func(int) int) Expr {
	return rewrite(e, func(l Expr) Expr {
		if c, ok := l.(*ColRef); ok {
			return &ColRef{Idx: f(c.Idx), Name: c.Name, Typ: c.Typ}
		}
		return l
	})
}

func remapAllCols(exprs []Expr, f func(int) int) []Expr {
	out := make([]Expr, len(exprs))
	for i, e := range exprs {
		out[i] = remapCols(e, f)
	}
	return out
}
