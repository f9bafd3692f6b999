package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/lockmgr"
	"repro/internal/sql"
	"repro/internal/types"
)

// Optimizer selects which planner personality handles a query (paper §3.4:
// the MPP-aware PostgreSQL planner for latency-sensitive transactional
// queries, Orca for analytical ones).
type Optimizer uint8

// Optimizers.
const (
	// OptimizerOLTP is the fast rule-based planner: index selection, direct
	// dispatch, no cost-based exploration.
	OptimizerOLTP Optimizer = iota
	// OptimizerOLAP is the cost-based planner: join reordering, cost-driven
	// broadcast-vs-redistribute and the risk-bound robust fallback.
	OptimizerOLAP
)

func (o Optimizer) String() string {
	if o == OptimizerOLAP {
		return "orca"
	}
	return "postgres"
}

// Stats supplies row-count estimates to the cost-based planner.
type Stats interface {
	// RowCount estimates the total rows of a table across the cluster.
	RowCount(table string) int64
}

// defaultStats is used when no statistics provider is wired (sessions
// always wire the cluster's live row-count cache; this is only reachable
// from direct Planner construction). Zero means "unknown": the planner
// then never broadcasts on a guess.
type defaultStats struct{}

func (defaultStats) RowCount(string) int64 { return 0 }

// Planner turns analyzed statements into distributed physical plans.
type Planner struct {
	Catalog     *catalog.Catalog
	NumSegments int
	Optimizer   Optimizer
	Stats       Stats
	// Params are the values bound to $N placeholders. The plan keeps a slot
	// per placeholder and takes only the values' kinds from here (see
	// Instance.Bind), except where planning itself consumes the values: the
	// cost-based passes, whose estimates depend on them, INSERT rows, and
	// under Fold.
	Params []types.Datum
	// Fold binds every $N to its value instead of a slot, making the plan
	// valid for this one binding only. EXPLAIN sets it so the estimates it
	// prints see the values.
	Fold bool
	// Robust forces the robust plan shape — no broadcast motions and
	// conservative (non-selectivity-scaled) memory estimates — after the
	// risk-bound check recorded a misestimate for this statement.
	Robust bool

	// mapVers accumulates the distribution-map version of every base table
	// the statement references (stamped onto Planned.MapVersions), so
	// dispatch can fence plans built before an online-expansion flip.
	mapVers map[string]uint64
	// slots counts the $N slots the statement's binders left in the plan.
	slots int
}

// newBinder returns a binder over sc for this statement's parameters.
func (p *Planner) newBinder(sc *scope) *binder {
	return &binder{scope: sc, params: p.Params, fold: p.Fold || p.Optimizer == OptimizerOLAP, slots: &p.slots}
}

// noteMapVersion records a referenced table's placement version.
func (p *Planner) noteMapVersion(t *catalog.Table) {
	if p.mapVers == nil {
		p.mapVers = make(map[string]uint64)
	}
	_, ver := t.Placement()
	p.mapVers[t.Name] = ver
}

// Planned couples a plan tree with statement-level metadata the dispatcher
// needs.
type Planned struct {
	Root Node
	// LockTable is the relation to lock at parse-analyze time on the
	// coordinator with LockMode (paper §4.2's first locking stage).
	LockTable string
	LockMode  lockmgr.Mode
	// DirectSegment pins execution to one segment (derived from an equality
	// predicate on the full distribution key); -1 means all segments.
	DirectSegment int
	// ForUpdate marks SELECT ... FOR UPDATE.
	ForUpdate bool
	// Slices are the plan slices after motion cutting (top slice first).
	// Motions lists the plan's motions in post-order and ScansTables reports
	// whether any slice reads a table: what dispatch needs of the plan's
	// shape, computed with the slice cut instead of per execution.
	Slices      int
	Motions     []*Motion
	ScansTables bool
	// MapVersions maps every referenced base table to the distribution-map
	// version the plan was built against; dispatch re-checks them and fails
	// retryably when online expansion flipped a placement since planning.
	MapVersions map[string]uint64
	// Costs are the cost model's per-node annotations (EXPLAIN rendering
	// and the executor's risk-bound misestimate check).
	Costs map[Node]*NodeCost

	// slots marks a template: the plan holds $N slots and runs only as a
	// bound Instance. nseg is the planner setting Bind's value-dependent
	// steps need.
	slots bool
	nseg  int
}

// NewPlanned wraps a hand-built plan tree (no statement-level locks,
// no direct dispatch) and cuts its slices.
func NewPlanned(root Node) *Planned {
	pl := &Planned{Root: root, DirectSegment: -1}
	pl.cut()
	return pl
}

func (p *Planner) stats() Stats {
	if p.Stats == nil {
		return defaultStats{}
	}
	return p.Stats
}

// planned node + locus bookkeeping.
type planned struct {
	node  Node
	locus Locus
	// hashKeys are the expressions (over node output) rows are hashed by
	// when locus == LocusHashed.
	hashKeys []Expr
	rows     int64 // estimate
}

// PlanSelect plans a SELECT statement: its tree, gathered to the
// coordinator.
func (p *Planner) PlanSelect(s *sql.SelectStmt) (*Planned, error) {
	pn, err := p.planSelect(s)
	if err != nil {
		return nil, err
	}
	if pn.locus != LocusSingle {
		pn.node = &Motion{Child: pn.node, Type: MotionGather}
	}
	res := &Planned{Root: pn.node, DirectSegment: -1, ForUpdate: s.Lock == sql.LockForUpdate, MapVersions: p.mapVers}
	p.attachSelectLocks(res, s)
	p.annotate(res, res.Root)
	return p.finish(res), nil
}

// annotate prunes the columns of the tree under top, the rows a statement
// produces, cuts the plan's slices, attaches the scans' pushed predicates
// and costs the tree.
func (p *Planner) annotate(res *Planned, top Node) {
	pruneColumns(top)
	res.cut()
	AttachPushdown(top)
	if p.Optimizer == OptimizerOLAP && !p.Robust {
		// Selectivity-aware memory estimates plus the cost annotations.
		res.Costs = p.AnnotateCosts(top)
	} else {
		// Rule-based/robust path: conservative full-cardinality memory
		// estimates; costs still computed for EXPLAIN and risk bounds.
		AnnotateMemory(top, p.stats())
		est := newCostEstimator(p.stats(), p.statsProvider(), p.NumSegments)
		est.cost(top)
		res.Costs = est.costs
	}
}

// planSelect plans a SELECT's tree up to where its rows are produced: on
// the coordinator (LocusSingle), or on the segments with the locus the
// result has there.
func (p *Planner) planSelect(s *sql.SelectStmt) (*planned, error) {
	var pn *planned
	var scope *scope
	var err error
	whereHandled := false
	if jr, ok := s.From.(*sql.JoinRef); ok && p.Optimizer == OptimizerOLAP {
		// Cost-based join reordering folds the WHERE clause into the join
		// conjunct pool; a nil result means the tree does not qualify.
		pn, scope, whereHandled, err = p.planReorderedJoin(jr, s.Where)
		if err != nil {
			return nil, err
		}
	}
	if pn == nil {
		pn, scope, err = p.planFrom(s.From)
		if err != nil {
			return nil, err
		}
	}
	if pn.locus == LocusReplicated {
		// Every segment holds a full copy: letting each segment feed the
		// statement's gather (or a partial aggregate) would return one copy
		// per segment. Pin the subtree's scans to a single segment instead.
		// Inside joins LocusReplicated still avoids motions — this only
		// applies when a replicated subtree reaches the statement top.
		restrictScansToSeg(pn.node, 0)
		pn.locus = LocusPartitioned
	}

	bnd := p.newBinder(scope)

	// WHERE.
	var where Expr
	if s.Where != nil && !whereHandled {
		where, err = bnd.bind(s.Where)
		if err != nil {
			return nil, err
		}
	}

	// Push the filter into a bare scan; otherwise add a Filter node.
	if where != nil {
		if scan, ok := pn.node.(*Scan); ok {
			pn.node = p.accessPath(scan, where)
		} else {
			pn.node = &Filter{Child: pn.node, Cond: where}
		}
	}

	needAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, item := range s.Items {
		if !item.Star && hasAgg(item.Expr) {
			needAgg = true
		}
	}

	var out Node
	var outNames []string
	visibleCols := -1 // -1 = no hidden sort columns

	if needAgg {
		out, outNames, err = p.planAggregate(pn, scope, s)
		if err != nil {
			return nil, err
		}
		pn.node = out
		pn.locus = LocusSingle
		pn.hashKeys = nil
	} else {
		// Plain projection. ORDER BY items that don't resolve against the
		// output are computed as hidden trailing columns over the input
		// scope (standard SQL's "sort by unprojected column") and dropped
		// after sorting.
		exprs, names, err := p.bindSelectItems(s.Items, scope)
		if err != nil {
			return nil, err
		}
		visible := len(exprs)
		if len(s.OrderBy) > 0 {
			inBnd := p.newBinder(scope)
			for _, it := range s.OrderBy {
				if p.orderByResolves(it, names) {
					continue
				}
				e, err := inBnd.bind(it.Expr)
				if err != nil {
					return nil, fmt.Errorf("plan: cannot resolve ORDER BY item %s: %w", it.Expr, err)
				}
				exprs = append(exprs, e)
				names = append(names, it.Expr.String())
			}
		}
		if s.Lock != sql.LockNone {
			markForUpdate(pn.node)
		}
		pn.node = NewProject(pn.node, exprs, names)
		outNames = names
		if len(exprs) > visible {
			visibleCols = visible
		}
		if s.Distinct {
			// DISTINCT = group by all output columns after gathering.
			if pn.locus != LocusSingle {
				pn.node = &Motion{Child: pn.node, Type: MotionGather}
				pn.locus = LocusSingle
			}
			gb := make([]Expr, pn.node.Schema().Len())
			for i := range gb {
				gb[i] = &ColRef{Idx: i, Name: pn.node.Schema().Columns[i].Name, Typ: pn.node.Schema().Columns[i].Kind}
			}
			pn.node = NewAgg(pn.node, gb, nil, AggPlain)
		}
	}

	// ORDER BY / LIMIT / OFFSET run in the coordinator slice. Over a
	// partitioned input, ORDER BY … LIMIT also sorts on every segment, each
	// keeping only the first count + offset rows (a top-N), so the Gather
	// ships at most that many per segment.
	var keys []SortKey
	if len(s.OrderBy) > 0 {
		if keys, err = p.bindOrderBy(s.OrderBy, pn.node.Schema(), outNames); err != nil {
			return nil, err
		}
	}
	var lim *Limit
	if s.Limit != nil || s.Offset != nil {
		lim = &Limit{Count: -1}
		if lim.CountExpr, err = p.bindLimit(s.Limit, "LIMIT", &lim.Count); err != nil {
			return nil, err
		}
		if lim.OffsetExpr, err = p.bindLimit(s.Offset, "OFFSET", &lim.Offset); err != nil {
			return nil, err
		}
	}
	if keys != nil || lim != nil {
		if pn.locus != LocusSingle {
			if keys != nil && s.Limit != nil {
				pn.node = &Sort{Child: pn.node, Keys: keys, Top: lim}
			}
			pn.node = &Motion{Child: pn.node, Type: MotionGather}
			pn.locus = LocusSingle
		}
	}
	if keys != nil {
		pn.node = &Sort{Child: pn.node, Keys: keys}
	}
	if lim != nil {
		lim.Child = pn.node
		pn.node = lim
	}

	// Drop hidden sort columns after the sort has consumed them.
	if visibleCols >= 0 {
		sch := pn.node.Schema()
		keep := make([]Expr, visibleCols)
		keepNames := make([]string, visibleCols)
		for i := 0; i < visibleCols; i++ {
			keep[i] = &ColRef{Idx: i, Name: sch.Columns[i].Name, Typ: sch.Columns[i].Kind}
			keepNames[i] = sch.Columns[i].Name
		}
		pn.node = NewProject(pn.node, keep, keepNames)
	}
	return pn, nil
}

// attachSelectLocks records the coordinator-side relation lock for a SELECT.
func (p *Planner) attachSelectLocks(res *Planned, s *sql.SelectStmt) {
	if bt, ok := s.From.(*sql.BaseTable); ok {
		res.LockTable = bt.Name
		switch s.Lock {
		case sql.LockForUpdate, sql.LockForShare:
			res.LockMode = lockmgr.RowShare
		default:
			res.LockMode = lockmgr.AccessShare
		}
	} else if s.From != nil {
		// Joins: lock the leftmost base table in AccessShare; the segment
		// execution locks each scanned table locally anyway.
		if t := leftmostTable(s.From); t != "" {
			res.LockTable = t
			res.LockMode = lockmgr.AccessShare
		}
	}
}

func leftmostTable(ref sql.TableRef) string {
	switch r := ref.(type) {
	case *sql.BaseTable:
		return r.Name
	case *sql.JoinRef:
		return leftmostTable(r.Left)
	default:
		return ""
	}
}

// accessPath narrows a bare table scan by a WHERE condition: the condition
// becomes the scan's filter, prunes its partitions, and an index probe
// replaces the scan when the condition pins every column of an index. A
// SELECT's single-table FROM and an UPDATE's or DELETE's rows are found
// this one way.
func (p *Planner) accessPath(scan *Scan, where Expr) Node {
	scan.Filter = conjoin(scan.Filter, where)
	prunePartitions(scan)
	if ix := p.tryIndexScan(scan); ix != nil {
		return ix
	}
	return scan
}

func markForUpdate(n Node) {
	switch x := n.(type) {
	case *Scan:
		x.ForUpdate = true
	case *IndexScan:
		x.ForUpdate = true
	}
	for _, c := range n.Children() {
		markForUpdate(c)
	}
}

func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &BinOp{Op: "AND", Left: a, Right: b}
}

// bindSelectItems expands * and binds each projection.
func (p *Planner) bindSelectItems(items []sql.SelectItem, sc *scope) ([]Expr, []string, error) {
	var exprs []Expr
	var names []string
	bnd := p.newBinder(sc)
	for _, item := range items {
		if item.Star {
			for _, c := range sc.cols {
				exprs = append(exprs, &ColRef{Idx: c.idx, Name: c.name, Typ: c.kind})
				names = append(names, c.name)
			}
			continue
		}
		if cr, ok := item.Expr.(*sql.ColumnRef); ok && cr.Column == "*" {
			// table.* expansion.
			for _, c := range sc.cols {
				if c.qual == strings.ToLower(cr.Table) {
					exprs = append(exprs, &ColRef{Idx: c.idx, Name: c.name, Typ: c.kind})
					names = append(names, c.name)
				}
			}
			continue
		}
		e, err := bnd.bind(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		name := item.Alias
		if name == "" {
			if cr, ok := item.Expr.(*sql.ColumnRef); ok {
				name = cr.Column
			} else {
				name = item.Expr.String()
			}
		}
		names = append(names, name)
	}
	return exprs, names, nil
}

// orderByResolves reports whether an ORDER BY item resolves against the
// projection's output (by position, alias, or output expression) without
// needing a hidden column.
func (p *Planner) orderByResolves(it sql.OrderItem, names []string) bool {
	if lit, ok := it.Expr.(*sql.Literal); ok && lit.Value.Kind() == types.KindInt {
		return true
	}
	if cr, ok := it.Expr.(*sql.ColumnRef); ok {
		n := 0
		for _, name := range names {
			if strings.EqualFold(name, cr.Column) {
				n++
			}
		}
		return n == 1
	}
	for _, name := range names {
		if strings.EqualFold(name, it.Expr.String()) {
			return true
		}
	}
	return false
}

// bindOrderBy resolves ORDER BY keys against the projected output schema:
// by alias/name, by 1-based position, or as an expression over the output.
func (p *Planner) bindOrderBy(items []sql.OrderItem, schema *types.Schema, names []string) ([]SortKey, error) {
	var keys []SortKey
	outScope := &scope{}
	outScope.add("", schema, 0)
	bnd := p.newBinder(outScope)
	for _, it := range items {
		if lit, ok := it.Expr.(*sql.Literal); ok && lit.Value.Kind() == types.KindInt {
			pos := int(lit.Value.Int())
			if pos < 1 || pos > schema.Len() {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, SortKey{Expr: &ColRef{Idx: pos - 1, Typ: schema.Columns[pos-1].Kind}, Desc: it.Desc})
			continue
		}
		// Exact textual match first (this is how hidden sort columns are
		// named), then bare column-name match by alias.
		if found := indexOfName(names, it.Expr.String()); found >= 0 {
			keys = append(keys, SortKey{Expr: &ColRef{Idx: found, Typ: schema.Columns[found].Kind}, Desc: it.Desc})
			continue
		}
		if cr, ok := it.Expr.(*sql.ColumnRef); ok {
			// Match by output alias/name; a table qualifier is accepted as
			// long as the bare column name is unambiguous in the output.
			found := -1
			ambiguous := false
			for i, n := range names {
				if strings.EqualFold(n, cr.Column) {
					if found >= 0 {
						ambiguous = true
						break
					}
					found = i
				}
			}
			if found >= 0 && !ambiguous {
				keys = append(keys, SortKey{Expr: &ColRef{Idx: found, Name: cr.Column, Typ: schema.Columns[found].Kind}, Desc: it.Desc})
				continue
			}
		}
		e, err := bnd.bind(it.Expr)
		if err != nil {
			return nil, fmt.Errorf("plan: cannot resolve ORDER BY item %s: %w", it.Expr, err)
		}
		keys = append(keys, SortKey{Expr: e, Desc: it.Desc})
	}
	return keys, nil
}

// bindLimit binds a LIMIT or OFFSET expression. One without a $N slot is
// evaluated into *val now; one with a slot is returned for Bind to evaluate.
func (p *Planner) bindLimit(e sql.Expr, what string, val *int64) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	before := p.slots
	be, err := p.newBinder(&scope{}).bind(e)
	if err != nil {
		return nil, fmt.Errorf("plan: bad %s: %w", what, err)
	}
	if p.slots > before {
		return be, nil
	}
	*val, err = limitValue(be, what)
	return nil, err
}

// limitValue evaluates a bound, slot-free LIMIT or OFFSET expression.
func limitValue(e Expr, what string) (int64, error) {
	v, err := e.Eval(nil)
	if err == nil {
		v, err = v.CastTo(types.KindInt)
	}
	if err != nil {
		return 0, fmt.Errorf("plan: bad %s: %w", what, err)
	}
	return v.Int(), nil
}

// planAggregate builds the (two-phase where possible) aggregation pipeline
// and returns the output node plus projection names.
func (p *Planner) planAggregate(pn *planned, sc *scope, s *sql.SelectStmt) (Node, []string, error) {
	// Bind GROUP BY over the input scope; a bare integer is the 1-based
	// position of a select item, as in ORDER BY.
	inBnd := p.newBinder(sc)
	var groupBound []Expr
	groupBy := make([]sql.Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		if lit, ok := g.(*sql.Literal); ok && lit.Value.Kind() == types.KindInt {
			pos := int(lit.Value.Int())
			if pos < 1 || pos > len(s.Items) || s.Items[pos-1].Star {
				return nil, nil, fmt.Errorf("plan: GROUP BY position %d is not in the select list", pos)
			}
			if g = s.Items[pos-1].Expr; hasAgg(g) {
				return nil, nil, fmt.Errorf("plan: GROUP BY position %d names an aggregate (%s)", pos, g)
			}
		}
		e, err := inBnd.bind(g)
		if err != nil {
			return nil, nil, err
		}
		groupBy[i] = g
		groupBound = append(groupBound, e)
	}

	// Bind select items + HAVING, collecting aggregate specs; references to
	// group items and aggs become ColRefs into the agg output layout.
	var specs []AggSpec
	aggBnd := p.newBinder(sc)
	aggBnd.aggs, aggBnd.aggBase, aggBnd.groupExprs = &specs, len(groupBound), groupBy
	var outExprs []Expr
	var outNames []string
	for _, item := range s.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("plan: SELECT * is not valid with GROUP BY")
		}
		e, err := aggBnd.bind(item.Expr)
		if err != nil {
			return nil, nil, err
		}
		outExprs = append(outExprs, e)
		name := item.Alias
		if name == "" {
			name = item.Expr.String()
		}
		outNames = append(outNames, name)
	}
	var having Expr
	if s.Having != nil {
		e, err := aggBnd.bind(s.Having)
		if err != nil {
			return nil, nil, err
		}
		having = e
	}

	anyDistinct := false
	for _, sp := range specs {
		if sp.Distinct {
			anyDistinct = true
		}
	}

	var aggOut Node
	if pn.locus == LocusSingle {
		aggOut = NewAgg(pn.node, groupBound, specs, AggPlain)
	} else if anyDistinct {
		// DISTINCT aggregates: gather raw rows, aggregate once.
		g := &Motion{Child: pn.node, Type: MotionGather}
		aggOut = NewAgg(g, groupBound, specs, AggPlain)
	} else {
		// Two-phase: partial on segments, gather, final merge.
		partial := NewAgg(pn.node, groupBound, specs, AggPartial)
		g := &Motion{Child: partial, Type: MotionGather}
		// Final's group-by reads the partial layout positionally.
		fgroup := make([]Expr, len(groupBound))
		for i := range fgroup {
			fgroup[i] = &ColRef{Idx: i, Typ: partial.Schema().Columns[i].Kind}
		}
		aggOut = NewAgg(g, fgroup, specs, AggFinal)
	}

	var out Node = aggOut
	if having != nil {
		out = &Filter{Child: out, Cond: having}
	}
	out = NewProject(out, outExprs, outNames)
	return out, outNames, nil
}

// planFrom builds the plan for a FROM clause and the name-resolution scope.
func (p *Planner) planFrom(ref sql.TableRef) (*planned, *scope, error) {
	if ref == nil {
		return &planned{node: &Values{Out: &types.Schema{}, Rows: []types.Row{{}}}, locus: LocusSingle, rows: 1}, &scope{}, nil
	}
	switch r := ref.(type) {
	case *sql.BaseTable:
		t, err := p.Catalog.Table(r.Name)
		if err != nil {
			return nil, nil, err
		}
		scan := NewScan(t, allLeafIDs(t), nil)
		sc := &scope{}
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		sc.add(alias, t.Schema, 0)
		p.noteMapVersion(t)
		pl := &planned{node: scan, rows: p.stats().RowCount(t.Name)}
		// Mid-expansion, a table whose placement has not yet been widened to
		// the live segment count loses its colocation/replication guarantees:
		// its rows occupy only the original segments of a wider cluster.
		width, _ := t.Placement()
		narrow := width > 0 && p.NumSegments > 0 && width != p.NumSegments
		switch {
		case t.Distribution == catalog.DistHash && narrow:
			// Rows hash modulo the old width: treat as arbitrarily
			// partitioned so joins redistribute at the live width.
			pl.locus = LocusPartitioned
		case t.Distribution == catalog.DistReplicated && narrow:
			// Only the original segments hold a copy; scan exactly one of
			// them (segment 0 always has a full copy) and redistribute.
			scan.OnSeg = 0
			pl.locus = LocusPartitioned
		case t.Distribution == catalog.DistHash:
			pl.locus, pl.hashKeys = LocusHashed, colRefs(t.Schema, t.DistKeyCols)
		case t.Distribution == catalog.DistReplicated:
			pl.locus = LocusReplicated
		default:
			pl.locus = LocusPartitioned
		}
		return pl, sc, nil
	case *sql.JoinRef:
		return p.planJoin(r)
	case *sql.SubqueryRef:
		return nil, nil, fmt.Errorf("plan: subqueries in FROM are not supported")
	default:
		return nil, nil, fmt.Errorf("plan: unsupported FROM item %T", ref)
	}
}

func allLeafIDs(t *catalog.Table) []catalog.TableID {
	if !t.IsPartitioned() {
		return []catalog.TableID{t.ID}
	}
	out := make([]catalog.TableID, len(t.Partitions))
	for i := range t.Partitions {
		out[i] = t.Partitions[i].ID
	}
	return out
}

// planJoin plans one join node, inserting motions for colocation.
func (p *Planner) planJoin(r *sql.JoinRef) (*planned, *scope, error) {
	left, lsc, err := p.planFrom(r.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rsc, err := p.planFrom(r.Right)
	if err != nil {
		return nil, nil, err
	}
	leftWidth := left.node.Schema().Len()
	combined := &scope{}
	combined.cols = append(combined.cols, lsc.cols...)
	for _, c := range rsc.cols {
		combined.cols = append(combined.cols, scopeCol{qual: c.qual, name: c.name, idx: c.idx + leftWidth, kind: c.kind})
	}

	var kind JoinKind
	switch r.Type {
	case sql.JoinLeft:
		kind = JoinLeft
	default:
		kind = JoinInner
	}

	// Build the join condition.
	var cond Expr
	bnd := p.newBinder(combined)
	if r.On != nil {
		cond, err = bnd.bind(r.On)
		if err != nil {
			return nil, nil, err
		}
	} else if len(r.Using) > 0 {
		for _, name := range r.Using {
			lc, err := lsc.resolve("", name)
			if err != nil {
				return nil, nil, err
			}
			rc, err := rsc.resolve("", name)
			if err != nil {
				return nil, nil, err
			}
			eq := &BinOp{Op: "=",
				Left:  &ColRef{Idx: lc.idx, Name: name, Typ: lc.kind},
				Right: &ColRef{Idx: rc.idx + leftWidth, Name: name, Typ: rc.kind}}
			cond = conjoin(cond, eq)
		}
	}

	// Split cond into equality key pairs and residual.
	leftKeys, rightKeys, residual := splitJoinKeys(cond, leftWidth)

	node, pl, err := p.buildJoin(kind, left, right, leftKeys, rightKeys, residual, leftWidth)
	if err != nil {
		return nil, nil, err
	}
	pl.node = node
	return pl, combined, nil
}

// splitJoinKeys extracts `leftcol = rightcol` style conjuncts. Left keys are
// expressions over the left row; right keys are rebased to the right row.
func splitJoinKeys(cond Expr, leftWidth int) (lk, rk []Expr, residual Expr) {
	if cond == nil {
		return nil, nil, nil
	}
	conjuncts := flattenAnd(cond)
	for _, c := range conjuncts {
		b, ok := c.(*BinOp)
		if !ok || b.Op != "=" {
			residual = conjoin(residual, c)
			continue
		}
		lside, lok := sideOf(b.Left, leftWidth)
		rside, rok := sideOf(b.Right, leftWidth)
		if !lok || !rok || lside == rside {
			residual = conjoin(residual, c)
			continue
		}
		le, re := b.Left, b.Right
		if lside == 1 { // left operand references right side: swap
			le, re = re, le
		}
		lk = append(lk, le)
		rk = append(rk, rebase(re, -leftWidth))
	}
	return lk, rk, residual
}

func flattenAnd(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(flattenAnd(b.Left), flattenAnd(b.Right)...)
	}
	return []Expr{e}
}

// sideOf reports which input an expression references: 0 = left only,
// 1 = right only. ok=false when it references both or neither.
func sideOf(e Expr, leftWidth int) (side int, ok bool) {
	lo, hi := colRange(e)
	if lo == -1 {
		return 0, false
	}
	if hi < leftWidth {
		return 0, true
	}
	if lo >= leftWidth {
		return 1, true
	}
	return 0, false
}

func colRange(e Expr) (lo, hi int) {
	lo, hi = -1, -1
	var walk func(Expr)
	walk = func(x Expr) {
		switch v := x.(type) {
		case *ColRef:
			if lo == -1 || v.Idx < lo {
				lo = v.Idx
			}
			if v.Idx > hi {
				hi = v.Idx
			}
		case *BinOp:
			walk(v.Left)
			walk(v.Right)
		case *NotExpr:
			walk(v.Operand)
		case *NegExpr:
			walk(v.Operand)
		case *IsNull:
			walk(v.Operand)
		case *InList:
			walk(v.Operand)
			for _, it := range v.List {
				walk(it)
			}
		case *Between:
			walk(v.Operand)
			walk(v.Lo)
			walk(v.Hi)
		case *Case:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			if v.Else != nil {
				walk(v.Else)
			}
		}
	}
	walk(e)
	return lo, hi
}

// rebase shifts every ColRef index by delta (used to move right-side key
// expressions into right-row coordinates).
func rebase(e Expr, delta int) Expr {
	return remapCols(e, func(c int) int { return c + delta })
}

// hashAligned reports whether a locus hashed by hashKeys is already aligned
// with the join keys (every hash key appears among the join keys).
func hashAligned(hashKeys, joinKeys []Expr) bool {
	if len(hashKeys) == 0 || len(hashKeys) > len(joinKeys) {
		return false
	}
	for _, hk := range hashKeys {
		if !slices.ContainsFunc(joinKeys, func(jk Expr) bool { return sameCol(hk, jk) }) {
			return false
		}
	}
	return true
}

// sameCol reports whether a and b are one column of one row: ColRefs of the
// same position and kind. Columns are compared by position, not by name
// (two tables of a join may each have an "id"), and any other expression is
// never taken as the same, so a locus it hashes is never taken as aligned.
func sameCol(a, b Expr) bool {
	ca, ok1 := a.(*ColRef)
	cb, ok2 := b.(*ColRef)
	return ok1 && ok2 && ca.Idx == cb.Idx && ca.Typ == cb.Typ
}

// buildJoin decides the join distribution strategy and wraps children in
// motions as needed.
func (p *Planner) buildJoin(kind JoinKind, left, right *planned, lk, rk []Expr, residual Expr, leftWidth int) (Node, *planned, error) {
	result := &planned{rows: max(left.rows, right.rows)}

	haveKeys := len(lk) > 0

	if !haveKeys {
		// No equality keys: nested loop with the inner (right) side
		// broadcast to wherever the outer side lives.
		switch {
		case left.locus == LocusSingle && right.locus == LocusSingle:
		case left.locus == LocusSingle:
			right.node = &Motion{Child: right.node, Type: MotionGather}
			right.locus = LocusSingle
		case right.locus == LocusReplicated || right.locus == LocusSingle && false:
			// right already everywhere
		default:
			right.node = &Motion{Child: right.node, Type: MotionBroadcast}
			right.locus = LocusReplicated
		}
		result.locus = left.locus
		result.hashKeys = left.hashKeys
		return NewNestLoop(kind, left.node, right.node, residual), result, nil
	}

	// Equality join. Residual conditions are evaluated on the joined row.
	leftAligned := left.locus == LocusHashed && hashAligned(left.hashKeys, lk)
	rightAligned := right.locus == LocusHashed && hashAligned(right.hashKeys, rk)

	switch {
	case left.locus == LocusSingle || right.locus == LocusSingle:
		// Finish on the coordinator.
		if left.locus != LocusSingle {
			left.node = &Motion{Child: left.node, Type: MotionGather}
		}
		if right.locus != LocusSingle {
			right.node = &Motion{Child: right.node, Type: MotionGather}
		}
		result.locus = LocusSingle
	case left.locus == LocusReplicated && right.locus == LocusReplicated:
		result.locus = LocusReplicated
	case right.locus == LocusReplicated:
		result.locus = left.locus
		result.hashKeys = left.hashKeys
	case left.locus == LocusReplicated:
		result.locus = right.locus
		result.hashKeys = rebaseAll(right.hashKeys, leftWidth)
	case leftAligned && rightAligned && alignedPairs(left.hashKeys, lk, rk, right.hashKeys):
		// Colocated join: no motion.
		result.locus = LocusHashed
		result.hashKeys = left.hashKeys
	default:
		// The OLAP planner broadcasts a small inner side instead of
		// redistributing both; the OLTP planner always redistributes
		// misaligned sides. The choice compares interconnect traffic (a
		// broadcast ships the inner side to every segment; a redistribute
		// ships each misaligned side once). A robust plan never broadcasts —
		// a misestimated inner side makes broadcasts arbitrarily bad, while
		// redistribution degrades gracefully.
		broadcast := false
		if p.Optimizer == OptimizerOLAP && !p.Robust && !rightAligned && right.rows > 0 && kind == JoinInner {
			nseg := int64(max(p.NumSegments, 1))
			redistributed := right.rows
			if !leftAligned {
				redistributed += left.rows
			}
			broadcast = right.rows*nseg <= redistributed
		}
		if broadcast {
			right.node = &Motion{Child: right.node, Type: MotionBroadcast}
			result.locus = left.locus
			result.hashKeys = left.hashKeys
		} else {
			if !leftAligned {
				left.node = &Motion{Child: left.node, Type: MotionRedistribute, HashExprs: lk}
				left.locus = LocusHashed
				left.hashKeys = lk
			}
			if !rightAligned {
				right.node = &Motion{Child: right.node, Type: MotionRedistribute, HashExprs: rk}
				right.locus = LocusHashed
				right.hashKeys = rk
			}
			result.locus = LocusHashed
			result.hashKeys = lk
		}
	}

	return NewHashJoin(kind, left.node, right.node, lk, rk, residual), result, nil
}

// alignedPairs checks the two sides are hashed on *corresponding* key pairs:
// for each left hash key, the matching right hash key must be the partner of
// the same equality.
func alignedPairs(lHash []Expr, lk, rk []Expr, rHash []Expr) bool {
	if len(lHash) != len(rHash) {
		return false
	}
	for i, hk := range lHash {
		// Find hk among lk; the partner rk must equal rHash[i].
		found := false
		for j := range lk {
			if sameCol(lk[j], hk) && sameCol(rk[j], rHash[i]) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func rebaseAll(exprs []Expr, delta int) []Expr {
	return remapAllCols(exprs, func(c int) int { return c + delta })
}

// prunePartitions narrows a partitioned scan to the leaves its filter can
// match, using simple `col = const`, `col >= a AND col < b`, and BETWEEN
// patterns on the partition column. It recomputes the leaf set from the
// table's full partition list, so Bind re-runs it once $N slots hold values.
func prunePartitions(scan *Scan) {
	t := scan.Table
	if !t.IsPartitioned() || scan.Filter == nil {
		return
	}
	col := t.PartitionCol
	rng, ok := extractRange(scan.Filter, col)
	if !ok {
		return
	}
	var keep []catalog.TableID
	for i := range t.Partitions {
		part := &t.Partitions[i]
		if rng.eq != nil {
			if types.Compare(*rng.eq, part.Start) >= 0 && types.Compare(*rng.eq, part.End) < 0 {
				keep = append(keep, part.ID)
			}
			continue
		}
		// Overlap of the predicate interval with [Start, End). The lower
		// bound is treated inclusively even for ">" (a conservative
		// superset — never prunes a matching partition).
		if rng.lo != nil && types.Compare(*rng.lo, part.End) >= 0 {
			continue
		}
		if rng.hi != nil {
			if rng.hiStrict {
				// col < hi: partition matches only if Start < hi.
				if types.Compare(part.Start, *rng.hi) >= 0 {
					continue
				}
			} else if types.Compare(*rng.hi, part.Start) < 0 {
				continue
			}
		}
		keep = append(keep, part.ID)
	}
	scan.Partitions = keep
}

// keyRange is the constraint extracted from a conjunction for pruning.
type keyRange struct {
	lo, hi   *types.Datum
	hiStrict bool // hi bound came from "<" rather than "<="/BETWEEN
	eq       *types.Datum
}

// extractRange finds constraints on column col inside a conjunction.
func extractRange(e Expr, col int) (keyRange, bool) {
	var rng keyRange
	ok := false
	for _, c := range flattenAnd(e) {
		switch x := c.(type) {
		case *BinOp:
			cr, crOk := x.Left.(*ColRef)
			cn, cnOk := x.Right.(*Const)
			if !crOk || !cnOk || cr.Idx != col {
				continue
			}
			v := cn.Val
			switch x.Op {
			case "=":
				rng.eq = &v
				ok = true
			case ">", ">=":
				rng.lo = &v
				ok = true
			case "<":
				rng.hi = &v
				rng.hiStrict = true
				ok = true
			case "<=":
				rng.hi = &v
				ok = true
			}
		case *Between:
			cr, crOk := x.Operand.(*ColRef)
			loC, loOk := x.Lo.(*Const)
			hiC, hiOk := x.Hi.(*Const)
			if crOk && loOk && hiOk && cr.Idx == col && !x.Negate {
				lv, hv := loC.Val, hiC.Val
				rng.lo, rng.hi = &lv, &hv
				rng.hiStrict = false
				ok = true
			}
		}
	}
	return rng, ok
}

// restrictScansToSeg pins every table scan under n to one segment. Used
// when a replicated subtree feeds the statement's gathers directly: every
// segment holds a full copy, so exactly one segment may emit rows.
func restrictScansToSeg(n Node, seg int) {
	switch x := n.(type) {
	case *Scan:
		x.OnSeg = seg
	case *Project:
		restrictScansToSeg(x.Child, seg)
	case *Filter:
		restrictScansToSeg(x.Child, seg)
	case *Agg:
		restrictScansToSeg(x.Child, seg)
	case *Sort:
		restrictScansToSeg(x.Child, seg)
	case *Limit:
		restrictScansToSeg(x.Child, seg)
	case *Motion:
		restrictScansToSeg(x.Child, seg)
	case *HashJoin:
		restrictScansToSeg(x.Left, seg)
		restrictScansToSeg(x.Right, seg)
	case *NestLoop:
		restrictScansToSeg(x.Left, seg)
		restrictScansToSeg(x.Right, seg)
	}
}

// tryIndexScan replaces a filtered scan with an index probe when some
// index's columns are all pinned by constant equalities in the filter (the
// OLTP drill-through path). A partitioned table's index is probed in every
// leaf. The full filter is kept as the residual predicate — rechecking is
// cheap and keeps non-key conjuncts correct.
func (p *Planner) tryIndexScan(scan *Scan) *IndexScan {
	t := scan.Table
	if len(t.Indexes) == 0 || scan.Filter == nil || scan.OnSeg >= 0 {
		return nil
	}
	eq := map[int]Expr{}
	for _, c := range flattenAnd(scan.Filter) {
		b, ok := c.(*BinOp)
		if !ok || b.Op != "=" {
			continue
		}
		cr, crOK := b.Left.(*ColRef)
		cn := b.Right
		if !crOK || !IsConst(cn) {
			cr, crOK = b.Right.(*ColRef)
			cn = b.Left
			if !crOK || !IsConst(cn) {
				continue
			}
		}
		eq[cr.Idx] = cn
	}
	for _, ix := range t.Indexes {
		keys := make([]Expr, 0, len(ix.Columns))
		ok := true
		for _, col := range ix.Columns {
			e, found := eq[col]
			if !found {
				ok = false
				break
			}
			keys = append(keys, e)
		}
		if ok {
			return &IndexScan{Table: t, Index: ix, KeyVals: keys, Filter: scan.Filter, ForUpdate: scan.ForUpdate}
		}
	}
	return nil
}

// collectCols adds every column offset e references to set; ok=false means
// the expression contains a node kind the walker doesn't know, so the
// caller must assume the whole row is read.
func collectCols(e Expr, set map[int]struct{}) bool {
	switch v := e.(type) {
	case nil:
		return true
	case *ColRef:
		set[v.Idx] = struct{}{}
		return true
	case *Const, *Param:
		return true
	case *BinOp:
		return collectCols(v.Left, set) && collectCols(v.Right, set)
	case *NotExpr:
		return collectCols(v.Operand, set)
	case *NegExpr:
		return collectCols(v.Operand, set)
	case *Cast:
		return collectCols(v.Operand, set)
	case *IsNull:
		return collectCols(v.Operand, set)
	case *InList:
		if !collectCols(v.Operand, set) {
			return false
		}
		for _, it := range v.List {
			if !collectCols(it, set) {
				return false
			}
		}
		return true
	case *Between:
		return collectCols(v.Operand, set) && collectCols(v.Lo, set) && collectCols(v.Hi, set)
	case *Case:
		for _, w := range v.Whens {
			if !collectCols(w.Cond, set) || !collectCols(w.Then, set) {
				return false
			}
		}
		return collectCols(v.Else, set)
	default:
		return false
	}
}

// cut assigns slice ids to the plan's motions (top slice is 0, motions in
// pre-order) and records the slice count, the motions in post-order and
// whether the plan scans a table.
func (pl *Planned) cut() {
	pl.Slices, pl.Motions, pl.ScansTables = 1, nil, false
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *Scan, *IndexScan:
			pl.ScansTables = true
		case *Motion:
			x.SliceID = pl.Slices
			pl.Slices++
			defer func() { pl.Motions = append(pl.Motions, x) }() // after its subtree
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pl.Root)
}

// Explain renders the plan tree as indented text resembling Greenplum's
// EXPLAIN output.
func Explain(root Node) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if depth > 0 {
			b.WriteString("-> ")
		}
		b.WriteString(n.Explain())
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// ---- DML planning ----

// PlanInsert plans an INSERT: an InsertPlan over the rows' source, a Values
// leaf or the SELECT. Both are shaped to the table here, one way: the column
// list places each source column, a column it omits is NULL, and every value
// is cast to its column's kind. A VALUES row without a $N slot is evaluated
// now; a row with one is kept as expressions for Bind.
func (p *Planner) PlanInsert(st *sql.InsertStmt) (*Planned, error) {
	t, err := p.Catalog.Table(st.Table)
	if err != nil {
		return nil, err
	}
	p.noteMapVersion(t)
	cols := make([]int, 0, t.Schema.Len())
	for _, c := range st.Columns {
		i := t.Schema.ColumnIndex(c)
		if i < 0 {
			return nil, fmt.Errorf("plan: column %q of table %q does not exist", c, t.Name)
		}
		cols = append(cols, i)
	}
	if len(st.Columns) == 0 {
		for i := range t.Schema.Columns {
			cols = append(cols, i)
		}
	}
	// shape places source expression i in column cols[i], cast to its kind,
	// and NULL in every column the list omits.
	shape := func(src []Expr) []Expr {
		out := make([]Expr, t.Schema.Len())
		for i := range out {
			out[i] = &Const{Val: types.Null}
		}
		for i, c := range cols {
			out[c] = &Cast{Operand: src[i], Col: t.Schema.Columns[c]}
		}
		return out
	}
	ip := &InsertPlan{Table: t, MapVersion: p.mapVers[t.Name]}
	res := &Planned{Root: ip, DirectSegment: -1, LockTable: t.Name, LockMode: lockmgr.RowExclusive, MapVersions: p.mapVers}
	if st.Select != nil {
		sel, err := p.planSelect(st.Select)
		if err != nil {
			return nil, err
		}
		sch := sel.node.Schema()
		if sch.Len() != len(cols) {
			return nil, fmt.Errorf("plan: INSERT expects %d columns, SELECT supplies %d", len(cols), sch.Len())
		}
		src := make([]Expr, sch.Len())
		for i, c := range sch.Columns {
			src[i] = &ColRef{Idx: i, Name: c.Name, Typ: c.Kind}
		}
		ip.Child = p.moveToTarget(t, sel, cols, &Project{Child: sel.node, Exprs: shape(src), schema: t.Schema})
		p.annotate(res, ip.Child)
		return p.finish(res), nil
	}
	bnd := p.newBinder(&scope{})
	vals := &Values{Out: t.Schema, Rows: make([]types.Row, len(st.Rows))}
	src := make([]Expr, len(cols))
	for r, exprRow := range st.Rows {
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("plan: INSERT row has %d values, expected %d", len(exprRow), len(cols))
		}
		slots := p.slots
		for i, e := range exprRow {
			if src[i], err = bnd.bind(e); err != nil {
				return nil, err
			}
		}
		if p.slots > slots {
			if vals.Slots == nil {
				vals.Slots = make([][]Expr, len(st.Rows))
			}
			vals.Slots[r] = shape(src)
			continue
		}
		// A row without a slot is shaped the same way, folded to values.
		row := make(types.Row, t.Schema.Len())
		for i, c := range cols {
			cast := Cast{Operand: src[i], Col: t.Schema.Columns[c]}
			if row[c], err = cast.Eval(nil); err != nil {
				return nil, err
			}
		}
		vals.Rows[r] = row
	}
	ip.Child = vals
	res.cut()
	return p.finish(res), nil
}

// moveToTarget puts an INSERT's shaped source under the motion that brings
// each row to a segment storing it (paper §3.2): a Broadcast into a
// replicated table, a Redistribute by the key into a hashed one unless the
// SELECT's rows are hashed that way already, and none into a random table,
// which takes a row where it is produced — unless the SELECT ends on the
// coordinator, whose slice then sends. cols maps the SELECT's columns to
// the table's (see PlanInsert).
func (p *Planner) moveToTarget(t *catalog.Table, sel *planned, cols []int, shaped *Project) Node {
	m := &Motion{Child: shaped, Type: MotionRedistribute, Width: PlacementWidth(t, p.NumSegments), FromCoordinator: sel.locus == LocusSingle}
	switch {
	case t.Distribution == catalog.DistReplicated:
		m.Type = MotionBroadcast
	case t.Distribution == catalog.DistHash && !p.hashedAsTarget(t, sel, cols):
		m.HashExprs = colRefs(t.Schema, t.DistKeyCols)
	case t.Distribution == catalog.DistRandom && m.FromCoordinator:
		m.HashExprs = colRefs(t.Schema, cols) // spread by the values inserted
	default:
		return shaped
	}
	return m
}

// hashedAsTarget reports whether sel's rows already live where the hashed
// table t stores them: hashed across the whole cluster, which is t's
// placement too, on exactly the columns the SELECT items cols places in t's
// key columns reference, of the key columns' kinds. Columns are compared by
// position, not by name: two tables of a join may each have an "id".
func (p *Planner) hashedAsTarget(t *catalog.Table, sel *planned, cols []int) bool {
	proj, ok := sel.node.(*Project)
	if width, _ := t.Placement(); !ok || sel.locus != LocusHashed || len(sel.hashKeys) != len(t.DistKeyCols) ||
		width > 0 && width != p.NumSegments {
		return false
	}
	for j, c := range t.DistKeyCols {
		i := slices.Index(cols, c)
		if i < 0 {
			return false
		}
		item, ok1 := proj.Exprs[i].(*ColRef)
		key, ok2 := sel.hashKeys[j].(*ColRef)
		if !ok1 || !ok2 || item.Idx != key.Idx || item.Typ != t.Schema.Columns[c].Kind {
			return false
		}
	}
	return true
}

// colRefs references the columns cols of sch, in that order.
func colRefs(sch *types.Schema, cols []int) []Expr {
	out := make([]Expr, len(cols))
	for i, c := range cols {
		out[i] = &ColRef{Idx: c, Name: sch.Columns[c].Name, Typ: sch.Columns[c].Kind}
	}
	return out
}

// PlanUpdate plans an UPDATE: a new version, from the SET list, of every row
// the access path selects. A SET of a distribution-key or partition-key
// column is refused: the new version would stay on the old version's
// segment and leaf, where the key no longer routes (no split update).
func (p *Planner) PlanUpdate(st *sql.UpdateStmt, gddEnabled bool) (*Planned, error) {
	t, bnd, child, err := p.writeTarget(st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	up := &UpdatePlan{Table: t, Child: child, MapVersion: p.mapVers[t.Name]}
	for _, a := range st.Set {
		i := t.Schema.ColumnIndex(a.Column)
		switch {
		case i < 0:
			return nil, fmt.Errorf("plan: column %q of table %q does not exist", a.Column, t.Name)
		case t.Distribution == catalog.DistHash && slices.Contains(t.DistKeyCols, i):
			return nil, fmt.Errorf("plan: cannot update distribution key column %q of table %q", a.Column, t.Name)
		case t.IsPartitioned() && i == t.PartitionCol:
			return nil, fmt.Errorf("plan: cannot update partition key column %q of table %q", a.Column, t.Name)
		}
		e, err := bnd.bind(a.Value)
		if err != nil {
			return nil, err
		}
		up.SetCols = append(up.SetCols, i)
		up.SetExprs = append(up.SetExprs, e)
	}
	return p.finishWrite(t, up, gddEnabled), nil
}

// PlanDelete plans a DELETE of every row the access path selects.
func (p *Planner) PlanDelete(st *sql.DeleteStmt, gddEnabled bool) (*Planned, error) {
	t, _, child, err := p.writeTarget(st.Table, st.Where)
	if err != nil {
		return nil, err
	}
	return p.finishWrite(t, &DeletePlan{Table: t, Child: child, MapVersion: p.mapVers[t.Name]}, gddEnabled), nil
}

// writeTarget resolves an UPDATE's or DELETE's table and plans the access
// path to the rows its WHERE selects (see accessPath). Unlike a SELECT's, a
// replicated table's scan is not pinned to one segment: every copy is
// written. The binder is returned for the SET list.
func (p *Planner) writeTarget(table string, where sql.Expr) (*catalog.Table, *binder, Node, error) {
	t, err := p.Catalog.Table(table)
	if err != nil {
		return nil, nil, nil, err
	}
	p.noteMapVersion(t)
	sc := &scope{}
	sc.add(t.Name, t.Schema, 0)
	bnd := p.newBinder(sc)
	var cond Expr
	if where != nil {
		if cond, err = bnd.bind(where); err != nil {
			return nil, nil, nil, err
		}
	}
	return t, bnd, p.accessPath(NewScan(t, allLeafIDs(t), nil), cond), nil
}

// finishWrite wraps an UPDATE or DELETE root. The HTAP locking decision
// (paper §4): with GDD the coordinator takes RowExclusive on the table;
// without it, Exclusive — serializing all writers.
func (p *Planner) finishWrite(t *catalog.Table, root Node, gddEnabled bool) *Planned {
	res := &Planned{Root: root, DirectSegment: -1, LockTable: t.Name, LockMode: lockmgr.Exclusive, MapVersions: p.mapVers}
	if gddEnabled {
		res.LockMode = lockmgr.RowExclusive
	}
	AttachPushdown(root)
	return p.finish(res)
}

// directSegmentFor implements direct dispatch: when the filter pins every
// distribution-key column to a constant, only one segment (of nseg live
// ones) can hold matches.
func directSegmentFor(t *catalog.Table, filter Expr, nseg int) int {
	width := PlacementWidth(t, nseg)
	if t.Distribution != catalog.DistHash || filter == nil || width <= 1 {
		return -1
	}
	var buf [4]types.Datum // keeps the usual short key off the heap
	key := buf[:0]
	for _, dk := range t.DistKeyCols {
		v, ok := pinnedTo(filter, dk)
		if !ok {
			return -1
		}
		key = append(key, v)
	}
	return types.Bucket(types.Row(key).HashKey(), width)
}

// PlacementWidth is the number of segments t's rows hash across: its
// placement width (0 = the boot width, i.e. the live segment count nseg),
// not the live count — mid-expansion the two differ and direct dispatch must
// follow where rows actually live.
func PlacementWidth(t *catalog.Table, nseg int) int {
	width, _ := t.Placement()
	if width <= 0 || width > nseg {
		width = nseg
	}
	return width
}

// pinnedTo finds, among e's conjuncts, an equality between column col and a
// constant (either operand order) and returns the constant; the last such
// conjunct wins.
func pinnedTo(e Expr, col int) (val types.Datum, ok bool) {
	b, isBin := e.(*BinOp)
	if !isBin {
		return val, false
	}
	if b.Op == "AND" {
		l, lok := pinnedTo(b.Left, col)
		if r, rok := pinnedTo(b.Right, col); rok {
			return r, true
		}
		return l, lok
	}
	if b.Op != "=" {
		return val, false
	}
	cr, crOk := b.Left.(*ColRef)
	cn, cnOk := b.Right.(*Const)
	if !crOk || !cnOk {
		cr, crOk = b.Right.(*ColRef)
		cn, cnOk = b.Left.(*Const)
	}
	if !crOk || !cnOk || cr.Idx != col {
		return val, false
	}
	return cn.Val, true
}

// indexOfName finds the unique case-insensitive match of name in names.
func indexOfName(names []string, name string) int {
	found := -1
	for i, n := range names {
		if strings.EqualFold(n, name) {
			if found >= 0 {
				return -1
			}
			found = i
		}
	}
	return found
}

// RouteRow computes the segment of nseg that stores row of t: the one its
// key hashes to, -1 (every segment) for a replicated table, and the next one
// of t's round-robin cursor for a random table.
func RouteRow(t *catalog.Table, row types.Row, nseg int) int {
	switch t.Distribution {
	case catalog.DistHash:
		return types.Bucket(row.Hash(t.DistKeyCols), nseg)
	case catalog.DistReplicated:
		return -1 // every segment
	default:
		return int((t.RoundRobin.Add(1) - 1) % uint64(nseg))
	}
}
