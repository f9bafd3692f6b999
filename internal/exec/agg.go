package exec

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/plan"
	"repro/internal/types"
)

// aggState is one aggregate's transition state for one group.
type aggState struct {
	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	min, max types.Datum
	seen     map[uint64]struct{} // DISTINCT dedup
	any      bool
}

// add folds one argument value into the state; only min and max pay for a
// comparison.
func (st *aggState) add(v types.Datum, spec *plan.AggSpec) {
	if v.IsNull() {
		return
	}
	if spec.Distinct {
		if st.seen == nil {
			st.seen = make(map[uint64]struct{})
		}
		h := v.Hash()
		if _, dup := st.seen[h]; dup {
			return
		}
		st.seen[h] = struct{}{}
	}
	st.count++
	if v.Kind() == types.KindFloat {
		st.isFloat = true
	}
	st.sumInt += v.Int()
	st.sumFloat += v.Float()
	switch {
	case spec.Func == plan.AggMin && (!st.any || types.Compare(v, st.min) < 0):
		st.min = v
	case spec.Func == plan.AggMax && (!st.any || types.Compare(v, st.max) > 0):
		st.max = v
	}
	st.any = true
}

func (st *aggState) sumDatum() types.Datum {
	if !st.any {
		return types.Null
	}
	if st.isFloat {
		return types.NewFloat(st.sumFloat)
	}
	return types.NewInt(st.sumInt)
}

// group is one hash-agg bucket.
type group struct {
	keys   types.Row
	states []aggState
}

// aggCore is the phase-aware hash aggregation state behind batchAggIter:
// input rows are absorbed, grouped output is read via nextOutput after
// finish.
//
// Under a spill budget the core degrades gracefully: when the hash table
// outgrows the budget, every group's transition state is written as a
// partial-layout row to one of fanout partition files (by group-key hash) and
// the table is cleared. After input ends, partitions are re-aggregated one at
// a time — mergePartial folds the dumped states back together — so the
// working set is bounded by max(budget, one partition) instead of the number
// of distinct groups. DISTINCT aggregates pin their dedup sets in memory and
// cannot spill.
type aggCore struct {
	ctx    *Context
	node   *plan.Agg
	groups map[uint64][]*group
	order  []*group
	mem    opMem
	// groupCols and scratch avoid per-row allocations on the hot absorb
	// path: group keys are assembled in the reused scratch row, which
	// findGroup only clones when it creates a new group.
	groupCols []int
	scratch   types.Row
	// keyExprs/argExprs evaluate the group keys and aggregate arguments
	// (nil = count(*)) a batch at a time into keyVecs/argVecs.
	keyExprs, argExprs []*plan.VecExpr
	keyVecs, argVecs   []types.Vec

	// Spill state.
	spillable bool // spilling enabled and every spec is mergeable
	spilled   bool
	reloading bool // re-aggregating a partition; never re-spill
	parts     []*spillFile
	curPart   int
	emitPos   int
	// reloadTick charges CPU for the second pass over dumped rows, so the
	// disk-replay half of a spilled aggregate stays under the group's CPU
	// governor like the absorb pass.
	reloadTick cpuTick
}

func newAggCore(ctx *Context, node *plan.Agg) aggCore {
	cols := make([]int, len(node.GroupBy))
	for i := range cols {
		cols[i] = i
	}
	spillable := ctx.Spill.Enabled()
	for _, sp := range node.Specs {
		if sp.Distinct {
			spillable = false // dedup sets are not mergeable across dumps
		}
	}
	keyExprs := make([]*plan.VecExpr, len(node.GroupBy))
	for i, g := range node.GroupBy {
		keyExprs[i] = plan.CompileVec(g)
	}
	argExprs := make([]*plan.VecExpr, len(node.Specs))
	for i, sp := range node.Specs {
		if sp.Arg != nil {
			argExprs[i] = plan.CompileVec(sp.Arg)
		}
	}
	return aggCore{
		ctx: ctx, node: node,
		keyExprs: keyExprs, keyVecs: make([]types.Vec, len(keyExprs)),
		argExprs: argExprs, argVecs: make([]types.Vec, len(argExprs)),
		mem:        opMem{ctx: ctx, stat: ctx.opStat(node)},
		groups:     make(map[uint64][]*group),
		groupCols:  cols,
		scratch:    make(types.Row, len(node.GroupBy)),
		spillable:  spillable,
		reloadTick: cpuTick{ctx: ctx},
	}
}

func (a *aggCore) findGroup(keys types.Row) (*group, error) {
	h := keys.Hash(a.groupCols[:len(keys)])
	for _, g := range a.groups[h] {
		if g.keys.Equal(keys) {
			return g, nil
		}
	}
	cost := keys.Size() + int64(64*len(a.node.Specs))
	ok, err := a.mem.grow(cost)
	if err != nil {
		return nil, err
	}
	if !ok {
		if a.spillable && !a.reloading && a.mem.charged >= spillChunk(a.ctx.Spill.Budget()) {
			if err := a.dumpGroups(); err != nil {
				return nil, err
			}
			ok, err = a.mem.grow(cost)
			if err != nil {
				return nil, err
			}
		}
		if !ok {
			// Spilling cannot help (DISTINCT, a skewed partition reload, a
			// table still below the spill-chunk floor): charge the resource
			// group directly.
			if err := a.mem.forceGrow(cost); err != nil {
				return nil, err
			}
		}
	}
	g := &group{keys: keys.Clone(), states: make([]aggState, len(a.node.Specs))}
	a.groups[h] = append(a.groups[h], g)
	a.order = append(a.order, g)
	return g, nil
}

// dumpGroups flushes every in-memory group's transition state as a
// partial-layout row to its hash partition file and clears the table.
func (a *aggCore) dumpGroups() error {
	if a.parts == nil {
		fanout := spillFanout(a.node.EstMemBytes, a.ctx.Spill.Budget())
		if err := a.mem.growFiles(int64(fanout) * spillFileOverhead); err != nil {
			return err
		}
		a.parts = make([]*spillFile, fanout)
		for i := range a.parts {
			sf, err := a.ctx.Spill.newFile(a.ctx.SegID, fmt.Sprintf("seg%d-agg-part%d", a.ctx.SegID, i))
			if err != nil {
				return err
			}
			sf.stat = a.mem.stat
			a.parts[i] = sf
		}
	}
	fanout := uint64(len(a.parts))
	for h, bucket := range a.groups {
		sf := a.parts[h%fanout]
		for _, g := range bucket {
			if err := sf.writeRow(a.emitTransition(g)); err != nil {
				return err
			}
		}
	}
	a.groups = make(map[uint64][]*group)
	a.order = nil
	a.mem.freeAll()
	a.spilled = true
	a.ctx.Spill.noteSpill()
	return nil
}

// sortGroups fixes the deterministic (by group key) output order of the
// in-memory groups.
func (a *aggCore) sortGroups() {
	sort.SliceStable(a.order, func(i, j int) bool {
		ki, kj := a.order[i].keys, a.order[j].keys
		for c := range ki {
			if cmp := types.Compare(ki[c], kj[c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

// loadPartition re-aggregates one spilled partition into a fresh in-memory
// table: the dumped rows are the partial layout, so mergePartial folds states
// of the same group (possibly dumped several times) back together exactly.
func (a *aggCore) loadPartition(sf *spillFile) error {
	a.groups = make(map[uint64][]*group)
	a.order = nil
	a.emitPos = 0
	a.mem.freeAll()
	a.reloading = true
	defer func() { a.reloading = false }()
	if err := sf.startRead(); err != nil {
		return err
	}
	nkeys := len(a.node.GroupBy)
	for {
		row, err := sf.readRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := a.reloadTick.tick(); err != nil {
			return err
		}
		grp, err := a.findGroup(row[:nkeys])
		if err != nil {
			return err
		}
		if err := a.mergePartial(grp, row); err != nil {
			return err
		}
	}
	sf.close()
	a.sortGroups()
	return nil
}

// nextOutput returns the next output row after finish: the sorted in-memory
// groups, then — when the aggregate spilled — each partition re-aggregated
// and emitted in turn (sorted by key within a partition). io.EOF at the end.
func (a *aggCore) nextOutput() (types.Row, error) {
	for {
		if a.emitPos < len(a.order) {
			g := a.order[a.emitPos]
			a.emitPos++
			return a.emit(g), nil
		}
		if !a.spilled || a.curPart >= len(a.parts) {
			return nil, io.EOF
		}
		sf := a.parts[a.curPart]
		a.parts[a.curPart] = nil // loadPartition closes (removes) it
		a.curPart++
		if err := a.loadPartition(sf); err != nil {
			return nil, err
		}
	}
}

// absorb folds one batch into the groups. Each group key — and, in the
// phases that aggregate raw input, each aggregate argument — is evaluated
// once over the batch into a vector; the loop below then reads values by
// position, whatever the batch's layout. The merging phases read the partial
// layout off the row instead. The key row is assembled in the reused scratch
// buffer; findGroup clones it if the group is new.
func (a *aggCore) absorb(b *types.RowBatch) (err error) {
	merge := a.node.Phase == plan.AggFinal || a.node.Phase == plan.AggIntermediate
	for i, x := range a.keyExprs {
		if a.keyVecs[i], err = x.Eval(b); err != nil {
			return err
		}
	}
	for i, x := range a.argExprs {
		if x == nil || merge {
			continue
		}
		if a.argVecs[i], err = x.Eval(b); err != nil {
			return err
		}
	}
	keys, specs := a.scratch, a.node.Specs
	for ri, l := 0, b.Len(); ri < l; ri++ {
		at := b.Index(ri)
		for i := range keys {
			keys[i] = a.keyVecs[i].At(at)
		}
		grp, err := a.findGroup(keys)
		if err != nil {
			return err
		}
		if merge {
			if err := a.mergePartial(grp, b.Live(ri)); err != nil {
				return err
			}
			continue
		}
		for i := range specs {
			st := &grp.states[i]
			if a.argExprs[i] == nil { // count(*)
				st.count++
				st.any = true
				continue
			}
			st.add(a.argVecs[i].At(at), &specs[i])
		}
	}
	return nil
}

// finish handles empty-input scalar aggregates and fixes the output order.
func (a *aggCore) finish(sawRow bool) error {
	// Scalar aggregate over an empty input still yields one row; a partial
	// scalar agg also emits its (empty) transition row so the final phase
	// can produce count=0 / sum=NULL.
	if !sawRow && len(a.node.GroupBy) == 0 && len(a.node.Specs) > 0 {
		if _, err := a.findGroup(types.Row{}); err != nil {
			return err
		}
	}
	if a.spilled {
		// Route the stragglers through their partitions too, so every group
		// is re-aggregated (its state may be split across dumps).
		if len(a.order) > 0 {
			if err := a.dumpGroups(); err != nil {
				return err
			}
		}
		return nil
	}
	// Deterministic output order (by group key) helps tests; cheap at the
	// row counts produced by aggregation.
	a.sortGroups()
	return nil
}

func (a *aggCore) close() {
	a.mem.closeAll()
	for _, sf := range a.parts {
		if sf != nil {
			sf.close()
		}
	}
	a.parts = nil
	a.groups = nil
	a.order = nil
}

// mergePartial folds one partial-layout row into the group (final phase).
// Partial layout: group cols, then per spec: avg → (sum, count); others →
// single column.
func (a *aggCore) mergePartial(grp *group, row types.Row) error {
	col := len(a.node.GroupBy)
	for i, spec := range a.node.Specs {
		st := &grp.states[i]
		switch spec.Func {
		case plan.AggAvg:
			sum, cnt := row[col], row[col+1]
			col += 2
			if !cnt.IsNull() && cnt.Int() > 0 {
				st.count += cnt.Int()
				st.sumFloat += sum.Float()
				st.isFloat = true
				st.any = true
			}
		case plan.AggCount:
			v := row[col]
			col++
			if !v.IsNull() {
				st.count += v.Int()
				st.any = true
			}
		case plan.AggSum:
			v := row[col]
			col++
			if !v.IsNull() {
				if v.Kind() == types.KindFloat {
					st.isFloat = true
				}
				st.sumInt += v.Int()
				st.sumFloat += v.Float()
				st.any = true
				st.count++
			}
		case plan.AggMin:
			v := row[col]
			col++
			if !v.IsNull() {
				if !st.any || types.Compare(v, st.min) < 0 {
					st.min = v
				}
				st.any = true
			}
		case plan.AggMax:
			v := row[col]
			col++
			if !v.IsNull() {
				if !st.any || types.Compare(v, st.max) > 0 {
					st.max = v
				}
				st.any = true
			}
		default:
			return fmt.Errorf("exec: unknown aggregate %v", spec.Func)
		}
	}
	return nil
}

// emitTransition renders the group in the partial (transition-state) layout:
// group keys, then per spec avg → (sum, count), others → one column. It is
// both what partial/intermediate phases send upstream and what spilled
// aggregates write to partition files (mergePartial reads it back).
func (a *aggCore) emitTransition(grp *group) types.Row {
	out := make(types.Row, 0, len(grp.keys)+len(a.node.Specs)+1)
	out = append(out, grp.keys...)
	for i, spec := range a.node.Specs {
		st := &grp.states[i]
		switch spec.Func {
		case plan.AggAvg:
			if st.any {
				out = append(out, types.NewFloat(st.sumFloat), types.NewInt(st.count))
			} else {
				out = append(out, types.Null, types.NewInt(0))
			}
		case plan.AggCount:
			out = append(out, types.NewInt(st.count))
		case plan.AggSum:
			out = append(out, st.sumDatum())
		case plan.AggMin:
			if st.any {
				out = append(out, st.min)
			} else {
				out = append(out, types.Null)
			}
		case plan.AggMax:
			if st.any {
				out = append(out, st.max)
			} else {
				out = append(out, types.Null)
			}
		}
	}
	return out
}

func (a *aggCore) emit(grp *group) types.Row {
	if a.node.Phase == plan.AggPartial || a.node.Phase == plan.AggIntermediate {
		return a.emitTransition(grp)
	}
	out := make(types.Row, 0, a.node.Schema().Len())
	out = append(out, grp.keys...)
	for i, spec := range a.node.Specs {
		st := &grp.states[i]
		switch spec.Func {
		case plan.AggCount:
			out = append(out, types.NewInt(st.count))
		case plan.AggSum:
			out = append(out, st.sumDatum())
		case plan.AggAvg:
			if st.count == 0 {
				out = append(out, types.Null)
			} else {
				out = append(out, types.NewFloat(st.sumFloat/float64(st.count)))
			}
		case plan.AggMin:
			if st.any {
				out = append(out, st.min)
			} else {
				out = append(out, types.Null)
			}
		case plan.AggMax:
			if st.any {
				out = append(out, st.max)
			} else {
				out = append(out, types.Null)
			}
		}
	}
	return out
}
