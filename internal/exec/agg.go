package exec

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/plan"
	"repro/internal/types"
)

// aggState is one aggregate's transition state for one group: how many
// values it took, their sums, and the extreme a min or max keeps (NULL until
// a value arrives).
type aggState struct {
	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	ext      types.Datum
	seen     map[uint64][]types.Datum // DISTINCT dedup: the values taken, by key hash
}

// better reports whether a value comparing c to the kept extreme replaces it.
func better(fn plan.AggFunc, c int) bool {
	return fn == plan.AggMin && c < 0 || fn == plan.AggMax && c > 0
}

// add folds one argument value into the state: the kernel for boxed values,
// DISTINCT, and the sums, minima and maxima of the partial layout.
func (st *aggState) add(v types.Datum, spec *plan.AggSpec) {
	if v.IsNull() {
		return
	}
	if spec.Distinct {
		if st.seen == nil {
			st.seen = make(map[uint64][]types.Datum)
		}
		h := v.Hash()
		for _, s := range st.seen[h] {
			if types.Compare(s, v) == 0 {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
	}
	if (spec.Func == plan.AggMin || spec.Func == plan.AggMax) && (st.count == 0 || better(spec.Func, types.Compare(v, st.ext))) {
		st.ext = v
	}
	st.count++
	st.isFloat = st.isFloat || v.Kind() == types.KindFloat
	st.sumInt += v.Int()
	st.sumFloat += v.Float()
}

// addExt folds the non-NULL value at position at of an Ints or Floats vector
// into a min or max without boxing it: compared by payload while the kept
// extreme has the vector's kind — exactly Compare's < and >, NaN included —
// and by Compare otherwise.
func (st *aggState) addExt(v *types.Vec, at int, fn plan.AggFunc) {
	c := 0
	switch {
	case st.count == 0 || st.ext.Kind() != v.Kind:
		c = types.Compare(v.At(at), st.ext)
	case v.Ints != nil:
		c = cmp.Compare(v.Ints[at], st.ext.Int())
	case v.Floats[at] < st.ext.Float():
		c = -1
	case v.Floats[at] > st.ext.Float():
		c = 1
	}
	if st.count == 0 || better(fn, c) {
		st.ext = v.At(at)
	}
}

// slot is a group table entry: a key's tag, its group id + 1 (0 = empty).
type slot struct {
	tag uint64
	g   int32
}

// aggCore is the phase-aware hash aggregation state behind batchAggIter:
// input batches are absorbed, grouped output is read via nextOutput after
// finish.
//
// The group table gives a batch's rows their group ids by probing open
// addressing with a tag per row. While the one group key has arrived as an
// Ints vector (int, date or bool) in every batch, the tag is the value times
// fib and needs no check (NULL's, nullTag, does). Any other key — text,
// float, several keys, boxed, none — is tagged per batch with its key hash,
// and a tag match is checked against the key. Either way a tag's slot is its
// high bits. A batch that does not fit the int form re-keys the table into
// the general form once, so a group never splits across forms.
//
// Under a spill budget the core degrades gracefully: when the table outgrows
// the budget, every group's transition state is written as a partial-layout
// row to one of fanout partition files (spillPart of the group key's hash)
// and the table is cleared. After input ends, partitions are re-aggregated one at a
// time — their rows merged back like a final phase's input — so the working
// set is bounded by max(budget, one partition) instead of the number of
// distinct groups. DISTINCT aggregates pin their dedup sets in memory and
// cannot spill.
type aggCore struct {
	ctx    *Context
	node   *plan.Agg
	nk, ns int
	// Group g's key is keys[g*nk:(g+1)*nk] and its states
	// states[g*ns:(g+1)*ns]; order lists the ids, by key after sortGroups.
	keys   []types.Datum
	states []aggState
	order  []int32
	slots  []slot // a power of two long, at most half full
	shift  uint   // 64 - log2(len(slots))
	ints   bool   // the int form
	gids   []int32
	tags   []uint64
	mem    opMem
	// keyExprs/argExprs evaluate the group keys and aggregate arguments
	// (nil = count(*)) a batch at a time into keyVecs/argVecs; mergeKeys
	// read the keys of a reloaded partition's partial layout.
	keyExprs, argExprs, mergeKeys []*plan.VecExpr
	keyVecs, argVecs              []types.Vec

	// Spill state.
	spillable bool // spilling enabled and every spec is mergeable
	spilled   bool
	reloading bool // re-aggregating a partition; never re-spill
	parts     []*spillFile
	curPart   int
	emitPos   int
	reload    types.RowBatch
}

func newAggCore(ctx *Context, node *plan.Agg) aggCore {
	nk := len(node.GroupBy)
	a := aggCore{ctx: ctx, node: node, nk: nk, ns: len(node.Specs), ints: nk == 1,
		keyExprs: make([]*plan.VecExpr, nk), mergeKeys: make([]*plan.VecExpr, nk), keyVecs: make([]types.Vec, nk),
		argExprs: make([]*plan.VecExpr, len(node.Specs)), argVecs: make([]types.Vec, len(node.Specs)),
		mem: opMem{ctx: ctx, stat: ctx.opStat(node)}, spillable: ctx.Spill.Enabled()}
	for i, g := range node.GroupBy {
		a.keyExprs[i], a.mergeKeys[i] = plan.CompileVec(g), plan.CompileVec(&plan.ColRef{Idx: i})
	}
	for i, sp := range node.Specs {
		a.spillable = a.spillable && !sp.Distinct // dedup sets are not mergeable across dumps
		if sp.Arg != nil {
			a.argExprs[i] = plan.CompileVec(sp.Arg)
		}
	}
	a.rehash(16, false)
	return a
}

func (a *aggCore) key(g int32) types.Row { return a.keys[int(g)*a.nk : int(g+1)*a.nk] }

// The int form's tags: the value times fib (distinct values, distinct tags)
// and one constant for NULL.
const nullTag, fib = 0x6e756c6c, 0x9e3779b97f4a7c15

// sameKey reports whether group g's key equals the key vectors' values at
// position at, comparing typed payloads directly where the kinds allow.
func (a *aggCore) sameKey(g int32, at int) bool {
	for c := range a.keyVecs {
		same, d, v := false, &a.keys[int(g)*a.nk+c], &a.keyVecs[c]
		switch {
		case v.Null(at):
			same = d.IsNull()
		case v.Strs != nil && d.Kind() == types.KindText:
			same = d.Text() == v.Strs[at]
		case v.Ints != nil && d.Kind() == v.Kind:
			same = d.Int() == v.Ints[at]
		default:
			same = types.Compare(*d, v.At(at)) == 0
		}
		if !same {
			return false
		}
	}
	return true
}

// rehash rebuilds the slots n long; rekey moves the table to the general
// form, re-hashing every group's key.
func (a *aggCore) rehash(n int, rekey bool) {
	old := a.slots
	a.slots, a.shift = make([]slot, n), uint(64-bits.TrailingZeros(uint(n)))
	a.ints = a.ints && !rekey
	for _, s := range old {
		if s.g == 0 {
			continue
		}
		if rekey {
			s.tag = a.key(s.g - 1).HashKey()
		}
		i := int(s.tag >> a.shift)
		for a.slots[i].g != 0 {
			i = (i + 1) & (n - 1)
		}
		a.slots[i] = s
	}
}

// assign sets gids for the batch's live rows from lo on, creating groups. It
// stops early (dump) at a row whose new group needs the table dumped first.
func (a *aggCore) assign(b *types.RowBatch, lo int) (hi int, dump bool, err error) {
	prevTag, prev := uint64(0), int32(-1)
	for r := lo; r < len(a.gids); r++ {
		at, tag := b.Index(r), uint64(nullTag)
		if !a.ints {
			tag = a.tags[r]
		} else if v := &a.keyVecs[0]; !v.Null(at) {
			tag = uint64(v.Ints[at]) * fib
		}
		exact := a.ints && tag != nullTag
		if prev < 0 || tag != prevTag || !exact && !a.sameKey(prev, at) {
			i, mask := int(tag>>a.shift), len(a.slots)-1
			for ; a.slots[i].g != 0; i = (i + 1) & mask {
				if s := a.slots[i]; s.tag == tag && (exact || a.sameKey(s.g-1, at)) {
					break
				}
			}
			if prev = a.slots[i].g - 1; prev < 0 {
				if prev, dump, err = a.newGroup(at); dump || err != nil {
					return r, dump, err
				}
				a.slots[i] = slot{tag, prev + 1}
				if 2*len(a.order) > len(a.slots) {
					a.rehash(2*len(a.slots), false)
				}
			}
			prevTag = tag
		}
		a.gids[r] = prev
	}
	return len(a.gids), false, nil
}

// newGroup charges and appends a group keyed by the values at position at;
// dump asks the caller to spill the table and retry.
func (a *aggCore) newGroup(at int) (g int32, dump bool, err error) {
	n := len(a.keys)
	for c := range a.keyVecs {
		a.keys = append(a.keys, a.keyVecs[c].At(at))
	}
	cost := types.Row(a.keys[n:]).Size() + int64(64*a.ns)
	ok, err := a.mem.grow(cost)
	if err == nil && !ok {
		if a.spillable && !a.reloading && a.mem.charged >= spillChunk(a.ctx.Spill.Budget()) {
			dump = true
		} else {
			// Spilling cannot help (DISTINCT, a skewed partition reload, a
			// table still below the spill-chunk floor): charge the resource
			// group directly.
			err = a.mem.forceGrow(cost)
		}
	}
	if dump || err != nil {
		a.keys = a.keys[:n]
		return 0, dump, err
	}
	g = int32(len(a.order))
	a.states = append(a.states, make([]aggState, a.ns)...)
	a.order = append(a.order, g)
	return g, false, nil
}

// reset empties the group table, keeping its buffers.
func (a *aggCore) reset() {
	a.keys, a.states, a.order = a.keys[:0], a.states[:0], a.order[:0]
	clear(a.slots)
	a.mem.freeAll()
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
	for _, g := range a.order {
		sf := a.parts[spillPart(a.key(g).HashKey(), len(a.parts))]
		if err := sf.writeRow(a.emit(g, true)); err != nil {
			return err
		}
	}
	a.reset()
	a.spilled = true
	a.ctx.Spill.noteSpill()
	return nil
}

// sortGroups fixes the deterministic (by group key) output order of the
// in-memory groups.
func (a *aggCore) sortGroups() {
	sort.SliceStable(a.order, func(i, j int) bool {
		ki, kj := a.key(a.order[i]), a.key(a.order[j])
		for c := range ki {
			if d := types.Compare(ki[c], kj[c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
}

// loadPartition re-aggregates one spilled partition into the emptied table:
// the dumped rows are the partial layout, so mergePartial folds states of the
// same group (possibly dumped several times) back together exactly.
func (a *aggCore) loadPartition(sf *spillFile) error {
	a.reset()
	a.emitPos = 0
	a.reloading = true
	defer func() { a.reloading = false }()
	if err := sf.startRead(); err != nil {
		return err
	}
	for {
		b, err := fillBatch(&a.reload, a.ctx.batchSize(), sf.readRow)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := a.absorb(b); err != nil {
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
			return a.emit(g, a.node.Phase == plan.AggPartial), nil
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

// absorb folds one batch into the groups: each group key and aggregate
// argument is evaluated once into a vector, the live rows are assigned
// their groups, and each aggregate folds them into its states. The final
// phase, and a reloaded partition, read the partial layout off the row.
func (a *aggCore) absorb(b *types.RowBatch) (err error) {
	merge, keyExprs := a.reloading || a.node.Phase == plan.AggFinal, a.keyExprs
	if a.reloading {
		keyExprs = a.mergeKeys
	}
	for i, x := range keyExprs {
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
	a.gids = slices.Grow(a.gids[:0], b.Len())[:b.Len()]
	if a.ints && a.keyVecs[0].Ints == nil {
		a.rehash(len(a.slots), true)
	}
	if !a.ints {
		a.tags = slices.Grow(a.tags[:0], len(a.gids))[:len(a.gids)]
		types.HashBatch(a.tags, a.keyVecs, b)
	}
	for lo := 0; lo < len(a.gids); {
		hi, dump, err := a.assign(b, lo)
		if err != nil {
			return err
		}
		for r := lo; r < hi && merge; r++ {
			a.mergePartial(a.gids[r], b.Live(r))
		}
		for i := 0; i < a.ns && !merge; i++ {
			sp, v, states, gids := &a.node.Specs[i], &a.argVecs[i], a.states[i:], a.gids[lo:hi]
			switch {
			case a.argExprs[i] == nil: // count(*)
				for _, g := range gids {
					states[int(g)*a.ns].count++
				}
			case sp.Distinct || v.Ints == nil && v.Floats == nil:
				for r, g := range gids {
					states[int(g)*a.ns].add(v.At(b.Index(lo+r)), sp)
				}
			default: // add's count and sums, typed
				ext, isInt := sp.Func == plan.AggMin || sp.Func == plan.AggMax, v.Kind == types.KindInt
				for r, g := range gids {
					at, st := b.Index(lo+r), &states[int(g)*a.ns]
					switch {
					case v.Null(at):
						continue
					case ext:
						st.addExt(v, at, sp.Func)
					case v.Ints != nil:
						st.sumInt += v.Ints[at]
						if isInt {
							st.sumFloat += float64(v.Ints[at])
						}
					default:
						st.isFloat, st.sumFloat = true, st.sumFloat+v.Floats[at]
					}
					st.count++
				}
			}
		}
		if dump {
			if err := a.dumpGroups(); err != nil {
				return err
			}
		}
		lo = hi
	}
	return nil
}

// finish handles empty-input scalar aggregates and fixes the output order.
func (a *aggCore) finish(sawRow bool) error {
	// Scalar aggregate over an empty input still yields one row; a partial
	// scalar agg also emits its (empty) transition row so the final phase
	// can produce count=0 / sum=NULL.
	if !sawRow && a.nk == 0 && a.ns > 0 {
		if _, _, err := a.newGroup(0); err != nil {
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
	a.keys, a.states, a.order, a.slots = nil, nil, nil, nil
}

// mergePartial folds one partial-layout row — group keys, then per spec avg
// → (sum, count), others → one column — into group g.
func (a *aggCore) mergePartial(g int32, row types.Row) {
	col := a.nk
	for i := range a.node.Specs {
		sp, st, v := &a.node.Specs[i], &a.states[int(g)*a.ns+i], row[col]
		col++
		switch sp.Func {
		case plan.AggAvg:
			if n := row[col].Int(); n > 0 {
				st.count += n
				st.sumFloat += v.Float()
				st.isFloat = true
			}
			col++
		case plan.AggCount:
			st.count += v.Int()
		default:
			st.add(v, sp)
		}
	}
}

// emit renders group g as final values or, when trans is set, in the partial
// layout that partial phases send upstream and spilled aggregates write.
func (a *aggCore) emit(g int32, trans bool) types.Row {
	out := make(types.Row, 0, a.node.Schema().Len())
	out = append(out, a.key(g)...)
	for i, sp := range a.node.Specs {
		st := &a.states[int(g)*a.ns+i]
		switch sum := sp.Func == plan.AggSum; {
		case sp.Func == plan.AggCount:
			out = append(out, types.NewInt(st.count))
		case sp.Func == plan.AggMin || sp.Func == plan.AggMax:
			out = append(out, st.ext)
		case st.count == 0 && trans && !sum:
			out = append(out, types.Null, types.NewInt(0))
		case st.count == 0:
			out = append(out, types.Null)
		case sum && st.isFloat:
			out = append(out, types.NewFloat(st.sumFloat))
		case sum:
			out = append(out, types.NewInt(st.sumInt))
		case trans:
			out = append(out, types.NewFloat(st.sumFloat), types.NewInt(st.count))
		default:
			out = append(out, types.NewFloat(st.sumFloat/float64(st.count)))
		}
	}
	return out
}
