package exec

import (
	"fmt"
	"io"

	"repro/internal/plan"
	"repro/internal/types"
)

// hashJoinCore is the hash join's build/probe state, including the
// Grace-style partitioned spill path: when the build side outgrows the spill
// budget, build rows are scattered by key hash into fanout partition files
// (the in-memory table is flushed first), probe rows follow into matching
// probe partitions, and after the probe input ends each partition pair is
// joined in turn — build partition loaded into a fresh table, probe partition
// replayed against it in batches through the same probeBatch. Rows with NULL
// keys never join and are resolved immediately in either mode.
type hashJoinCore struct {
	ctx   *Context
	node  *plan.HashJoin
	mem   opMem
	table map[uint64][]types.Row
	emit  joinEmit
	// keyExprs evaluate the probe-side keys once per batch into keyVecs.
	keyExprs []*plan.VecExpr
	keyVecs  []types.Vec

	spilled    bool
	draining   bool // the probe input has ended: replaying spilled partitions
	buildParts []*spillFile
	probeParts []*spillFile

	// Batch-build scratch (addBuildBatch), reused across batches.
	hashScratch []uint64
	rowScratch  []types.Row

	// Spilled-partition drain state.
	drainPart int
	curProbe  *spillFile
	replay    types.RowBatch // reused: the probe rows read back from curProbe
}

func newHashJoinCore(ctx *Context, node *plan.HashJoin) hashJoinCore {
	keyExprs := make([]*plan.VecExpr, len(node.LeftKeys))
	for i, k := range node.LeftKeys {
		keyExprs[i] = plan.CompileVec(k)
	}
	return hashJoinCore{
		ctx: ctx, node: node,
		mem:      opMem{ctx: ctx, stat: ctx.opStat(node)},
		table:    make(map[uint64][]types.Row),
		emit:     newJoinEmit(node.Schema().Len(), node.Left.Schema().Len(), node.Out),
		keyExprs: keyExprs, keyVecs: make([]types.Vec, len(keyExprs)),
	}
}

// addBuild folds one build-side row into the join state.
func (c *hashJoinCore) addBuild(row types.Row) error {
	h, ok, err := hashKeys(c.node.RightKeys, row)
	if err != nil {
		return err
	}
	if !ok {
		return nil // NULL keys never join
	}
	if c.spilled {
		return c.buildParts[h%uint64(len(c.buildParts))].writeRow(row)
	}
	okm, err := c.mem.grow(row.Size())
	if err != nil {
		return err
	}
	if !okm {
		if c.ctx.Spill.Enabled() && c.mem.charged >= spillChunk(c.ctx.Spill.Budget()) {
			if err := c.beginSpill(); err != nil {
				return err
			}
			return c.buildParts[h%uint64(len(c.buildParts))].writeRow(row)
		}
		// Below the spill-chunk floor (a starved budget or a single row
		// beyond all of it): keep building in memory for now.
		if err := c.mem.forceGrow(row.Size()); err != nil {
			return err
		}
	}
	c.table[h] = append(c.table[h], row)
	return nil
}

// addBuildBatch folds a whole build batch with one memory decision per batch
// instead of one per row — grow takes the slot mutex and a budget CAS, which
// the vectorized build must not pay per row. Once spilled, rows route to
// their partition files individually (no memory is charged on that path).
func (c *hashJoinCore) addBuildBatch(b *types.RowBatch) error {
	if c.spilled {
		for i, l := 0, b.Len(); i < l; i++ {
			if err := c.addBuild(b.Live(i)); err != nil {
				return err
			}
		}
		return nil
	}
	c.hashScratch = c.hashScratch[:0]
	c.rowScratch = c.rowScratch[:0]
	var total int64
	for i, l := 0, b.Len(); i < l; i++ {
		row := b.Live(i)
		h, ok, err := hashKeys(c.node.RightKeys, row)
		if err != nil {
			return err
		}
		if !ok {
			continue // NULL keys never join
		}
		c.hashScratch = append(c.hashScratch, h)
		c.rowScratch = append(c.rowScratch, row)
		total += row.Size()
	}
	if len(c.rowScratch) == 0 {
		return nil
	}
	okm, err := c.mem.grow(total)
	if err != nil {
		return err
	}
	if !okm {
		if c.ctx.Spill.Enabled() && c.mem.charged >= spillChunk(c.ctx.Spill.Budget()) {
			if err := c.beginSpill(); err != nil {
				return err
			}
			for i, row := range c.rowScratch {
				if err := c.buildParts[c.hashScratch[i]%uint64(len(c.buildParts))].writeRow(row); err != nil {
					return err
				}
			}
			return nil
		}
		if err := c.mem.forceGrow(total); err != nil {
			return err
		}
	}
	for i, row := range c.rowScratch {
		c.table[c.hashScratch[i]] = append(c.table[c.hashScratch[i]], row)
	}
	return nil
}

// beginSpill creates the partition files and flushes the in-memory table.
func (c *hashJoinCore) beginSpill() error {
	fanout := spillFanout(c.node.EstMemBytes, c.ctx.Spill.Budget())
	if err := c.mem.growFiles(2 * int64(fanout) * spillFileOverhead); err != nil {
		return err
	}
	c.buildParts = make([]*spillFile, fanout)
	c.probeParts = make([]*spillFile, fanout)
	for i := 0; i < fanout; i++ {
		// Park each file in its slot as soon as it exists: if the paired
		// create fails, closeCore still owns (and removes) this one.
		bf, err := c.ctx.Spill.newFile(c.ctx.SegID, fmt.Sprintf("seg%d-join-build%d", c.ctx.SegID, i))
		if err != nil {
			return err
		}
		bf.stat = c.mem.stat
		c.buildParts[i] = bf
		pf, err := c.ctx.Spill.newFile(c.ctx.SegID, fmt.Sprintf("seg%d-join-probe%d", c.ctx.SegID, i))
		if err != nil {
			return err
		}
		pf.stat = c.mem.stat
		c.probeParts[i] = pf
	}
	for h, bucket := range c.table {
		sf := c.buildParts[h%uint64(fanout)]
		for _, row := range bucket {
			if err := sf.writeRow(row); err != nil {
				return err
			}
		}
	}
	c.table = make(map[uint64][]types.Row)
	c.mem.freeAll()
	c.spilled = true
	c.ctx.Spill.noteSpill()
	return nil
}

// probeBatch joins one probe batch — a child batch, or probe rows replayed
// from a spilled partition — and returns the joined rows as a column batch
// (possibly empty). In memory, and against a loaded partition, every match
// and LEFT null extension becomes a pair for the emitter; while the spilled
// join is still consuming its probe input, rows are routed to their probe
// partition instead and surface later through replayBatch.
func (c *hashJoinCore) probeBatch(b *types.RowBatch) (out *types.RowBatch, err error) {
	for i, x := range c.keyExprs {
		if c.keyVecs[i], err = x.Eval(b); err != nil {
			return nil, err
		}
	}
	left := c.node.Kind == plan.JoinLeft
	for i, l := 0, b.Len(); i < l; i++ {
		at := b.Index(i)
		h, ok := c.probeHash(at)
		matched := false
		switch {
		case !ok: // NULL keys match nothing, in any partition
		case c.spilled && !c.draining:
			if err := c.probeParts[h%uint64(len(c.probeParts))].writeRow(c.emit.outer(b, at)); err != nil {
				return nil, err
			}
			continue
		default:
			if matched, err = c.match(b, at, h); err != nil {
				return nil, err
			}
		}
		if !matched && left {
			c.emit.add(at, nil)
		}
	}
	return c.emit.flush(b), nil
}

// probeHash hashes the probe keys of batch position at like hashKeys hashes
// a build row; ok is false when a key is NULL.
func (c *hashJoinCore) probeHash(at int) (h uint64, ok bool) {
	h = 1469598103934665603
	for i := range c.keyVecs {
		v := c.keyVecs[i].At(at)
		if v.IsNull() {
			return 0, false
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true
}

// match pairs probe position at with every build row of bucket h that joins
// with it, re-checking exact key equality (hash collisions) and the residual
// condition on the emitter's scratch row.
func (c *hashJoinCore) match(b *types.RowBatch, at int, h uint64) (matched bool, err error) {
candidates:
	for _, rrow := range c.table[h] {
		for k, rk := range c.node.RightKeys {
			rv, err := rk.Eval(rrow)
			if err != nil {
				return matched, err
			}
			if rv.IsNull() || types.Compare(c.keyVecs[k].At(at), rv) != 0 {
				continue candidates
			}
		}
		if c.node.Extra != nil {
			keep, err := plan.EvalBool(c.node.Extra, c.emit.combined(b, at, rrow))
			if err != nil {
				return matched, err
			}
			if !keep {
				continue
			}
		}
		matched = true
		c.emit.add(at, rrow)
	}
	return matched, nil
}

// replayBatch returns the next batch of probe rows of the spilled
// partitions, with the matching build partition loaded into a fresh
// in-memory table. io.EOF when every partition pair is joined, and at once
// when the join never spilled.
func (c *hashJoinCore) replayBatch(size int) (*types.RowBatch, error) {
	for {
		if c.curProbe == nil {
			if !c.spilled || c.drainPart >= len(c.buildParts) {
				return nil, io.EOF
			}
			if err := c.loadBuildPartition(c.drainPart); err != nil {
				return nil, err
			}
			c.curProbe = c.probeParts[c.drainPart]
			if err := c.curProbe.startRead(); err != nil {
				return nil, err
			}
		}
		if b, err := fillBatch(&c.replay, size, c.curProbe.readRow); err != io.EOF {
			return b, err
		}
		// Partition pair done: release its table and files.
		c.probeParts[c.drainPart].close()
		c.probeParts[c.drainPart] = nil
		c.table = make(map[uint64][]types.Row)
		c.mem.freeAll()
		c.curProbe = nil
		c.drainPart++
	}
}

// loadBuildPartition reads one build partition into the in-memory table. A
// partition is sized by the fanout to fit the budget; when key skew defeats
// that, the resource group is charged directly rather than re-partitioning
// (one level of Grace partitioning, as in the paper's executor).
func (c *hashJoinCore) loadBuildPartition(p int) error {
	sf := c.buildParts[p]
	c.buildParts[p] = nil
	if err := sf.startRead(); err != nil {
		return err
	}
	for {
		row, err := sf.readRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		h, ok, err := hashKeys(c.node.RightKeys, row)
		if err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		okm, err := c.mem.grow(row.Size())
		if err != nil {
			return err
		}
		if !okm {
			if err := c.mem.forceGrow(row.Size()); err != nil {
				return err
			}
		}
		c.table[h] = append(c.table[h], row)
	}
	sf.close()
	return nil
}

// closeCore releases memory and removes any remaining partition files.
func (c *hashJoinCore) closeCore() {
	c.mem.closeAll()
	for _, sf := range c.buildParts {
		if sf != nil {
			sf.close()
		}
	}
	for _, sf := range c.probeParts {
		if sf != nil {
			sf.close()
		}
	}
	c.buildParts, c.probeParts = nil, nil
	c.table = nil
}

func hashKeys(keys []plan.Expr, row types.Row) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, false, nil // NULL keys never join
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, true, nil
}

// joinPair is one output row of a join: outer batch position at beside a
// materialized inner row, or beside NULLs (a LEFT join's unmatched row).
type joinPair struct {
	at    int
	inner types.Row // nil = NULL-extended
}

// joinEmit is both joins' one way of producing output: the operator collects
// (outer position, inner row) pairs for the current outer batch, evaluating
// any non-key condition on the reused scratch row, and flush gathers the
// columns the plan above reads (plan's Out) into typed vectors reused across
// batches. Every other column of the emitted batch is the zero Vec and reads
// NULL at its offset.
type joinEmit struct {
	lw      int   // width of the outer side
	cols    []int // output offsets to gather
	pairs   []joinPair
	scratch types.Row // outer row then inner row
	filled  int       // outer position held by scratch[:lw]; -1 = none
	batch   types.ColBatch
	out     types.RowBatch
}

func newJoinEmit(width, lw int, out []int) joinEmit {
	if out == nil {
		out = make([]int, width)
		for c := range out {
			out[c] = c
		}
	}
	return joinEmit{lw: lw, cols: out, scratch: make(types.Row, width), filled: -1,
		batch: types.ColBatch{Vecs: make([]types.Vec, width)}}
}

func (e *joinEmit) add(at int, inner types.Row) {
	e.pairs = append(e.pairs, joinPair{at: at, inner: inner})
}

// outer loads position at of the outer batch into the scratch row's left
// half and returns that half; it is overwritten by the next call.
func (e *joinEmit) outer(b *types.RowBatch, at int) types.Row {
	if e.filled != at {
		if b.Cols != nil {
			b.Cols.RowInto(e.scratch[:e.lw], at)
		} else {
			copy(e.scratch[:e.lw], b.Rows[at])
		}
		e.filled = at
	}
	return e.scratch[:e.lw]
}

// combined returns the scratch row holding outer position at beside inner.
func (e *joinEmit) combined(b *types.RowBatch, at int, inner types.Row) types.Row {
	e.outer(b, at)
	copy(e.scratch[e.lw:], inner)
	return e.scratch
}

// flush turns the collected pairs, whose positions are b's, into the output
// batch, valid until the next flush, and forgets them.
func (e *joinEmit) flush(b *types.RowBatch) *types.RowBatch {
	for _, c := range e.cols {
		v := &e.batch.Vecs[c]
		v.Truncate()
		switch {
		case c >= e.lw:
			for _, p := range e.pairs {
				if p.inner == nil {
					v.Append(types.Null)
				} else {
					v.Append(p.inner[c-e.lw])
				}
			}
		case b.Cols != nil:
			src, lo := &b.Cols.Vecs[c], b.Cols.Lo
			for _, p := range e.pairs {
				v.Append(src.At(lo + p.at))
			}
		default:
			for _, p := range e.pairs {
				v.Append(b.Rows[p.at][c])
			}
		}
	}
	e.batch.N = len(e.pairs)
	e.out = types.RowBatch{Cols: &e.batch}
	e.pairs, e.filled = e.pairs[:0], -1
	return &e.out
}

// batchNestLoopIter materializes (prefetches) the inner side and rescans it
// per outer row — the same deadlock-safe order as hash join. Output is cut
// at the batch size, so the position in the outer batch and the inner rows
// carries over between calls; the outer batch's container stays valid
// because the next one is only pulled once this one is used up.
type batchNestLoopIter struct {
	ctx         *Context
	node        *plan.NestLoop
	left, right BatchIterator
	inner       []types.Row
	bytes       int64
	built       bool
	outer       *types.RowBatch
	opos, ipos  int  // next outer row of the batch, next inner row for it
	matched     bool // the current outer row has joined
	tick        cpuTick
	emit        joinEmit
	size        int
}

func newBatchNestLoopIter(ctx *Context, node *plan.NestLoop, left, right BatchIterator) *batchNestLoopIter {
	return &batchNestLoopIter{ctx: ctx, node: node, left: left, right: right, tick: cpuTick{ctx: ctx},
		emit: newJoinEmit(node.Schema().Len(), node.Left.Schema().Len(), node.Out), size: ctx.batchSize()}
}

func (j *batchNestLoopIter) build() error {
	for {
		b, err := j.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for i, l := 0, b.Len(); i < l; i++ {
			row := b.Live(i)
			if err := j.ctx.grow(row.Size()); err != nil {
				return err
			}
			j.bytes += row.Size()
			j.inner = append(j.inner, row)
		}
	}
	j.built = true
	return nil
}

func (j *batchNestLoopIter) NextBatch() (*types.RowBatch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for len(j.emit.pairs) < j.size {
		if j.outer == nil || j.opos >= j.outer.Len() {
			if len(j.emit.pairs) > 0 {
				break // hand up what this outer batch produced first
			}
			b, err := j.left.NextBatch()
			if err != nil {
				return nil, err
			}
			j.outer, j.opos, j.emit.filled = b, 0, -1
		}
		at := j.outer.Index(j.opos)
		for j.ipos < len(j.inner) && len(j.emit.pairs) < j.size {
			inner := j.inner[j.ipos]
			j.ipos++
			if err := j.tick.tick(); err != nil {
				return nil, err
			}
			keep := j.node.Cond == nil
			if !keep {
				var err error
				if keep, err = plan.EvalBool(j.node.Cond, j.emit.combined(j.outer, at, inner)); err != nil {
					return nil, err
				}
			}
			if keep {
				j.matched = true
				j.emit.add(at, inner)
			}
		}
		if j.ipos < len(j.inner) {
			break // batch full mid-rescan; resume at ipos
		}
		if !j.matched && j.node.Kind == plan.JoinLeft {
			j.emit.add(at, nil)
		}
		j.opos, j.ipos, j.matched = j.opos+1, 0, false
	}
	return j.emit.flush(j.outer), nil
}

func (j *batchNestLoopIter) Close() {
	j.ctx.shrink(j.bytes)
	j.inner = nil
	j.left.Close()
	j.right.Close()
}
