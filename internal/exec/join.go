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
// streamed against it. Rows with NULL keys never join and are resolved
// immediately in either mode.
type hashJoinCore struct {
	ctx    *Context
	node   *plan.HashJoin
	mem    opMem
	table  map[uint64][]types.Row
	rwidth int

	spilled    bool
	buildParts []*spillFile
	probeParts []*spillFile

	// Batch-build scratch (addBuildBatch), reused across batches.
	hashScratch []uint64
	rowScratch  []types.Row

	// Spilled-partition drain state.
	drainPart int
	curProbe  *spillFile
	pending   []types.Row
}

func newHashJoinCore(ctx *Context, node *plan.HashJoin) hashJoinCore {
	return hashJoinCore{
		ctx: ctx, node: node,
		mem:    opMem{ctx: ctx, stat: ctx.opStat(node)},
		table:  make(map[uint64][]types.Row),
		rwidth: node.Right.Schema().Len(),
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

// probeRow handles one probe-side row. In memory it emits matches (and the
// left-join null extension) immediately; once spilled, rows are buffered to
// their probe partition and the matches surface later via drainNext.
func (c *hashJoinCore) probeRow(probe types.Row, emit func(types.Row)) error {
	if !c.spilled {
		matched, err := probeHashTable(c.node, c.table, probe, emit)
		if err != nil {
			return err
		}
		if !matched && c.node.Kind == plan.JoinLeft {
			emit(nullExtend(probe, c.rwidth))
		}
		return nil
	}
	h, ok, err := hashKeys(c.node.LeftKeys, probe)
	if err != nil {
		return err
	}
	if !ok {
		// NULL keys match nothing in any partition; resolve now.
		if c.node.Kind == plan.JoinLeft {
			emit(nullExtend(probe, c.rwidth))
		}
		return nil
	}
	return c.probeParts[h%uint64(len(c.probeParts))].writeRow(probe)
}

// drainNext returns the next output row of the spilled partitions, loading
// each build partition into a fresh in-memory table and streaming its probe
// partition against it. io.EOF when every partition is joined. When the join
// never spilled there is nothing to drain.
func (c *hashJoinCore) drainNext() (types.Row, error) {
	for {
		if len(c.pending) > 0 {
			row := c.pending[0]
			c.pending = c.pending[1:]
			return row, nil
		}
		if !c.spilled {
			return nil, io.EOF
		}
		if c.curProbe == nil {
			if c.drainPart >= len(c.buildParts) {
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
		probe, err := c.curProbe.readRow()
		if err == io.EOF {
			// Partition pair done: release its table and files.
			c.probeParts[c.drainPart].close()
			c.probeParts[c.drainPart] = nil
			c.table = make(map[uint64][]types.Row)
			c.mem.freeAll()
			c.curProbe = nil
			c.drainPart++
			continue
		}
		if err != nil {
			return nil, err
		}
		matched, err := probeHashTable(c.node, c.table, probe, func(combined types.Row) {
			c.pending = append(c.pending, combined)
		})
		if err != nil {
			return nil, err
		}
		if !matched && c.node.Kind == plan.JoinLeft {
			c.pending = append(c.pending, nullExtend(probe, c.rwidth))
		}
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

// probeHashTable finds every build row joining with probe, re-checking exact
// key equality (hash collisions) and the residual condition, and hands each
// combined output row to emit. It reports whether the probe matched.
func probeHashTable(node *plan.HashJoin, table map[uint64][]types.Row, probe types.Row, emit func(types.Row)) (bool, error) {
	h, ok, err := hashKeys(node.LeftKeys, probe)
	if err != nil || !ok {
		return false, err
	}
	bucket := table[h]
	if len(bucket) == 0 {
		return false, nil
	}
	// Evaluate the probe-side key values once; only the build side varies
	// across bucket candidates.
	lvals := make([]types.Datum, len(node.LeftKeys))
	for i, k := range node.LeftKeys {
		lv, err := k.Eval(probe)
		if err != nil {
			return false, err
		}
		lvals[i] = lv
	}
	matched := false
	for _, rrow := range bucket {
		eq := true
		for i := range node.LeftKeys {
			rv, err := node.RightKeys[i].Eval(rrow)
			if err != nil {
				return matched, err
			}
			if lvals[i].IsNull() || rv.IsNull() || types.Compare(lvals[i], rv) != 0 {
				eq = false
				break
			}
		}
		if !eq {
			continue
		}
		combined := make(types.Row, 0, len(probe)+len(rrow))
		combined = append(combined, probe...)
		combined = append(combined, rrow...)
		keep, err := plan.EvalBool(node.Extra, combined)
		if err != nil {
			return matched, err
		}
		if keep {
			matched = true
			emit(combined)
		}
	}
	return matched, nil
}

// nullExtend builds the left-join output row for an unmatched probe row.
func nullExtend(probe types.Row, rwidth int) types.Row {
	combined := make(types.Row, 0, len(probe)+rwidth)
	combined = append(combined, probe...)
	for i := 0; i < rwidth; i++ {
		combined = append(combined, types.Null)
	}
	return combined
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
	rwidth      int
	tick        cpuTick
	out         types.RowBatch // reused
	size        int
}

func newBatchNestLoopIter(ctx *Context, node *plan.NestLoop, left, right BatchIterator) *batchNestLoopIter {
	return &batchNestLoopIter{ctx: ctx, node: node, left: left, right: right,
		rwidth: node.Right.Schema().Len(), tick: cpuTick{ctx: ctx}, size: ctx.batchSize()}
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
	j.out.Reset()
	for j.out.Len() < j.size {
		if j.outer == nil || j.opos >= j.outer.Len() {
			if j.out.Len() > 0 {
				break // hand up what this outer batch produced first
			}
			b, err := j.left.NextBatch()
			if err != nil {
				return nil, err
			}
			j.outer, j.opos = b, 0
		}
		outer := j.outer.Live(j.opos)
		for j.ipos < len(j.inner) && j.out.Len() < j.size {
			inner := j.inner[j.ipos]
			j.ipos++
			if err := j.tick.tick(); err != nil {
				return nil, err
			}
			combined := make(types.Row, 0, len(outer)+len(inner))
			combined = append(combined, outer...)
			combined = append(combined, inner...)
			keep, err := plan.EvalBool(j.node.Cond, combined)
			if err != nil {
				return nil, err
			}
			if keep {
				j.matched = true
				j.out.Append(combined)
			}
		}
		if j.ipos < len(j.inner) {
			break // batch full mid-rescan; resume at ipos
		}
		if !j.matched && j.node.Kind == plan.JoinLeft {
			j.out.Append(nullExtend(outer, j.rwidth))
		}
		j.opos, j.ipos, j.matched = j.opos+1, 0, false
	}
	return &j.out, nil
}

func (j *batchNestLoopIter) Close() {
	j.ctx.shrink(j.bytes)
	j.inner = nil
	j.left.Close()
	j.right.Close()
}
