package exec

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/plan"
	"repro/internal/types"
)

// batchHashJoinIter is the vectorized hash join: the right (build/inner)
// side is drained batch-at-a-time into typed vectors and indexed before the
// first probe batch is pulled. The prefetch is not just a performance
// choice: it is Greenplum's defence against interconnect deadlock (paper
// Appendix B) — the inner motion is drained completely before any outer
// tuple is requested.
//
// When the build side outgrows the spill budget, Grace-style, build rows are
// scattered by key hash into fanout partition files (the in-memory store is
// flushed first), probe rows follow into matching probe partitions, and
// after the probe input ends each partition pair is joined in turn — build
// partition loaded into the emptied store, probe partition replayed against
// it in batches through the same probeBatch. Rows with NULL keys never join
// and are resolved immediately in either mode.
type batchHashJoinIter struct {
	ctx         *Context
	node        *plan.HashJoin
	left, right BatchIterator
	built       bool
	size        int
	mem         opMem
	inner       *innerStore
	emit        joinEmit
	// keyExprs evaluate the probe-side keys once per batch into keyVecs,
	// whose hashes fill hashes.
	keyExprs []*plan.VecExpr
	keyVecs  []types.Vec
	hashes   []uint64

	spilled    bool
	draining   bool // the probe input has ended: replaying spilled partitions
	buildParts []*spillFile
	probeParts []*spillFile
	spillRow   types.Row // a build row on its way to a partition

	// Spilled-partition drain state.
	drainPart int
	curProbe  *spillFile
	replay    types.RowBatch  // reused: the rows read back from a partition
	reload    []*plan.VecExpr // read a spilled build row's slots back
}

func newBatchHashJoinIter(ctx *Context, node *plan.HashJoin, left, right BatchIterator) *batchHashJoinIter {
	width, lw := node.Schema().Len(), node.Left.Schema().Len()
	c := &batchHashJoinIter{ctx: ctx, node: node, left: left, right: right, size: ctx.batchSize(),
		mem:     opMem{ctx: ctx, stat: ctx.opStat(node)},
		inner:   newInnerStore(node.RightKeys, width-lw, plan.InnerCols(width, lw, node.Out, node.Extra)),
		keyVecs: make([]types.Vec, len(node.LeftKeys))}
	c.emit = newJoinEmit(width, lw, node.Out, c.inner)
	for _, k := range node.LeftKeys {
		c.keyExprs = append(c.keyExprs, plan.CompileVec(k))
	}
	return c
}

func (c *batchHashJoinIter) build() error {
	for {
		b, err := c.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err == nil {
			err = c.addBuildBatch(b, c.inner.exprs)
		}
		if err != nil {
			return err
		}
	}
	c.inner.index()
	c.built = true
	return nil
}

func (c *batchHashJoinIter) NextBatch() (*types.RowBatch, error) {
	if !c.built {
		if err := c.build(); err != nil {
			return nil, err
		}
	}
	for {
		var b *types.RowBatch
		var err error
		if c.draining {
			// Spilled partitions are joined pairwise, their probe rows
			// replayed in batches (io.EOF at once when nothing spilled).
			b, err = c.replayBatch()
		} else if b, err = c.left.NextBatch(); err == io.EOF {
			c.draining = true
			continue
		}
		if err == nil {
			b, err = c.probeBatch(b)
		}
		if err != nil || b.Len() > 0 {
			return b, err
		}
	}
}

// addBuildBatch folds a build batch — or a batch of a reloaded partition's
// rows, whose slots exprs read back — into the store with one memory
// decision per batch: grow takes the slot mutex and a budget CAS, which the
// build must not pay per row. Once spilled, rows route to their partition
// files instead (no memory is charged on that path) until the drain reloads
// them, and a reload never spills again.
func (c *batchHashJoinIter) addBuildBatch(b *types.RowBatch, exprs []*plan.VecExpr) error {
	keep, size, err := c.inner.eval(b, exprs)
	if err != nil || len(keep) == 0 {
		return err
	}
	if !c.spilled || c.draining {
		ok, err := c.mem.grow(size)
		switch {
		case err != nil:
			return err
		case ok:
		case !c.draining && c.ctx.Spill.Enabled() && c.mem.charged >= spillChunk(c.ctx.Spill.Budget()):
			if err := c.beginSpill(); err != nil {
				return err
			}
		default:
			// Below the spill-chunk floor (a starved budget or a single batch
			// beyond all of it), or a partition the fanout underestimated:
			// keep building in memory.
			if err := c.mem.forceGrow(size); err != nil {
				return err
			}
		}
	}
	if c.spilled && !c.draining {
		for _, at := range keep {
			if err := c.writeBuild(c.inner.vecs, at); err != nil {
				return err
			}
		}
		return nil
	}
	c.inner.append(keep)
	return nil
}

// writeBuild writes the slots at position at of vecs, a batch's or a
// chunk's, to their partition as one row.
func (c *batchHashJoinIter) writeBuild(vecs []types.Vec, at int) error {
	c.spillRow = (&types.ColBatch{Vecs: vecs}).RowInto(c.spillRow, at)
	return c.buildParts[spillPart(c.inner.hash(vecs, at), len(c.buildParts))].writeRow(c.spillRow)
}

// beginSpill creates the partition files and flushes the in-memory store.
func (c *batchHashJoinIter) beginSpill() error {
	fanout := spillFanout(c.node.EstMemBytes, c.ctx.Spill.Budget())
	if err := c.mem.growFiles(2 * int64(fanout) * spillFileOverhead); err != nil {
		return err
	}
	c.buildParts = make([]*spillFile, fanout)
	c.probeParts = make([]*spillFile, fanout)
	for i := 0; i < fanout; i++ {
		// Park each file in its slot as soon as it exists: if the paired
		// create fails, Close still owns (and removes) this one.
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
	for i := range c.inner.n {
		if err := c.writeBuild(c.inner.at(int32(i))); err != nil {
			return err
		}
	}
	c.inner.reset()
	c.mem.freeAll()
	c.spilled = true
	c.ctx.Spill.noteSpill()
	return nil
}

// probeBatch joins one probe batch — a child batch, or probe rows replayed
// from a spilled partition — and returns the joined rows as a column batch
// (possibly empty). The batch's keys are evaluated and hashed at once. In
// memory, and against a loaded partition, every match and LEFT null
// extension becomes a pair for the emitter; while the spilled join is still
// consuming its probe input, rows are routed to their probe partition
// instead and surface later through replayBatch.
func (c *batchHashJoinIter) probeBatch(b *types.RowBatch) (out *types.RowBatch, err error) {
	for i, x := range c.keyExprs {
		if c.keyVecs[i], err = x.Eval(b); err != nil {
			return nil, err
		}
	}
	c.hashes = slices.Grow(c.hashes[:0], b.Len())[:b.Len()]
	types.HashBatch(c.hashes, c.keyVecs, b)
	left := c.node.Kind == plan.JoinLeft
	for r, h := range c.hashes {
		at := b.Index(r)
		matched := false
		switch {
		case anyNull(c.keyVecs, at): // NULL keys match nothing, in any partition
		case c.spilled && !c.draining:
			if err := c.probeParts[spillPart(h, len(c.probeParts))].writeRow(c.emit.outer(b, at)); err != nil {
				return nil, err
			}
			continue
		default:
			if matched, err = c.match(b, at, h); err != nil {
				return nil, err
			}
		}
		if !matched && left {
			c.emit.add(at, -1)
		}
	}
	return c.emit.flush(b), nil
}

// match pairs probe position at with every stored row of h's chain that
// joins with it, re-checking key equality (chains share buckets) — ints and
// texts by payload, anything else by Compare — and the residual condition
// on the emitter's scratch row.
func (c *batchHashJoinIter) match(b *types.RowBatch, at int, h uint64) (matched bool, err error) {
	s := c.inner
candidates:
	for i := s.head[s.bucket(h)] - 1; i >= 0; i = s.next[i] - 1 {
		vecs, off := s.at(i)
		for k := range c.keyVecs {
			switch p, q := &c.keyVecs[k], &vecs[k]; {
			case p.Ints != nil && q.Ints != nil:
				if p.Ints[at] != q.Ints[off] {
					continue candidates
				}
			case p.Strs != nil && q.Strs != nil:
				if p.Strs[at] != q.Strs[off] {
					continue candidates
				}
			case types.Compare(p.At(at), q.At(off)) != 0:
				continue candidates
			}
		}
		ok, err := c.emit.pair(c.node.Extra, b, at, i)
		if err != nil {
			return matched, err
		}
		matched = matched || ok
	}
	return matched, nil
}

// replayBatch returns the next batch of probe rows of the spilled
// partitions, with the matching build partition loaded into the emptied
// store. io.EOF when every partition pair is joined, and at once when the
// join never spilled.
func (c *batchHashJoinIter) replayBatch() (*types.RowBatch, error) {
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
		if b, err := fillBatch(&c.replay, c.size, c.curProbe.readRow); err != io.EOF {
			return b, err
		}
		// Partition pair done: release its rows and files.
		c.probeParts[c.drainPart].close()
		c.probeParts[c.drainPart] = nil
		c.inner.reset()
		c.mem.freeAll()
		c.curProbe = nil
		c.drainPart++
	}
}

// loadBuildPartition reads one build partition into the store and indexes
// it. A partition is sized by the fanout to fit the budget; when key skew
// defeats that, the resource group is charged directly rather than
// re-partitioning (one level of Grace partitioning, as in the paper's
// executor).
func (c *batchHashJoinIter) loadBuildPartition(p int) error {
	sf := c.buildParts[p]
	c.buildParts[p] = nil
	defer sf.close()
	if err := sf.startRead(); err != nil {
		return err
	}
	if c.reload == nil {
		for s := range c.inner.vecs {
			c.reload = append(c.reload, plan.CompileVec(&plan.ColRef{Idx: s}))
		}
	}
	for {
		b, err := fillBatch(&c.replay, c.size, sf.readRow)
		if err == io.EOF {
			c.inner.index()
			return nil
		}
		if err == nil {
			err = c.addBuildBatch(b, c.reload)
		}
		if err != nil {
			return err
		}
	}
}

// Close releases memory, removes any remaining partition files and closes
// both inputs.
func (c *batchHashJoinIter) Close() {
	c.mem.closeAll()
	for _, sf := range append(c.buildParts, c.probeParts...) {
		if sf != nil {
			sf.close()
		}
	}
	c.buildParts, c.probeParts = nil, nil
	c.inner.reset()
	c.left.Close()
	c.right.Close()
}

// anyNull reports whether some vector is NULL at position at, by its bitmap
// or as a boxed datum.
func anyNull(vecs []types.Vec, at int) bool {
	for k := range vecs {
		if v := &vecs[k]; v.Null(at) || v.Boxed != nil && v.Boxed[at].IsNull() {
			return true
		}
	}
	return false
}

// joinChunk is the row count of an innerStore chunk: past the first chunk,
// a slot's vector is allocated at this size and never regrown.
const joinChunk = 1024

// innerStore is a join's inner side as typed column vectors of only the
// slots the join reads: a hash join's keys, then each other inner column its
// output or its condition reads. Rows are appended batch by batch into
// chunks of joinChunk, so an int32 addresses a row and no vector is copied to
// grow. A hash join indexes the rows once they are all in: head holds each
// bucket's first row + 1 and next each row's successor in its chain + 1 (0
// ends a chain), so a chain lists its rows in arrival order.
type innerStore struct {
	exprs  []*plan.VecExpr // per slot: its value over an input batch
	slotOf []int           // per inner column: its slot, or -1 when not read
	nk     int             // slots [0, nk) are the hash keys
	vecs   []types.Vec     // the slots evaluated over the batch being added
	keep   []int           // its positions whose keys are all non-NULL
	chunks [][]types.Vec   // chunk k: rows [k*joinChunk, (k+1)*joinChunk)
	n      int
	head   []int32
	next   []int32
	shift  uint // 64 - log2(len(head))
}

// newInnerStore lays out the slots of an inner side width columns wide whose
// columns cols (nil: all) the join reads besides the keys; a key that is a
// bare column is that column's slot too.
func newInnerStore(keys []plan.Expr, width int, cols []int) *innerStore {
	s := &innerStore{nk: len(keys), slotOf: slices.Repeat([]int{-1}, width)}
	for k, e := range keys {
		s.exprs = append(s.exprs, plan.CompileVec(e))
		if r, ok := e.(*plan.ColRef); ok && r.Idx >= 0 && r.Idx < width {
			s.slotOf[r.Idx] = k
		}
	}
	for c := range width {
		if s.slotOf[c] < 0 && (cols == nil || slices.Contains(cols, c)) {
			s.slotOf[c] = len(s.exprs)
			s.exprs = append(s.exprs, plan.CompileVec(&plan.ColRef{Idx: c}))
		}
	}
	s.vecs = make([]types.Vec, len(s.exprs))
	return s
}

// eval evaluates the slots over b and returns its live positions whose keys
// are all non-NULL (NULL keys never join), with the bytes their values and
// chain links take in the store.
func (s *innerStore) eval(b *types.RowBatch, exprs []*plan.VecExpr) (keep []int, size int64, err error) {
	for i, x := range exprs {
		if s.vecs[i], err = x.Eval(b); err != nil {
			return nil, 0, err
		}
	}
	s.keep = s.keep[:0]
	for i, l := 0, b.Len(); i < l; i++ {
		at := b.Index(i)
		if anyNull(s.vecs[:s.nk], at) {
			continue
		}
		s.keep, size = append(s.keep, at), size+8
		for v := range s.vecs {
			switch x := &s.vecs[v]; {
			case x.Strs != nil:
				size += 16 + int64(len(x.Strs[at]))
			case x.Boxed != nil:
				size += x.Boxed[at].Size() + 16
			default:
				size += 8
			}
		}
	}
	return s.keep, size, nil
}

// append copies the slots at positions keep of the evaluated batch.
func (s *innerStore) append(keep []int) {
	for _, at := range keep {
		if s.n%joinChunk == 0 {
			chunk := make([]types.Vec, len(s.vecs))
			for v := range chunk {
				if s.n > 0 { // the first chunk grows as it fills: most inner sides are small
					chunk[v].Reset(s.vecs[v].Kind, joinChunk)
					chunk[v].Truncate()
				}
			}
			s.chunks = append(s.chunks, chunk)
		}
		chunk := s.chunks[len(s.chunks)-1]
		for v := range chunk {
			chunk[v].AppendFrom(&s.vecs[v], at)
		}
		s.n++
	}
}

// at returns the chunk holding row i and the row's position in it.
func (s *innerStore) at(i int32) ([]types.Vec, int) {
	return s.chunks[uint32(i)/joinChunk], int(uint32(i) % joinChunk)
}

// hash is the key hash of the slots at position at of vecs, a batch's or a
// chunk's: equal for keys Compare calls equal, so int 3 joins float 3.0.
func (s *innerStore) hash(vecs []types.Vec, at int) uint64 { return types.HashAt(vecs[:s.nk], at) }

func (s *innerStore) bucket(h uint64) int { return int(h >> s.shift) }

// index chains every row by key hash into a head array the power of two
// above twice the row count long, so a chain is short.
func (s *innerStore) index() {
	size := 1 << bits.Len(uint(2*s.n))
	s.head, s.next = make([]int32, size), make([]int32, s.n)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := s.n - 1; i >= 0; i-- { // backwards, so each chain ends up in arrival order
		b := s.bucket(s.hash(s.at(int32(i))))
		s.next[i], s.head[b] = s.head[b], int32(i+1)
	}
}

func (s *innerStore) reset() { s.chunks, s.n, s.head, s.next = nil, 0, nil, nil }

// joinPair is one output row of a join: outer batch position at beside row
// inner of the join's store, or beside NULLs when inner is -1 (a LEFT join's
// unmatched row).
type joinPair struct{ at, inner int32 }

// joinEmit is both joins' one way of producing output: the operator collects
// (outer position, inner row) pairs for the current outer batch, evaluating
// any non-key condition on the reused scratch row, and flush gathers the
// columns the plan above reads (plan's Out) into typed vectors reused across
// batches. Every other column of the emitted batch is the zero Vec and reads
// NULL at its offset.
type joinEmit struct {
	lw      int   // width of the outer side
	cols    []int // output offsets to gather
	inner   *innerStore
	pairs   []joinPair
	scratch types.Row // outer row then inner row
	filled  int       // outer position held by scratch[:lw]; -1 = none
	batch   types.ColBatch
	out     types.RowBatch
}

func newJoinEmit(width, lw int, out []int, inner *innerStore) joinEmit {
	if out == nil {
		out = make([]int, width)
		for c := range out {
			out[c] = c
		}
	}
	return joinEmit{lw: lw, cols: out, inner: inner, scratch: make(types.Row, width), filled: -1,
		batch: types.ColBatch{Vecs: make([]types.Vec, width)}}
}

func (e *joinEmit) add(at int, inner int32) {
	e.pairs = append(e.pairs, joinPair{at: int32(at), inner: inner})
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

// pair adds outer position at beside inner row i when cond (nil: none)
// holds on them — evaluated on the scratch row, where the inner columns the
// join does not read stay NULL — and reports whether it did.
func (e *joinEmit) pair(cond plan.Expr, b *types.RowBatch, at int, i int32) (bool, error) {
	if cond != nil {
		e.outer(b, at)
		vecs, off := e.inner.at(i)
		for c, s := range e.inner.slotOf {
			if s >= 0 {
				e.scratch[e.lw+c] = vecs[s].At(off)
			}
		}
		if keep, err := plan.EvalBool(cond, e.scratch); err != nil || !keep {
			return false, err
		}
	}
	e.add(at, i)
	return true, nil
}

// flush turns the collected pairs, whose positions are b's, into the output
// batch, valid until the next flush, and forgets them.
func (e *joinEmit) flush(b *types.RowBatch) *types.RowBatch {
	for _, c := range e.cols {
		v := &e.batch.Vecs[c]
		v.Truncate()
		switch {
		case c >= e.lw:
			s := e.inner.slotOf[c-e.lw]
			for _, p := range e.pairs {
				if p.inner < 0 {
					v.Append(types.Null)
				} else {
					vecs, off := e.inner.at(p.inner)
					v.AppendFrom(&vecs[s], off)
				}
			}
		case b.Cols != nil:
			src, lo := &b.Cols.Vecs[c], b.Cols.Lo
			for _, p := range e.pairs {
				v.AppendFrom(src, lo+int(p.at))
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

// batchNestLoopIter prefetches the inner side into the joins' one store and
// rescans it per outer row — the same deadlock-safe order as hash join.
// Output is cut at the batch size, so the position in the outer batch and
// the inner rows carries over between calls; the outer batch's container
// stays valid because the next one is only pulled once this one is used up.
type batchNestLoopIter struct {
	ctx         *Context
	node        *plan.NestLoop
	left, right BatchIterator
	inner       *innerStore
	bytes       int64
	built       bool
	outer       *types.RowBatch
	opos, ipos  int  // next outer row of the batch, next inner row for it
	matched     bool // the current outer row has joined
	emit        joinEmit
	size        int
}

func newBatchNestLoopIter(ctx *Context, node *plan.NestLoop, left, right BatchIterator) *batchNestLoopIter {
	width, lw := node.Schema().Len(), node.Left.Schema().Len()
	inner := newInnerStore(nil, width-lw, plan.InnerCols(width, lw, node.Out, node.Cond))
	return &batchNestLoopIter{ctx: ctx, node: node, left: left, right: right, inner: inner,
		emit: newJoinEmit(width, lw, node.Out, inner), size: ctx.batchSize()}
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
		keep, size, err := j.inner.eval(b, j.inner.exprs)
		if err == nil {
			err = j.ctx.grow(size)
		}
		if err != nil {
			return err
		}
		j.bytes += size
		j.inner.append(keep)
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
		for j.ipos < j.inner.n && len(j.emit.pairs) < j.size {
			inner := int32(j.ipos)
			j.ipos++
			ok, err := j.emit.pair(j.node.Cond, j.outer, at, inner)
			if err != nil {
				return nil, err
			}
			j.matched = j.matched || ok
		}
		if j.ipos < j.inner.n {
			break // batch full mid-rescan; resume at ipos
		}
		if !j.matched && j.node.Kind == plan.JoinLeft {
			j.emit.add(at, -1)
		}
		j.opos, j.ipos, j.matched = j.opos+1, 0, false
	}
	return j.emit.flush(j.outer), nil
}

func (j *batchNestLoopIter) Close() {
	j.ctx.shrink(j.bytes)
	j.inner.reset()
	j.left.Close()
	j.right.Close()
}
