package exec

import (
	"context"
	"io"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// BatchIterator is the executor's one operator interface: a batch-at-a-time
// (vectorized) pull. NextBatch returns a non-empty batch or io.EOF after the
// last one.
//
// Ownership: the returned batch's container (Rows slice, selection, column
// vectors) is only valid until the next NextBatch call; the Row values inside
// — and the rows Live gathers from a column batch — are never overwritten in
// place and may be retained indefinitely.
type BatchIterator interface {
	NextBatch() (*types.RowBatch, error)
	Close()
}

// scanStreamDepth is how many in-flight batches a streaming scan may buffer
// between the storage goroutine and the consuming operator. Together with
// the batch size it bounds scan memory — the whole point of streaming
// instead of materializing the leaf.
const scanStreamDepth = 2

// DrainBatches pulls every batch from it into a flat row slice (coordinator
// result collection).
func DrainBatches(it BatchIterator) ([]types.Row, error) {
	defer it.Close()
	var out []types.Row
	for {
		b, err := it.NextBatch()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		for i, l := 0, b.Len(); i < l; i++ {
			out = append(out, b.Live(i))
		}
	}
}

// ---- batch operators ----

// scanUnit is one work item of a batch scan: a whole leaf, or (for parallel
// workers) a block range of one.
type scanUnit struct {
	leaf catalog.TableID
	rng  *ScanRange // nil = whole leaf
}

// batchScanIter streams bounded batches from the storage layer: a producer
// goroutine drives the push-style batch scan while the consumer pulls over a
// shallow channel, so a leaf is never fully materialized. The scan filter is
// applied per batch by in-place compaction.
type batchScanIter struct {
	ctx     *Context
	node    *plan.Scan
	units   []scanUnit
	pred    *plan.Predicate
	tick    cpuTick
	ch      chan *types.RowBatch
	errc    chan error
	cancel  context.CancelFunc
	started bool
}

func newBatchScanIter(ctx *Context, node *plan.Scan) *batchScanIter {
	units := make([]scanUnit, 0, len(node.Partitions))
	for _, leaf := range node.Partitions {
		units = append(units, scanUnit{leaf: leaf})
	}
	return newBatchScanIterUnits(ctx, node, units)
}

// newBatchScanIterUnits builds a scan over an explicit unit list (the
// parallel builder hands each worker its share of leaves or block ranges).
func newBatchScanIterUnits(ctx *Context, node *plan.Scan, units []scanUnit) *batchScanIter {
	return &batchScanIter{ctx: ctx, node: node, units: units,
		pred: plan.CompilePredicate(node.Filter), tick: cpuTick{ctx: ctx}}
}

func (s *batchScanIter) start() {
	store := s.ctx.Store
	sctx, cancel := context.WithCancel(s.ctx.Ctx)
	s.cancel = cancel
	s.ch = make(chan *types.RowBatch, scanStreamDepth)
	s.errc = make(chan error, 1)
	size := s.ctx.batchSize()
	units := s.units
	spec := ScanSpec{Cols: s.node.Project, Pred: s.node.ScanPred}
	go func() {
		defer close(s.ch)
		push := func(b *types.RowBatch) (bool, error) {
			select {
			case s.ch <- b:
				return true, nil
			case <-sctx.Done():
				return false, sctx.Err()
			}
		}
		for _, u := range units {
			if err := store.ScanTableBatches(sctx, u.leaf, u.rng, spec, size, push); err != nil {
				s.errc <- err
				return
			}
		}
	}()
	s.started = true
}

func (s *batchScanIter) NextBatch() (*types.RowBatch, error) {
	if !s.started {
		s.start()
	}
	for {
		b, ok := <-s.ch
		if !ok {
			select {
			case err := <-s.errc:
				return nil, err
			default:
				return nil, io.EOF
			}
		}
		if err := s.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		if s.node.Filter != nil {
			if err := s.pred.Select(b); err != nil {
				return nil, err
			}
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (s *batchScanIter) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.ch != nil {
		for range s.ch { // unblock and retire the producer
		}
	}
}

// batchFilterIter drops rows failing the (compiled) predicate by narrowing
// each child batch's selection vector — survivors are marked, not copied;
// densification is deferred to the next ownership boundary (a motion send or
// an explicit clone).
type batchFilterIter struct {
	child BatchIterator
	pred  *plan.Predicate
	tick  cpuTick
}

func (f *batchFilterIter) NextBatch() (*types.RowBatch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if err := f.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		if err := f.pred.Select(b); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (f *batchFilterIter) Close() { f.child.Close() }

// batchProjectIter computes output expressions for a whole batch per call. A
// row batch yields fresh rows in a reused container allocated to the input
// batch's length; a column batch yields a column batch under the input's
// selection, each expression evaluated once into a vector (a bare column is
// shared, not copied).
type batchProjectIter struct {
	child BatchIterator
	exprs []plan.Expr
	out   *types.RowBatch
	col   *projectCols // set up on the first column batch
	tick  cpuTick
}

// projectCols is a projection's column-layout state: the compiled
// expressions and the reused output batch.
type projectCols struct {
	vecs []*plan.VecExpr
	cols types.ColBatch
	out  types.RowBatch
}

func (p *batchProjectIter) NextBatch() (*types.RowBatch, error) {
	b, err := p.child.NextBatch()
	if err != nil {
		return nil, err
	}
	if err := p.tick.tickRows(b.Len()); err != nil {
		return nil, err
	}
	if b.Cols != nil {
		c := p.col
		if c == nil {
			c = &projectCols{cols: types.ColBatch{Vecs: make([]types.Vec, len(p.exprs))}}
			for _, e := range p.exprs {
				c.vecs = append(c.vecs, plan.CompileVec(e))
			}
			p.col = c
		}
		for j, x := range c.vecs {
			if c.cols.Vecs[j], err = x.Eval(b); err != nil {
				return nil, err
			}
		}
		c.cols.N = b.Cols.N
		c.out = types.RowBatch{Sel: b.Sel, Cols: &c.cols}
		return &c.out, nil
	}
	if p.out == nil || p.out.Cap() < b.Len() {
		p.out = types.NewRowBatch(b.Len())
	}
	p.out.Reset()
	for i, l := 0, b.Len(); i < l; i++ {
		row := b.Live(i)
		out := make(types.Row, len(p.exprs))
		for j, e := range p.exprs {
			v, err := e.Eval(row)
			if err != nil {
				return nil, err
			}
			out[j] = v
		}
		p.out.Append(out)
	}
	return p.out, nil
}

func (p *batchProjectIter) Close() { p.child.Close() }

// batchHashJoinIter is the vectorized hash join: the right (build/inner)
// side is drained batch-at-a-time and fully materialized before the first
// probe batch is pulled. The prefetch is not just a performance choice: it is
// Greenplum's defence against interconnect deadlock (paper Appendix B) — the
// inner motion is drained completely before any outer tuple is requested.
type batchHashJoinIter struct {
	core        hashJoinCore
	left, right BatchIterator

	built bool
	tick  cpuTick
	size  int
}

func newBatchHashJoinIter(ctx *Context, node *plan.HashJoin, left, right BatchIterator) *batchHashJoinIter {
	return &batchHashJoinIter{
		core: newHashJoinCore(ctx, node),
		left: left, right: right,
		tick: cpuTick{ctx: ctx},
		size: ctx.batchSize(),
	}
}

func (j *batchHashJoinIter) build() error {
	for {
		b, err := j.right.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := j.tick.tickRows(b.Len()); err != nil {
			return err
		}
		if err := j.core.addBuildBatch(b); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

func (j *batchHashJoinIter) NextBatch() (*types.RowBatch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		var b *types.RowBatch
		var err error
		if j.core.draining {
			// Spilled partitions are joined pairwise, their probe rows
			// replayed in batches (io.EOF at once when nothing spilled).
			b, err = j.core.replayBatch(j.size)
		} else if b, err = j.left.NextBatch(); err == io.EOF {
			j.core.draining = true
			continue
		}
		if err != nil {
			return nil, err
		}
		// The disk-replay pass is charged CPU like the probe pass.
		if err := j.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		out, err := j.core.probeBatch(b)
		if err != nil {
			return nil, err
		}
		if out.Len() > 0 {
			return out, nil
		}
	}
}

func (j *batchHashJoinIter) Close() {
	j.core.closeCore()
	j.left.Close()
	j.right.Close()
}

// batchAggIter is the vectorized hash aggregate: input is absorbed
// batch-at-a-time into the shared aggregation core and the grouped output is
// emitted in batches.
type batchAggIter struct {
	core   aggCore
	child  BatchIterator
	loaded bool
	tick   cpuTick
	out    types.RowBatch // reused; grows with the groups, not to size
	size   int
}

func newBatchAggIter(ctx *Context, node *plan.Agg, child BatchIterator) *batchAggIter {
	return &batchAggIter{
		core:  newAggCore(ctx, node),
		child: child,
		tick:  cpuTick{ctx: ctx},
		size:  ctx.batchSize(),
	}
}

func (a *batchAggIter) load() error {
	sawRow := false
	for {
		b, err := a.child.NextBatch()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := a.tick.tickRows(b.Len()); err != nil {
			return err
		}
		if b.Len() > 0 {
			sawRow = true
		}
		if err := a.core.absorb(b); err != nil {
			return err
		}
	}
	if err := a.core.finish(sawRow); err != nil {
		return err
	}
	a.loaded = true
	return nil
}

func (a *batchAggIter) NextBatch() (*types.RowBatch, error) {
	if !a.loaded {
		if err := a.load(); err != nil {
			return nil, err
		}
	}
	return fillBatch(&a.out, a.size, a.core.nextOutput)
}

func (a *batchAggIter) Close() {
	a.core.close()
	a.child.Close()
}

// motionRecvBatchIter pulls whole batches arriving from the sending slice of
// a motion.
type motionRecvBatchIter struct {
	ctx  *Context
	recv Receiver
}

func (m *motionRecvBatchIter) NextBatch() (*types.RowBatch, error) {
	for {
		b, ok, err := m.recv.RecvBatch(m.ctx.Ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, io.EOF
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (m *motionRecvBatchIter) Close() {}

// BuildBatch constructs the operator tree for a plan subtree within one
// slice. A Motion child is a slice boundary: it becomes a receiver, and the
// sending side is launched separately by the dispatcher (or, for a
// direct-dispatch plan, built under ctx.Inline and pulled in place).
func BuildBatch(ctx *Context, node plan.Node) BatchIterator {
	return build(ctx, node, nil, nil)
}

// build is the one place an operator is attached to its plan node, for a
// whole slice and for each parallel worker's share of one alike: whatever
// operator stands for node, its output passes the node's NodeRows counter
// and, when the statement armed operator statistics, this location's
// OpSegStat — a node cannot be built uncounted. at, when non-nil, is the one
// node whose operator the caller supplies (with) instead of having it built:
// a worker's scan over its own block ranges, or the aggregate that merges
// the workers above their LocalGather.
func build(ctx *Context, node, at plan.Node, with BatchIterator) BatchIterator {
	it := with
	if node != at {
		it = newOperator(ctx, node, at, with)
	}
	if ctr := ctx.NodeRows.Counter(node); ctr != nil {
		it = &countingBatchIter{child: it, ctr: ctr}
	}
	if st := ctx.opStat(node); st != nil {
		it = &opStatBatchIter{child: it, st: st}
	}
	return it
}

func newOperator(ctx *Context, node, at plan.Node, with BatchIterator) BatchIterator {
	child := func(n plan.Node) BatchIterator { return build(ctx, n, at, with) }
	switch n := node.(type) {
	case *plan.OneRow:
		return &rowWindows{rows: []types.Row{{}}}
	case *plan.Scan:
		if ctx.Store == nil {
			return errBatchIterf("exec: scan of %s in a storage-less slice", n.Table.Name)
		}
		if n.OnSeg >= 0 && ctx.SegID != n.OnSeg {
			// Single-segment scan (replicated table not yet widened by online
			// expansion): every other segment contributes nothing.
			return &rowWindows{}
		}
		if n.ForUpdate {
			return newMarkedScanIter(ctx, n, true)
		}
		return newBatchScanIter(ctx, n)
	case *plan.IndexScan:
		if ctx.Store == nil {
			return errBatchIterf("exec: index scan of %s in a storage-less slice", n.Table.Name)
		}
		return newMarkedScanIter(ctx, n, n.ForUpdate)
	case *plan.Filter:
		return &batchFilterIter{child: child(n.Child), pred: plan.CompilePredicate(n.Cond), tick: cpuTick{ctx: ctx}}
	case *plan.Project:
		return &batchProjectIter{child: child(n.Child), exprs: n.Exprs, tick: cpuTick{ctx: ctx}}
	case *plan.HashJoin:
		return newBatchHashJoinIter(ctx, n, child(n.Left), child(n.Right))
	case *plan.Agg:
		return newBatchAggIter(ctx, n, child(n.Child))
	case *plan.NestLoop:
		return newBatchNestLoopIter(ctx, n, child(n.Left), child(n.Right))
	case *plan.Sort:
		return newBatchSortIter(ctx, n, child(n.Child))
	case *plan.Limit:
		return &batchLimitIter{child: child(n.Child), skip: n.Offset, left: n.Count}
	case *plan.Motion:
		if ctx.Inline != nil {
			return BuildBatch(ctx.Inline, n.Child)
		}
		if ctx.Recv == nil {
			return errBatchIterf("exec: no receiver wiring for slice %d", n.SliceID)
		}
		r := ctx.Recv(n.SliceID)
		if r == nil {
			return errBatchIterf("exec: no receiver for slice %d at segment %d", n.SliceID, ctx.SegID)
		}
		return &motionRecvBatchIter{ctx: ctx, recv: r}
	default:
		return errBatchIterf("exec: unsupported plan node %T", node)
	}
}

// HashForRedistribute computes the destination segment for a row under a
// redistribute motion.
func HashForRedistribute(exprs []plan.Expr, row types.Row, nseg int) (int, error) {
	var h uint64 = 1469598103934665603
	for _, e := range exprs {
		v, err := e.Eval(row)
		if err != nil {
			return 0, err
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return int(h % uint64(nseg)), nil
}
