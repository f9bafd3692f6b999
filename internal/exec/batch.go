package exec

import (
	"context"
	"io"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// BatchIterator is the batch-at-a-time (vectorized) pull interface. NextBatch
// returns a non-empty batch or io.EOF after the last one.
//
// Ownership: the returned batch's container (Rows slice) is only valid until
// the next NextBatch call; the Row values inside are never overwritten in
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

// ---- adapters ----

// batchFromRows adapts a row Iterator to the batch interface by pulling up
// to size rows per call into a reused batch. The batch starts empty and
// grows with what the child yields (geometrically, at most to size, and the
// grown container is reused), so a one-row stream never pays for a
// size-row container.
type batchFromRows struct {
	child Iterator
	batch types.RowBatch
	size  int
	done  bool
}

// NewBatchAdapter wraps a row-at-a-time iterator as a BatchIterator with the
// given batch size (<=0 = types.DefaultBatchSize).
func NewBatchAdapter(it Iterator, size int) BatchIterator {
	if size < 1 {
		size = types.DefaultBatchSize
	}
	return &batchFromRows{child: it, size: size}
}

func (b *batchFromRows) NextBatch() (*types.RowBatch, error) {
	if b.done {
		return nil, io.EOF
	}
	b.batch.Reset()
	for b.batch.Len() < b.size {
		row, err := b.child.Next()
		if err == io.EOF {
			b.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		b.batch.Append(row)
	}
	if b.batch.Len() == 0 {
		return nil, io.EOF
	}
	return &b.batch, nil
}

func (b *batchFromRows) Close() { b.child.Close() }

// rowsFromBatch adapts a BatchIterator to the row interface.
type rowsFromBatch struct {
	child BatchIterator
	cur   *types.RowBatch
	pos   int
}

// NewRowAdapter wraps a BatchIterator as a row-at-a-time Iterator (the
// compatibility shim for operators without a vectorized implementation).
func NewRowAdapter(it BatchIterator) Iterator {
	return &rowsFromBatch{child: it}
}

func (r *rowsFromBatch) Next() (types.Row, error) {
	for r.cur == nil || r.pos >= r.cur.Len() {
		b, err := r.child.NextBatch()
		if err != nil {
			return nil, err
		}
		r.cur, r.pos = b, 0
	}
	row := r.cur.Live(r.pos)
	r.pos++
	return row, nil
}

func (r *rowsFromBatch) Close() { r.child.Close() }

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
	pred    plan.Predicate
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
	store := s.ctx.Store.(BatchStoreAccess)
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
			var err error
			if u.rng != nil {
				err = store.(ParallelStoreAccess).ScanTableRangeBatches(sctx, u.leaf, *u.rng, spec, size, push)
			} else {
				err = store.ScanTableBatches(sctx, u.leaf, spec, size, push)
			}
			if err != nil {
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
			if err := selectBatch(b, s.pred); err != nil {
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
	pred  plan.Predicate
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
		if err := selectBatch(b, f.pred); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (f *batchFilterIter) Close() { f.child.Close() }

// selectBatch narrows b's selection to the rows passing pred. A batch that
// already carries a selection is narrowed in place (the kept prefix of the
// existing vector is rewritten, which is safe because selections ascend); a
// dense batch gets a vector of its own, so the batch's ownership status is
// unchanged — whoever owned the container now also owns the selection.
func selectBatch(b *types.RowBatch, pred plan.Predicate) error {
	if b.Sel == nil {
		n := len(b.Rows)
		first := 0
		for ; first < n; first++ {
			ok, err := pred(b.Rows[first])
			if err != nil {
				return err
			}
			if !ok {
				break
			}
		}
		if first == n {
			return nil // every row passes: the batch stays dense
		}
		sel := make([]int, first, n-1)
		for j := 0; j < first; j++ {
			sel[j] = j
		}
		for i := first + 1; i < n; i++ {
			ok, err := pred(b.Rows[i])
			if err != nil {
				return err
			}
			if ok {
				sel = append(sel, i)
			}
		}
		b.Sel = sel
		return nil
	}
	sel := b.Sel[:0]
	for _, i := range b.Sel {
		ok, err := pred(b.Rows[i])
		if err != nil {
			return err
		}
		if ok {
			sel = append(sel, i)
		}
	}
	b.Sel = sel
	return nil
}

// batchProjectIter computes output expressions for a whole batch per call.
// Its reused output container is allocated to the input batch's length.
type batchProjectIter struct {
	child BatchIterator
	exprs []plan.Expr
	out   *types.RowBatch
	tick  cpuTick
}

func (p *batchProjectIter) NextBatch() (*types.RowBatch, error) {
	b, err := p.child.NextBatch()
	if err != nil {
		return nil, err
	}
	if err := p.tick.tickRows(b.Len()); err != nil {
		return nil, err
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
// probe batch is pulled — the same deadlock-safe order as the row path
// (paper Appendix B).
type batchHashJoinIter struct {
	core        hashJoinCore
	left, right BatchIterator

	built    bool
	draining bool
	tick     cpuTick
	out      types.RowBatch // reused; grows with the matches, not to size
	size     int
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
		if j.draining {
			// Spilled partitions are joined pairwise and their output rows
			// re-batched (no-op when the join stayed in memory).
			j.out.Reset()
			for j.out.Len() < j.size {
				row, err := j.core.drainNext()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				j.out.Append(row)
			}
			if j.out.Len() == 0 {
				return nil, io.EOF
			}
			// Charge CPU for the disk-replay pass like the probe pass.
			if err := j.tick.tickRows(j.out.Len()); err != nil {
				return nil, err
			}
			return &j.out, nil
		}
		b, err := j.left.NextBatch()
		if err == io.EOF {
			j.draining = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := j.tick.tickRows(b.Len()); err != nil {
			return nil, err
		}
		j.out.Reset()
		for i, l := 0, b.Len(); i < l; i++ {
			probe := b.Live(i)
			if err := j.core.probeRow(probe, func(combined types.Row) {
				j.out.Append(combined)
			}); err != nil {
				return nil, err
			}
		}
		if j.out.Len() > 0 {
			return &j.out, nil
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

	// Column-resolved fast path: when every group key and aggregate
	// argument is a bare column reference (the shape two-phase planning
	// produces for the hot analytical queries), absorption reads columns
	// directly instead of walking expression trees per row.
	fast     bool
	groupIdx []int
	specCols []int // -1 = count(*)
}

func newBatchAggIter(ctx *Context, node *plan.Agg, child BatchIterator) *batchAggIter {
	a := &batchAggIter{
		core:  newAggCore(ctx, node),
		child: child,
		tick:  cpuTick{ctx: ctx},
		size:  ctx.batchSize(),
	}
	if node.Phase != plan.AggFinal && node.Phase != plan.AggIntermediate { // those phases merge partial layouts
		a.fast = true
		for _, g := range node.GroupBy {
			c, ok := plan.ColIndex(g)
			if !ok {
				a.fast = false
				break
			}
			a.groupIdx = append(a.groupIdx, c)
		}
		if a.fast {
			for _, sp := range node.Specs {
				if sp.Arg == nil {
					a.specCols = append(a.specCols, -1)
					continue
				}
				c, ok := plan.ColIndex(sp.Arg)
				if !ok {
					a.fast = false
					break
				}
				a.specCols = append(a.specCols, c)
			}
		}
	}
	return a
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
		if a.fast {
			if err := a.core.absorbFast(b, a.groupIdx, a.specCols); err != nil {
				return err
			}
			continue
		}
		for i, l := 0, b.Len(); i < l; i++ {
			if err := a.core.absorb(b.Live(i)); err != nil {
				return err
			}
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
	a.out.Reset()
	for a.out.Len() < a.size {
		row, err := a.core.nextOutput()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.out.Append(row)
	}
	if a.out.Len() == 0 {
		return nil, io.EOF
	}
	return &a.out, nil
}

func (a *batchAggIter) Close() {
	a.core.close()
	a.child.Close()
}

// motionRecvBatchIter pulls whole batches arriving from the sending slice of
// a motion.
type motionRecvBatchIter struct {
	ctx  *Context
	recv BatchReceiver
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

// BuildBatch constructs the vectorized iterator tree for a plan subtree
// within one slice. Operators without a batch implementation (sort, limit,
// nested loop, index scan) run row-at-a-time over adapted batch children, so
// scans and motions stay vectorized underneath them. When ctx.NodeRows is
// set, every node's iterator is wrapped to record its actual output rows.
func BuildBatch(ctx *Context, node plan.Node) BatchIterator {
	it := buildBatchNode(ctx, node)
	if ctr := ctx.NodeRows.Counter(node); ctr != nil {
		it = &countingBatchIter{child: it, ctr: ctr}
	}
	if st := ctx.opStat(node); st != nil {
		it = &opStatBatchIter{child: it, st: st}
	}
	return it
}

func buildBatchNode(ctx *Context, node plan.Node) BatchIterator {
	size := ctx.batchSize()
	switch n := node.(type) {
	case *plan.Scan:
		if ctx.Store == nil {
			return NewBatchAdapter(errIterf("exec: scan of %s in a storage-less slice", n.Table.Name), size)
		}
		if n.OnSeg >= 0 && ctx.SegID != n.OnSeg {
			return NewBatchAdapter(emptyIter{}, size)
		}
		if _, ok := ctx.Store.(BatchStoreAccess); ok && !n.ForUpdate {
			return newBatchScanIter(ctx, n)
		}
		return NewBatchAdapter(newScanIter(ctx, n), size)
	case *plan.Filter:
		return &batchFilterIter{child: BuildBatch(ctx, n.Child), pred: plan.CompilePredicate(n.Cond), tick: cpuTick{ctx: ctx}}
	case *plan.Project:
		return &batchProjectIter{child: BuildBatch(ctx, n.Child), exprs: n.Exprs, tick: cpuTick{ctx: ctx}}
	case *plan.HashJoin:
		return newBatchHashJoinIter(ctx, n, BuildBatch(ctx, n.Left), BuildBatch(ctx, n.Right))
	case *plan.Agg:
		return newBatchAggIter(ctx, n, BuildBatch(ctx, n.Child))
	case *plan.NestLoop:
		return NewBatchAdapter(newNestLoopIter(ctx, n,
			NewRowAdapter(BuildBatch(ctx, n.Left)),
			NewRowAdapter(BuildBatch(ctx, n.Right))), size)
	case *plan.Sort:
		return NewBatchAdapter(&sortIter{ctx: ctx, child: NewRowAdapter(BuildBatch(ctx, n.Child)), keys: n.Keys, mem: opMem{ctx: ctx, stat: ctx.opStat(n)}}, size)
	case *plan.Limit:
		return NewBatchAdapter(&limitIter{child: NewRowAdapter(BuildBatch(ctx, n.Child)), count: n.Count, offset: n.Offset}, size)
	case *plan.Motion:
		if ctx.Inline != nil {
			return BuildBatch(ctx.Inline, n.Child)
		}
		if ctx.Recv == nil {
			return NewBatchAdapter(errIterf("exec: no receiver wiring for slice %d", n.SliceID), size)
		}
		r := ctx.Recv(n.SliceID)
		if r == nil {
			return NewBatchAdapter(errIterf("exec: no receiver for slice %d at segment %d", n.SliceID, ctx.SegID), size)
		}
		if br, ok := r.(BatchReceiver); ok {
			return &motionRecvBatchIter{ctx: ctx, recv: br}
		}
		return NewBatchAdapter(&motionRecvIter{ctx: ctx, recv: r}, size)
	default:
		// OneRow, IndexScan and unsupported nodes share the row path
		// (buildRow, not Build: the public BuildBatch already counts this
		// node, so the row path must not count it again).
		return NewBatchAdapter(buildRow(ctx, node), size)
	}
}
