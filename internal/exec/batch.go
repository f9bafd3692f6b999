package exec

import (
	"context"
	"io"

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

// Reset readies a built operator tree, closed or not, to run its plan again
// against what the plan's nodes hold now — a session's plan instance writes
// each execution's $N values into the nodes it owns in place (see
// plan.Instance). Every operator drops its per-run state, re-reads its node
// and recompiles whatever it compiled from an expression. It reports false
// when some operator cannot start over (a blocking operator, a motion
// receiver, the wrapper of a statement's collectors, NodeRows or Ops, which
// belong to that statement): the caller then builds the tree anew.
func Reset(it BatchIterator) bool {
	r, ok := it.(resetter)
	return ok && r.reset()
}

// resetter is an operator Reset can start over; reset resets its children.
type resetter interface{ reset() bool }

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

// batchScanIter streams bounded batches from the storage layer: a producer
// goroutine drives the push-style batch scan, whose batches are views valid
// only during its callback, and copies them into containers — a column view
// whole, a row view's rows regrouped into dense batches of the batch size —
// while the consumer pulls over a shallow channel, so a leaf is never fully
// materialized. The containers are a ring of scanStreamDepth+2 filled in
// turn, which is one filling, scanStreamDepth queued and one with the
// consumer: the producer refills a container only once it has sent the next
// scanStreamDepth+1, and the channel completes the last of those sends only
// after the consumer pulled the batch after the container's — after it asked
// for the next batch. The scan filter narrows each batch's selection. The
// leaves of a partitioned table are scanned one after another.
type batchScanIter struct {
	ctx     *Context
	node    *plan.Scan
	pred    *plan.Predicate
	ch      chan *scanBuf
	errc    chan error
	cancel  context.CancelFunc
	started bool
}

// scanBuf is one container of a streaming scan's ring.
type scanBuf struct {
	batch types.RowBatch
	cols  types.ColBatch
	sel   []int
}

func newBatchScanIter(ctx *Context, node *plan.Scan) *batchScanIter {
	return &batchScanIter{ctx: ctx, node: node, pred: plan.CompilePredicate(node.Filter)}
}

func (s *batchScanIter) start() {
	store := s.ctx.Store
	sctx, cancel := context.WithCancel(s.ctx.Ctx)
	s.cancel = cancel
	s.ch = make(chan *scanBuf, scanStreamDepth)
	s.errc = make(chan error, 1)
	size := s.ctx.batchSize()
	spec := ScanSpec{Cols: s.node.Project, Pred: s.node.ScanPred}
	go func() {
		defer close(s.ch)
		ring, sent := make([]scanBuf, scanStreamDepth+2), 0
		cur := &ring[0] // the container being filled
		// send hands cur to the consumer and empties the next container.
		send := func() error {
			select {
			case s.ch <- cur:
			case <-sctx.Done():
				return sctx.Err()
			}
			sent++
			cur = &ring[sent%len(ring)]
			cur.batch = types.RowBatch{Rows: cur.batch.Rows[:0]}
			return nil
		}
		copyView := func(b *types.RowBatch) (_ bool, err error) {
			if b.Cols == nil {
				for i, l := 0, b.Len(); i < l && err == nil; i++ {
					if cur.batch.Rows == nil {
						cur.batch.Rows = make([]types.Row, 0, size)
					}
					if cur.batch.Append(b.Live(i)); cur.batch.Len() == size {
						err = send()
					}
				}
				return err == nil, err
			}
			if len(cur.batch.Rows) > 0 {
				err = send()
			}
			if err == nil {
				cur.cols, cur.sel = *b.Cols, append(cur.sel[:0], b.Sel...)
				if cur.batch = (types.RowBatch{Cols: &cur.cols}); b.Sel != nil {
					cur.batch.Sel = cur.sel
				}
				err = send()
			}
			return err == nil, err
		}
		for _, leaf := range s.node.Partitions {
			err := store.ScanTableBatches(sctx, leaf, spec, size, copyView)
			if err == nil && len(cur.batch.Rows) > 0 {
				err = send()
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
		buf, ok := <-s.ch
		if !ok {
			select {
			case err := <-s.errc:
				return nil, err
			default:
				return nil, io.EOF
			}
		}
		b := &buf.batch
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

func (s *batchScanIter) reset() bool {
	s.Close()
	*s = batchScanIter{ctx: s.ctx, node: s.node, pred: plan.CompilePredicate(s.node.Filter)}
	return true
}

// batchFilterIter drops rows failing the (compiled) predicate by narrowing
// each child batch's selection vector — survivors are marked, not copied;
// densification is deferred to the next ownership boundary (a motion send or
// an explicit clone).
type batchFilterIter struct {
	child BatchIterator
	cond  plan.Expr
	pred  *plan.Predicate
}

func (f *batchFilterIter) NextBatch() (*types.RowBatch, error) {
	for {
		b, err := f.child.NextBatch()
		if err != nil {
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

func (f *batchFilterIter) reset() bool {
	f.pred = plan.CompilePredicate(f.cond)
	return Reset(f.child)
}

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

func (p *batchProjectIter) reset() bool {
	p.col = nil // its vectors may have broadcast a cell's old value
	if p.out != nil {
		clear(p.out.Rows) // the rows are the consumer's now
		p.out.Reset()
	}
	return Reset(p.child)
}

// batchAggIter is the vectorized hash aggregate: input is absorbed
// batch-at-a-time into the shared aggregation core and the grouped output is
// emitted in batches.
type batchAggIter struct {
	core   aggCore
	child  BatchIterator
	loaded bool
	out    types.RowBatch // reused; grows with the groups, not to size
	size   int
}

func newBatchAggIter(ctx *Context, node *plan.Agg, child BatchIterator) *batchAggIter {
	return &batchAggIter{
		core:  newAggCore(ctx, node),
		child: child,
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
			// A sender that fails cancels the statement before it closes its
			// stream: a stream that ends under a cancelled statement was cut
			// short, and a write must not store what arrived of it.
			if c := m.ctx.Ctx; c != nil && context.Cause(c) != nil {
				return nil, context.Cause(c)
			}
			return nil, io.EOF
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (m *motionRecvBatchIter) Close() {}

// BuildBatch constructs the operator tree for a plan subtree within one
// slice. Every operator's output passes its plan node's NodeRows counter
// and, when the statement armed operator statistics, this location's
// OpSegStat — a node cannot be built uncounted. A Motion child is a slice
// boundary: it becomes a receiver, and the sending side is launched
// separately by the dispatcher (or, for a direct-dispatch plan, built under
// ctx.Inline and pulled in place).
func BuildBatch(ctx *Context, node plan.Node) BatchIterator {
	it := newOperator(ctx, node)
	if ctr := ctx.NodeRows.Counter(node); ctr != nil {
		it = &countingBatchIter{child: it, ctr: ctr}
	}
	if st := ctx.opStat(node); st != nil {
		it = &opStatBatchIter{child: it, st: st}
	}
	return it
}

func newOperator(ctx *Context, node plan.Node) BatchIterator {
	child := func(n plan.Node) BatchIterator { return BuildBatch(ctx, n) }
	switch n := node.(type) {
	case *plan.Values:
		return &valuesIter{rowWindows: rowWindows{rows: n.Rows, size: ctx.batchSize()}, node: n}
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
		return &batchFilterIter{child: child(n.Child), cond: n.Cond, pred: plan.CompilePredicate(n.Cond)}
	case *plan.Project:
		return &batchProjectIter{child: child(n.Child), exprs: n.Exprs}
	case *plan.HashJoin:
		return newBatchHashJoinIter(ctx, n, child(n.Left), child(n.Right))
	case *plan.Agg:
		return newBatchAggIter(ctx, n, child(n.Child))
	case *plan.NestLoop:
		return newBatchNestLoopIter(ctx, n, child(n.Left), child(n.Right))
	case *plan.Sort:
		return newBatchSortIter(ctx, n, child(n.Child))
	case *plan.Limit:
		return &batchLimitIter{child: child(n.Child), node: n, skip: n.Offset, left: n.Count}
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
