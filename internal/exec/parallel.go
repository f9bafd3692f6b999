package exec

import (
	"io"
	"sync"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// Intra-segment parallel execution: a parallel-safe slice (chain of
// Filter/Project with at most one aggregate over a table scan — see
// plan.ParallelSafe) is rewritten into N worker pipelines over disjoint
// block ranges of the scanned leaf, merged by a LocalGather before anything
// leaves the slice:
//
//	Agg(partial)             Agg(intermediate) — or (final) for a plain agg
//	  └─ Scan        ⇒         └─ LocalGather
//	                               ├─ Agg(partial) ─ Scan[range 0]
//	                               ├─ Agg(partial) ─ Scan[range 1]
//	                               └─ ...
//
// Each worker owns its pipeline end to end (its own aggregation hash table,
// its own predicate closures, its own memory/CPU accounting against the
// shared statement account), so workers share no mutable state; the decoded
// blocks they read are immutable and served by the segment's block cache.

// LocalGather merges the output of N worker pipelines running in their own
// goroutines. In ordered mode workers are drained in index order — ranges
// partition the table in tuple-id order, so a scan-only parallel slice emits
// rows in exactly the serial order. In unordered mode (under an aggregate
// merge, which re-sorts groups) batches are taken as they arrive.
type LocalGather struct {
	workers []BatchIterator
	ordered bool

	started bool
	stop    chan struct{}
	chans   []chan *types.RowBatch // per worker (ordered)
	merged  chan *types.RowBatch   // shared (unordered)
	errc    chan error
	wg      sync.WaitGroup
	cur     int
}

// NewLocalGather builds a local exchange over the given worker pipelines.
func NewLocalGather(workers []BatchIterator, ordered bool) *LocalGather {
	return &LocalGather{workers: workers, ordered: ordered}
}

func (g *LocalGather) start() {
	g.started = true
	g.stop = make(chan struct{})
	g.errc = make(chan error, len(g.workers))
	if g.ordered {
		g.chans = make([]chan *types.RowBatch, len(g.workers))
		for i := range g.chans {
			g.chans[i] = make(chan *types.RowBatch, scanStreamDepth)
		}
	} else {
		g.merged = make(chan *types.RowBatch, len(g.workers))
	}
	g.wg.Add(len(g.workers))
	for i, w := range g.workers {
		ch := g.merged
		if g.ordered {
			ch = g.chans[i]
		}
		go func(w BatchIterator, ch chan *types.RowBatch, ordered bool) {
			defer g.wg.Done()
			defer w.Close()
			if ordered {
				defer close(ch)
			}
			for {
				b, err := w.NextBatch()
				if err == io.EOF {
					return
				}
				if err != nil {
					g.errc <- err
					return
				}
				// The worker's top iterator refills b's container on its
				// next pull; hand the consumer a copy.
				select {
				case ch <- b.CloneRows():
				case <-g.stop:
					return
				}
			}
		}(w, ch, g.ordered)
	}
	if !g.ordered {
		go func() {
			g.wg.Wait()
			close(g.merged)
		}()
	}
}

// NextBatch implements BatchIterator.
func (g *LocalGather) NextBatch() (*types.RowBatch, error) {
	if !g.started {
		g.start()
	}
	if g.ordered {
		for g.cur < len(g.chans) {
			select {
			case b, ok := <-g.chans[g.cur]:
				if !ok {
					g.cur++
					continue
				}
				if b.Len() > 0 {
					return b, nil
				}
			case err := <-g.errc:
				return nil, err
			}
		}
	} else {
		for {
			select {
			case b, ok := <-g.merged:
				if !ok {
					select {
					case err := <-g.errc:
						return nil, err
					default:
						return nil, io.EOF
					}
				}
				if b.Len() > 0 {
					return b, nil
				}
			case err := <-g.errc:
				return nil, err
			}
		}
	}
	// All ordered channels drained; surface a straggler error if any.
	select {
	case err := <-g.errc:
		return nil, err
	default:
		return nil, io.EOF
	}
}

// Close implements BatchIterator: it stops the workers (each closes its own
// pipeline, cancelling its streaming scan) and waits for them to retire.
func (g *LocalGather) Close() {
	if !g.started {
		// Workers never ran; close their pipelines directly.
		for _, w := range g.workers {
			w.Close()
		}
		return
	}
	close(g.stop)
	g.wg.Wait()
	// Drain what workers managed to push so their buffers are released.
	if g.merged != nil {
		for range g.merged {
		}
	}
	for _, ch := range g.chans {
		for range ch {
		}
	}
}

// BuildBatchParallel is BuildBatch plus intra-segment parallelism: when the
// context's degree is > 1 and the slice is a parallel-safe chain over a
// splittable store, it builds the worker/LocalGather rewrite; otherwise it
// falls back to the serial build. Used at slice roots — parallel workers
// split the whole slice pipeline, not individual operators.
func BuildBatchParallel(ctx *Context, root plan.Node) BatchIterator {
	if ctx.Parallel > 1 {
		if it, ok := buildParallelPipeline(ctx, root); ok {
			return it
		}
	}
	return BuildBatch(ctx, root)
}

// decomposeChain walks a parallel-safe unary chain down to its scan,
// returning the chain's aggregate (nil when it has none).
func decomposeChain(n plan.Node) (agg *plan.Agg, scan *plan.Scan, ok bool) {
	for {
		switch x := n.(type) {
		case *plan.Scan:
			return agg, x, true
		case *plan.Filter:
			n = x.Child
		case *plan.Project:
			n = x.Child
		case *plan.Agg:
			if agg != nil {
				return nil, nil, false
			}
			agg = x
			n = x.Child
		default:
			return nil, nil, false
		}
	}
}

// buildParallelPipeline attempts the parallel rewrite of the slice rooted at
// root. ok=false means the slice should run serially (shape not parallel-safe,
// store cannot split, or the table is too small to produce multiple ranges).
func buildParallelPipeline(ctx *Context, root plan.Node) (BatchIterator, bool) {
	if ctx.Store == nil || !plan.ParallelSafe(root) {
		return nil, false
	}
	if s, ok := root.(*plan.Sort); ok { // a top-N over the workers' ordered gather
		it, ok := buildParallelPipeline(ctx, s.Child)
		if ok {
			it = build(ctx, s, s, newBatchSortIter(ctx, s, it))
		}
		return it, ok
	}
	store, ok := ctx.Store.(ParallelStoreAccess)
	if !ok {
		return nil, false
	}
	agg, scan, ok := decomposeChain(root)
	if !ok || scan.ForUpdate || scan.OnSeg >= 0 {
		return nil, false
	}
	units := splitScanUnits(store, scan, ctx.Parallel)
	if len(units) < 2 {
		return nil, false
	}

	// Everything below (and including) the aggregate runs inside each
	// worker; with no aggregate the whole chain does, so filters and
	// projections parallelize too. A plain/partial aggregate is rewritten to
	// a per-worker partial plus a merge above the gather. The workers' plan
	// nodes go through build like any other, each over its own scan units, so
	// scan/filter/project rows are counted inside the workers; the per-worker
	// partial aggregate is the executor's own and is not counted.
	workerRoot, workerAgg := root, agg
	if agg != nil {
		workerRoot = agg.Child
		if agg.Phase != plan.AggPartial {
			workerAgg = plan.NewAgg(agg.Child, agg.GroupBy, agg.Specs, plan.AggPartial)
		}
	}
	workers := make([]BatchIterator, len(units))
	for w := range units {
		workers[w] = build(ctx, workerRoot, scan, newBatchScanIterUnits(ctx, scan, units[w]))
		if agg != nil {
			workers[w] = newBatchAggIter(ctx, workerAgg, workers[w])
		}
	}

	gather := NewLocalGather(workers, agg == nil)
	if agg == nil {
		return gather, true
	}
	mergePhase := plan.AggIntermediate
	if agg.Phase == plan.AggPlain {
		mergePhase = plan.AggFinal
	}
	// The merge aggregate reads the partial layout positionally. It stands
	// for the plan's Agg node (counted once per location, like the serial
	// aggregate), and the chain above it is built over it.
	partialSchema := workerAgg.Schema()
	mergeGroup := make([]plan.Expr, len(agg.GroupBy))
	for i := range mergeGroup {
		mergeGroup[i] = &plan.ColRef{Idx: i, Typ: partialSchema.Columns[i].Kind}
	}
	mergeNode := plan.NewAgg(workerAgg, mergeGroup, agg.Specs, mergePhase)
	return build(ctx, root, agg, newBatchAggIter(ctx, mergeNode, gather)), true
}

// splitScanUnits plans the per-worker scan work: a multi-leaf (partitioned)
// scan deals whole leaves round-robin, a single-leaf scan asks the store to
// split the leaf into block ranges. Fewer than two units means the table is
// too small (or unsplittable) to parallelize.
func splitScanUnits(store ParallelStoreAccess, scan *plan.Scan, parts int) [][]scanUnit {
	leaves := scan.Partitions
	if len(leaves) == 0 {
		leaves = []catalog.TableID{scan.Table.ID}
	}
	if len(leaves) > 1 {
		// Contiguous chunks, not round-robin: the ordered LocalGather drains
		// workers in index order, so worker w must own a leaf range that
		// precedes worker w+1's for scan output to match serial order.
		n := min(parts, len(leaves))
		units := make([][]scanUnit, n)
		for i, leaf := range leaves {
			w := i * n / len(leaves)
			units[w] = append(units[w], scanUnit{leaf: leaf})
		}
		return units
	}
	ranges, ok := store.SplitTableRanges(leaves[0], parts)
	if !ok || len(ranges) < 2 {
		return nil
	}
	units := make([][]scanUnit, len(ranges))
	for i := range ranges {
		rng := ranges[i]
		units[i] = []scanUnit{{leaf: leaves[0], rng: &rng}}
	}
	return units
}
