package exec

import (
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/types"
)

// countingBatchIter counts the rows a node emits into the plan's
// NodeRowCounts: one add per batch, charged with the batch's length.
// BuildBatch wraps every node's operator in it, so every node of every slice
// is counted exactly once per location.
type countingBatchIter struct {
	child BatchIterator
	ctr   *atomic.Int64
}

func (c *countingBatchIter) NextBatch() (*types.RowBatch, error) {
	b, err := c.child.NextBatch()
	if err == nil && b != nil {
		c.ctr.Add(int64(b.Len()))
	}
	return b, err
}

func (c *countingBatchIter) Close() { c.child.Close() }

// opStatBatchIter feeds one node's per-location OpSegStat: rows and batches
// out, and the operator's inclusive wall time (time inside NextBatch,
// children included). Wrapped outside countingBatchIter by BuildBatch,
// and only when the statement armed operator statistics (EXPLAIN ANALYZE or
// query tracing), so the per-call clock reads never touch ordinary queries.
type opStatBatchIter struct {
	child BatchIterator
	st    *plan.OpSegStat
}

func (o *opStatBatchIter) NextBatch() (*types.RowBatch, error) {
	t0 := time.Now()
	b, err := o.child.NextBatch()
	o.st.WallNanos.Add(time.Since(t0).Nanoseconds())
	if err == nil && b != nil {
		o.st.Rows.Add(int64(b.Len()))
		o.st.Batches.Add(1)
	}
	return b, err
}

func (o *opStatBatchIter) Close() { o.child.Close() }
