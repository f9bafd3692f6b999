package exec

import (
	"time"

	"repro/internal/plan"
	"repro/internal/types"
)

// opStatBatchIter feeds one node's per-location OpSegStat: rows and batches
// out and, when the collector is timed, the operator's inclusive wall time
// (time inside NextBatch, children included). An untimed collector (the
// optimizer's risk check) reads no clock.
type opStatBatchIter struct {
	child BatchIterator
	st    *plan.OpSegStat
	timed bool
}

func (o *opStatBatchIter) NextBatch() (*types.RowBatch, error) {
	var t0 time.Time
	if o.timed {
		t0 = time.Now()
	}
	b, err := o.child.NextBatch()
	if o.timed {
		o.st.WallNanos.Add(time.Since(t0).Nanoseconds())
	}
	if err == nil && b != nil {
		o.st.Rows.Add(int64(b.Len()))
		o.st.Batches.Add(1)
	}
	return b, err
}

func (o *opStatBatchIter) Close() { o.child.Close() }
