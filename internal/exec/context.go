// Package exec implements the distributed executor: one family of
// batch-at-a-time (vectorized) operators behind the BatchIterator interface,
// built as one pipeline per (slice, segment), motion receive over the
// interconnect, two-phase aggregation, hash and nested-loop joins with
// inner-side prefetch, and memory accounting hooks for resource groups.
// Blocking operators (sort, hash agg, hash join) are memory-governed: past
// the statement's spill budget (slot quota × memory_spill_ratio) they spill
// to per-segment temp files — external merge sort, partition-spill
// aggregation, Grace hash join — instead of growing until cancellation
// (see spill.go).
package exec

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// StoreAccess is what a slice needs from its segment's storage: scans with
// MVCC visibility applied, and the row locking and row writes performed by
// the segment layer.
type StoreAccess interface {
	// ScanTableBatches delivers the visible rows of the leaf in bounded
	// batches; an AO-column leaf in the column layout, windows of
	// cached vectors under a selection of the visible rows. Each batch is a
	// view valid only while fn runs: its rows and vectors are immutable and
	// may be retained, its containers may not. fn reports whether to
	// continue. A block that cannot be decoded is an error.
	ScanTableBatches(ctx context.Context, leaf catalog.TableID, spec ScanSpec, batchSize int, fn func(b *types.RowBatch) (cont bool, err error)) error
	// ScanTable visits every visible row of the leaf table one at a time —
	// the path of the scans that mark the rows they keep — under spec like
	// ScanTableBatches. fn reports whether the row matches (keep) and
	// whether to continue (cont); the row is valid only during the call.
	// mark is applied to each KEPT row before the scan proceeds, never to a
	// rejected one. A block that cannot be decoded is an error.
	ScanTable(ctx context.Context, leaf catalog.TableID, spec ScanSpec, mark RowMark, fn func(row types.Row) (keep, cont bool, err error)) error
	// IndexLookup is ScanTable over the visible rows matching key via the
	// named index, in every leaf of table.
	IndexLookup(ctx context.Context, table *catalog.Table, index *catalog.Index, key []types.Datum, mark RowMark, fn func(row types.Row) (keep, cont bool, err error)) error
	// WriteRow writes the row version id names on behalf of the current
	// transaction — after waiting out its concurrent writers, the version a
	// committed update chain leads to — as deleted, or, when up is set, as
	// replaced by up.NewVersion(that version). ok=false: a committed
	// transaction deleted the row meanwhile.
	WriteRow(ctx context.Context, id RowID, up *plan.UpdatePlan) (ok bool, err error)
	// InsertRow stores row in the leaf table on behalf of the current
	// transaction and enters it in the leaf's indexes.
	InsertRow(leaf catalog.TableID, row types.Row) error
}

// RowID names one stored row version: its leaf table and its tuple id there.
type RowID struct {
	Leaf catalog.TableID
	TID  storage.TupleID
}

// RowMark is what the row-callback store path does to each row its caller
// keeps, besides handing it over.
type RowMark struct {
	// Lock takes SELECT ... FOR UPDATE's row lock, held to transaction end
	// (and RowShare on the relation instead of AccessShare).
	Lock bool
	// Targets, when set, collects each kept row's identity for an UPDATE or
	// DELETE. The statement already holds RowExclusive on the relation, so
	// the scan takes no relation lock; the rows are locked as they are
	// written.
	Targets *[]RowID
}

// ScanSpec carries the per-scan options of the batch scan path: the column
// projection and the pushed-down predicate the storage layer may use to
// skip whole blocks via zone maps. The zero ScanSpec scans everything.
type ScanSpec struct {
	// Cols lists the column offsets to populate (nil = all).
	Cols []int
	// Pred is the sargable predicate extracted by the planner, which the
	// store tests against its zone maps as it is. Skipping is advisory —
	// rows of surviving blocks are NOT filtered by the store.
	Pred []types.Conjunct
}

// MemAccount abstracts resource-group memory accounting (resgroup.Slot).
type MemAccount interface {
	Grow(n int64) error
	Shrink(n int64)
}

// Receiver yields the batches arriving from a sending slice of a motion, one
// interconnect operation per batch.
type Receiver interface {
	// RecvBatch returns the next batch, valid until the next RecvBatch (the
	// receiver may then hand its container back to the sender); ok=false
	// means the stream is closed.
	RecvBatch(ctx context.Context) (b *types.RowBatch, ok bool, err error)
}

// Context is the per-slice, per-location execution environment.
type Context struct {
	Ctx   context.Context
	Store StoreAccess // nil in the coordinator slice
	// Recv returns the receiver for the given sending slice at this
	// location.
	Recv func(sliceID int) Receiver
	// Inline, when set, is the context of the one segment a direct-dispatch
	// plan runs on: a Motion is then a pass-through whose sending slice is
	// built under Inline and pulled by this slice's own goroutine.
	Inline *Context
	// Routed, when set, is the share of an INSERT's VALUES rows dispatch
	// routed to this segment: the INSERT stores them instead of its Values
	// leaf's.
	Routed []types.Row
	Mem    MemAccount
	// Spill is the statement's spill manager: the shared operator-memory
	// budget blocking operators reserve against, and the temp-file registry
	// they spill to when it is exhausted. nil = spilling disabled (operators
	// grow in memory until the resource group cancels the query).
	Spill *SpillManager
	// BatchSize is the executor's rows-per-batch for vectorized operators
	// (0 = types.DefaultBatchSize).
	BatchSize   int
	NumSegments int
	SegID       int // -1 = coordinator
	// Ops, when set, receives per-node per-location executor statistics
	// (rows, batches, peak operator memory, spill bytes and, when timed,
	// inclusive wall time) for EXPLAIN ANALYZE, per-operator trace spans and
	// the optimizer's risk-bound misestimate check.
	Ops *plan.OpStats
}

// opStat returns this location's stats cell for node, or nil when operator
// statistics are disarmed.
func (c *Context) opStat(node plan.Node) *plan.OpSegStat {
	return c.Ops.At(node, c.SegID)
}

// batchSize returns the effective executor batch size.
func (c *Context) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return types.DefaultBatchSize
}

// grow charges n bytes if accounting is enabled.
func (c *Context) grow(n int64) error {
	if c.Mem == nil {
		return nil
	}
	return c.Mem.Grow(n)
}

func (c *Context) shrink(n int64) {
	if c.Mem != nil {
		c.Mem.Shrink(n)
	}
}
