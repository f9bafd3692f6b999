// Package exec implements the distributed executor: one family of
// batch-at-a-time (vectorized) operators behind the BatchIterator interface,
// intra-segment parallel worker pipelines over disjoint block ranges merged
// by a LocalGather local exchange (with partial→final aggregate rewriting),
// motion receive over the interconnect, two-phase aggregation, hash and
// nested-loop joins with inner-side prefetch, and memory/CPU accounting
// hooks for resource groups.
// Blocking operators (sort, hash agg, hash join) are memory-governed: past
// the statement's spill budget (slot quota × memory_spill_ratio) they spill
// to per-segment temp files — external merge sort, partition-spill
// aggregation, Grace hash join — instead of growing until cancellation
// (see spill.go).
package exec

import (
	"context"
	"time"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// StoreAccess is what a slice needs from its segment's storage: scans with
// MVCC visibility applied, and the row locking and row writes performed by
// the segment layer.
type StoreAccess interface {
	// ScanTableBatches delivers the visible rows of the leaf — or, when rng
	// is set, of that block range of it (one parallel worker's share) — in
	// bounded batches; an AO-column leaf in the column layout, windows of
	// cached vectors under a selection of the visible rows. Each batch is
	// handed to fn with full ownership (a fresh container whose rows may be
	// retained; the vectors are shared and immutable); fn reports whether to
	// continue. A block that cannot be decoded is an error.
	ScanTableBatches(ctx context.Context, leaf catalog.TableID, rng *ScanRange, spec ScanSpec, batchSize int, fn func(b *types.RowBatch) (cont bool, err error)) error
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
	// Pred is the sargable predicate extracted by the planner; the store
	// converts it to its zone-map representation. Skipping is advisory —
	// rows of surviving blocks are NOT filtered by the store.
	Pred *plan.ScanPredicate
}

// ScanRange is a half-open range [Begin, End) of row offsets within one leaf
// table — the executor-side mirror of storage.BlockRange. Parallel workers
// scan disjoint ranges of the same leaf.
type ScanRange struct {
	Begin, End int
}

// ParallelStoreAccess extends StoreAccess with block-range splitting for
// intra-segment parallelism: SplitTableRanges plans disjoint ranges of a leaf
// (aligned to the engine's decode units) for ScanTableBatches to scan one
// each. ok=false means the leaf cannot be split and the slice runs serially.
type ParallelStoreAccess interface {
	StoreAccess
	SplitTableRanges(leaf catalog.TableID, parts int) ([]ScanRange, bool)
}

// MemAccount abstracts resource-group memory accounting (resgroup.Slot).
type MemAccount interface {
	Grow(n int64) error
	Shrink(n int64)
}

// CPUCharger abstracts resource-group CPU accounting.
type CPUCharger interface {
	ChargeCPU(ctx context.Context, d time.Duration) error
}

// Receiver yields the batches arriving from a sending slice of a motion, one
// interconnect operation per batch.
type Receiver interface {
	// RecvBatch returns the next batch, owned by the caller; ok=false means
	// the stream is closed.
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
	Mem    MemAccount
	CPU    CPUCharger
	// Spill is the statement's spill manager: the shared operator-memory
	// budget blocking operators reserve against, and the temp-file registry
	// they spill to when it is exhausted. nil = spilling disabled (operators
	// grow in memory until the resource group cancels the query).
	Spill *SpillManager
	// CPUBatchCost is the simulated CPU time charged per processed batch of
	// rows; zero disables charging.
	CPUBatchCost time.Duration
	// CPUBatchRows is the batch size for CPU charging (default 128).
	CPUBatchRows int
	// BatchSize is the executor's rows-per-batch for vectorized operators
	// (0 = types.DefaultBatchSize).
	BatchSize int
	// Parallel is the slice's degree of intra-segment parallelism: when > 1
	// (and the slice shape and storage engine allow it) BuildBatchParallel
	// runs that many worker pipelines over disjoint block ranges.
	Parallel    int
	NumSegments int
	SegID       int // -1 = coordinator
	// NodeRows, when set, receives each plan node's actual output row count
	// (summed across slices and segments) for EXPLAIN ANALYZE and the
	// optimizer's risk-bound misestimate check.
	NodeRows *plan.NodeRowCounts
	// Ops, when set, receives per-node per-segment executor statistics
	// (rows, batches, inclusive wall time, peak operator memory, spill
	// bytes) for operator-level EXPLAIN ANALYZE and per-operator trace
	// spans. Unlike NodeRows it times every NextBatch call, so it is only
	// armed for statements that asked for it.
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

// cpuTick charges one batch worth of CPU every CPUBatchRows rows.
type cpuTick struct {
	ctx  *Context
	rows int
}

func (t *cpuTick) tick() error { return t.tickRows(1) }

// tickRows advances the charge counter by n rows at once (one call per
// processed batch in the vectorized operators) and charges a batch quantum
// for every CPUBatchRows rows crossed.
func (t *cpuTick) tickRows(n int) error {
	if t.ctx.CPU == nil || t.ctx.CPUBatchCost <= 0 || n <= 0 {
		return nil
	}
	batch := t.ctx.CPUBatchRows
	if batch <= 0 {
		batch = 128
	}
	t.rows += n
	for t.rows >= batch {
		t.rows -= batch
		if err := t.ctx.CPU.ChargeCPU(t.ctx.Ctx, t.ctx.CPUBatchCost); err != nil {
			return err
		}
	}
	return nil
}
