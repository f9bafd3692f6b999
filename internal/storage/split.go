package storage

import (
	"math"

	"repro/internal/types"
)

// BlockRange is a half-open range [Begin, End) of row offsets within one
// table (offset = TupleID - 1). Ranges produced by SplitBlocks are disjoint,
// cover the table's rows at the time of the call, and — for the column store
// — are aligned to sealed-block boundaries so parallel workers never decode
// the same block.
type BlockRange struct {
	Begin, End int
}

// WholeTable is the open-ended range of a full scan. Where an engine chases
// its tail (the column store's ScanVectors) it also covers rows appended
// while the scan runs.
var WholeTable = BlockRange{End: math.MaxInt}

// Rows returns the number of row offsets the range covers.
func (r BlockRange) Rows() int { return r.End - r.Begin }

// BlockSplitter is implemented by engines that can partition their row space
// for intra-segment parallel scans: SplitBlocks plans at most n disjoint
// ranges and ForEachBatchRange runs the batch scan protocol of
// BatchScanner.ForEachBatch over one of them.
type BlockSplitter interface {
	BatchScanner
	// SplitBlocks partitions the current rows into at most n disjoint,
	// covering, ascending ranges. Fewer than n ranges are returned when the
	// table has fewer natural split points (e.g. fewer sealed blocks than
	// workers); a zero-row table yields an explicit empty (non-nil,
	// zero-length) split so callers can tell "nothing to scan" apart from
	// "cannot split" (nil from an engine without the capability).
	SplitBlocks(n int) []BlockRange
	// ForEachBatchRange restricts the batch scan protocol to r: it visits
	// the tuple versions whose offsets fall in [r.Begin, r.End) in tuple-id
	// order, at most batchSize rows per callback, honouring opts (column
	// projection, zone-map block skipping, scan counters) with the same
	// ownership rules as the full scan. Rows appended concurrently with the
	// scan may be skipped (the range was planned against a snapshot of the
	// table).
	ForEachBatchRange(r BlockRange, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool)
}

// splitEven divides [0, count) into at most n near-equal ranges for the
// heap and AO-row engines, aligning interior boundaries to zonePageRows so
// a zone-map page is never shared by two workers — each worker skips (and
// counts) whole pages independently, mirroring the AO-column engine's
// sealed-block alignment. Tables smaller than a page yield fewer (possibly
// one) ranges. Zero rows yield an explicit empty split.
func splitEven(count, n int) []BlockRange {
	if count <= 0 || n < 1 {
		return []BlockRange{}
	}
	if n > count {
		n = count
	}
	out := make([]BlockRange, 0, n)
	begin := 0
	for i := 1; i <= n && begin < count; i++ {
		end := count * i / n
		if i < n {
			end = end / zonePageRows * zonePageRows // align down to a page boundary
		} else {
			end = count
		}
		if end <= begin {
			continue // alignment collapsed this share into the next one
		}
		out = append(out, BlockRange{Begin: begin, End: end})
		begin = end
	}
	return out
}

// SplitBlocks implements BlockSplitter for the heap engine.
func (h *Heap) SplitBlocks(n int) []BlockRange {
	h.mu.RLock()
	count := len(h.tups)
	h.mu.RUnlock()
	return splitEven(count, n)
}

// ForEachBatchRange implements BlockSplitter for the heap engine.
func (h *Heap) ForEachBatchRange(r BlockRange, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	h.mu.RLock()
	n := len(h.tups)
	h.mu.RUnlock()
	begin, end := clampRange(r, n)
	h.scanPages(begin, end, opts, batchSize, fn)
}

// SplitBlocks implements BlockSplitter for the AO-row engine.
func (a *AORow) SplitBlocks(n int) []BlockRange {
	a.mu.RLock()
	count := a.count
	a.mu.RUnlock()
	return splitEven(count, n)
}

// ForEachBatchRange implements BlockSplitter for the AO-row engine.
func (a *AORow) ForEachBatchRange(r BlockRange, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	a.mu.RLock()
	count := a.count
	a.mu.RUnlock()
	begin, end := clampRange(r, count)
	a.scanPages(begin, end, opts, batchSize, fn)
}

// SplitBlocks implements BlockSplitter for the AO-column engine: ranges are
// aligned to sealed-block boundaries (the decode unit), balancing rows per
// range; the unsealed tail rides with the last range. A table with fewer
// sealed blocks than requested workers yields fewer ranges; a zero-row table
// yields an explicit empty split.
func (a *AOColumn) SplitBlocks(n int) []BlockRange {
	a.mu.RLock()
	units := make([]int, 0, len(a.sealed)+1)
	for i := range a.sealed {
		units = append(units, a.sealed[i].n)
	}
	if len(a.tailX) > 0 {
		units = append(units, len(a.tailX))
	}
	count := a.count
	a.mu.RUnlock()
	if count <= 0 || n < 1 {
		return []BlockRange{}
	}
	if n == 1 || len(units) == 1 {
		return []BlockRange{{Begin: 0, End: count}}
	}
	// Greedy bin close: a range closes once it reaches the ideal share, so at
	// most n ranges are produced while respecting unit boundaries.
	ideal := (count + n - 1) / n
	out := make([]BlockRange, 0, n)
	begin, acc := 0, 0
	off := 0
	for _, u := range units {
		off += u
		acc += u
		if acc >= ideal && len(out) < n-1 {
			out = append(out, BlockRange{Begin: begin, End: off})
			begin, acc = off, 0
		}
	}
	if begin < count {
		out = append(out, BlockRange{Begin: begin, End: count})
	}
	return out
}

// clampRange bounds r to [0, count).
func clampRange(r BlockRange, count int) (begin, end int) {
	begin = max(0, r.Begin)
	end = min(r.End, count)
	return begin, end
}
