package storage

import "repro/internal/types"

// BatchScanner is the batch-at-a-time scan interface of the storage layer.
// Engines that implement it deliver rows in bounded batches so the executor
// pays one call (and the column store one block decode) per batch instead of
// one per row.
type BatchScanner interface {
	// ForEachBatch visits every tuple version in tuple-id order, at most
	// batchSize rows at a time, honouring opts: when opts.Cols is non-nil
	// only those column offsets are populated in the emitted rows (others
	// are NULL) — the column store decodes proportionally less — and when
	// opts.Pred is non-nil, blocks whose zone map proves no row can satisfy
	// the predicate are skipped without being decoded or visited (rows of
	// surviving blocks are NOT filtered). hdrs[i] describes rows[i]. A nil
	// opts scans everything.
	//
	// Ownership: the rows themselves may be retained by the callee (they are
	// freshly built, or stable stored rows that are never mutated in place);
	// the hdrs and rows container slices are only valid during the call.
	// Iteration stops when fn returns false.
	ForEachBatch(opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool)
}

// ScanBatches drives e's batch scan path when the engine implements
// BatchScanner, and otherwise adapts the row-at-a-time ForEach by cloning
// each row into a bounded batch (clone because ForEach's rows are only valid
// during the callback). The fallback cannot skip blocks — zone maps are a
// property of the batch engines.
func ScanBatches(e Engine, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	if batchSize < 1 {
		batchSize = types.DefaultBatchSize
	}
	if bs, ok := e.(BatchScanner); ok {
		bs.ForEachBatch(opts, batchSize, fn)
		return
	}
	hdrs := make([]Header, 0, batchSize)
	rows := make([]types.Row, 0, batchSize)
	stopped := false
	e.ForEach(func(h Header, row types.Row) bool {
		hdrs = append(hdrs, h)
		rows = append(rows, row.Clone())
		if len(rows) == batchSize {
			if !fn(hdrs, rows) {
				stopped = true
				return false
			}
			hdrs = hdrs[:0]
			rows = rows[:0]
		}
		return true
	})
	if !stopped && len(rows) > 0 {
		fn(hdrs, rows)
	}
}

// scanRowPages drives the page-granular scan shared by the row engines
// (heap, AO-row) over row offsets [begin, end): full pages whose lazy zone
// map rules out the pushed predicate are skipped wholesale, everything else
// is handed to emit in page units. Without a predicate or stats sink the
// page structure is bypassed entirely (no zone maps are built). rowCount
// snapshots the engine's current row count — only full pages are
// summarized, since a partial trailing page is still growing; zone fetches
// (or builds) one page's summary; emit scans [lo, hi) under the engine's
// batch protocol and returns false to stop.
func scanRowPages(begin, end int, opts *ScanOpts, rowCount func() int, zone func(page int) *ZoneMap, emit func(lo, hi int) bool) {
	pred := opts.pred()
	if pred == nil {
		// Nothing to skip: emit the whole range in the caller's batch size
		// (no per-page chunking) and count its pages in one shot.
		if opts != nil && opts.Stats != nil && end > begin {
			pages := (end-1)/zonePageRows - begin/zonePageRows + 1
			opts.Stats.BlocksScanned.Add(int64(pages))
		}
		emit(begin, end)
		return
	}
	// One count snapshot for the whole loop: row counts only grow, and a
	// stale count merely classifies a newly-filled page as partial (scanned,
	// not skipped) — under-skipping is always safe.
	count := rowCount()
	for p := begin / zonePageRows; p*zonePageRows < end; p++ {
		lo := max(begin, p*zonePageRows)
		hi := min(end, (p+1)*zonePageRows)
		full := (p+1)*zonePageRows <= count
		if pred != nil && full && !pred.MatchZone(zone(p)) {
			opts.noteSkipped()
			continue
		}
		opts.noteScanned()
		if !emit(lo, hi) {
			return
		}
	}
}

// scanPages runs the heap's batched row emission over [begin, end) through
// the shared page-skip loop.
func (h *Heap) scanPages(begin, end int, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	hdrs := make([]Header, 0, batchSize)
	rows := make([]types.Row, 0, batchSize)
	emit := func(lo, hi int) bool {
		for start := lo; start < hi; start += batchSize {
			stop := min(start+batchSize, hi)
			h.mu.RLock()
			for i := start; i < stop; i++ {
				t := h.tups[i]
				if t.row == nil {
					continue // vacuumed tombstone
				}
				hdrs = append(hdrs, Header{TID: TupleID(i + 1), Xmin: t.xmin, Xmax: t.xmax, UpdatedTo: t.updatedTo})
				rows = append(rows, t.row)
			}
			h.mu.RUnlock()
			if len(rows) > 0 && !fn(hdrs, rows) {
				return false
			}
			hdrs = hdrs[:0]
			rows = rows[:0]
		}
		return true
	}
	count := func() int {
		h.mu.RLock()
		defer h.mu.RUnlock()
		return len(h.tups)
	}
	scanRowPages(begin, end, opts, count, h.pageZone, emit)
}

// ForEachBatch implements BatchScanner for the heap engine. Stored rows are
// never mutated in place (UPDATE appends a new version), so batches hand out
// the stored row headers without cloning and take the table lock once per
// batch instead of once per row.
func (h *Heap) ForEachBatch(opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	h.mu.RLock()
	n := len(h.tups)
	h.mu.RUnlock()
	h.scanPages(0, n, opts, batchSize, fn)
}

// scanPages runs the AO-row engine's batched row emission over [begin, end)
// through the shared page-skip loop.
func (a *AORow) scanPages(begin, end int, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	hdrs := make([]Header, 0, batchSize)
	rows := make([]types.Row, 0, batchSize)
	emit := func(lo, hi int) bool {
		for start := lo; start < hi; start += batchSize {
			stop := min(start+batchSize, hi)
			a.mu.RLock()
			for i := start; i < stop; i++ {
				tid := TupleID(i + 1)
				r, ok := a.fetchLocked(tid)
				if !ok {
					break
				}
				hdrs = append(hdrs, Header{TID: tid, Xmin: r.xmin, Xmax: a.visimap[tid], UpdatedTo: a.updated[tid]})
				rows = append(rows, r.row)
			}
			a.mu.RUnlock()
			if len(rows) > 0 && !fn(hdrs, rows) {
				return false
			}
			hdrs = hdrs[:0]
			rows = rows[:0]
		}
		return true
	}
	count := func() int {
		a.mu.RLock()
		defer a.mu.RUnlock()
		return a.count
	}
	scanRowPages(begin, end, opts, count, a.pageZone, emit)
}

// ForEachBatch implements BatchScanner for the AO-row engine: one lock
// acquisition per batch, stored rows handed out without cloning.
func (a *AORow) ForEachBatch(opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) {
	a.mu.RLock()
	count := a.count
	a.mu.RUnlock()
	a.scanPages(0, count, opts, batchSize, fn)
}
