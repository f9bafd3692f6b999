package storage

import (
	"sync"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// Heap is the row-oriented MVCC engine: every INSERT or UPDATE appends a new
// version stamped with the writing transaction; DELETE and UPDATE stamp the
// old version's xmax. Visibility is decided by the caller from the headers.
//
// Suitable for frequent updates and deletes (paper Fig. 5), i.e. the OLTP
// side of an HTAP workload.
type Heap struct {
	mu   sync.RWMutex
	tups []heapTuple

	// zones lazily summarizes full zonePageRows pages for predicated scans.
	// Stored row values at an offset never change (UPDATE appends a new
	// version, VACUUM only nils rows out), so built summaries stay
	// conservative; only Truncate resets them.
	zones lazyZones

	// wal, when attached, receives one record per mutation, appended under
	// h.mu so the log order equals the mutation order.
	wal walRef
}

// SetWAL implements WALLogged.
func (h *Heap) SetWAL(l *wal.Log, leaf uint64) {
	h.mu.Lock()
	h.wal = walRef{log: l, leaf: leaf}
	h.mu.Unlock()
}

type heapTuple struct {
	xmin      txn.XID
	xmax      txn.XID
	updatedTo TupleID
	row       types.Row
}

// NewHeap returns an empty heap table.
func NewHeap() *Heap { return &Heap{} }

// Kind implements Engine.
func (h *Heap) Kind() string { return "heap" }

// Insert implements Engine.
func (h *Heap) Insert(x txn.XID, row types.Row) TupleID {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tups = append(h.tups, heapTuple{xmin: x, row: row.Clone()})
	tid := TupleID(len(h.tups)) // 1-based; 0 is invalid
	h.wal.logInsert(tid, x, row)
	return tid
}

// Scan implements Engine: each chunk is filled under one read latch and
// hands up the stored rows, which are never rewritten in place (UPDATE
// appends a new version). A chunk ends before a vacuumed tombstone and the
// next starts after it, so no tombstone is handed up and a row's tuple id
// stays First + i.
func (h *Heap) Scan(r BlockRange, opts *ScanOpts, batchSize int, fn func(*Chunk) bool) error {
	c := newRowChunk(batchSize)
	scanRowPages(r, opts, h.RowCount, h.pageZone, func(lo, hi int) bool {
		for lo < hi {
			h.mu.RLock()
			hi = min(hi, len(h.tups)) // a TRUNCATE meanwhile ends the scan
			for ; lo < hi && !c.full(); lo++ {
				t := &h.tups[lo]
				if t.row == nil {
					if c.n > 0 {
						break
					}
					continue
				}
				c.add(TupleID(lo+1), t.xmin, t.xmax, t.updatedTo, t.row)
			}
			h.mu.RUnlock()
			if !c.flush(fn) {
				return false
			}
		}
		return true
	})
	return nil
}

// Fetch implements Engine.
func (h *Heap) Fetch(tid TupleID) (Header, types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	i := int(tid) - 1
	if i < 0 || i >= len(h.tups) || h.tups[i].row == nil {
		return Header{}, nil, false
	}
	t := h.tups[i]
	return Header{TID: tid, Xmin: t.xmin, Xmax: t.xmax, UpdatedTo: t.updatedTo}, t.row, true
}

// SetXmax implements Engine.
func (h *Heap) SetXmax(tid TupleID, x txn.XID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := int(tid) - 1
	if i < 0 || i >= len(h.tups) {
		return ErrNotSupported
	}
	t := &h.tups[i]
	if t.xmax != txn.InvalidXID && t.xmax != x {
		return &ErrConcurrentWrite{Holder: t.xmax}
	}
	t.xmax = x
	h.wal.logOp(wal.TypeSetXmax, tid, x, 0)
	return nil
}

// ClearXmax implements Engine.
func (h *Heap) ClearXmax(tid TupleID, prev txn.XID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := int(tid) - 1
	if i < 0 || i >= len(h.tups) {
		return
	}
	t := &h.tups[i]
	if t.xmax == prev {
		t.xmax = txn.InvalidXID
		t.updatedTo = InvalidTupleID
		h.wal.logOp(wal.TypeClearXmax, tid, prev, 0)
	}
}

// LinkUpdate implements Engine.
func (h *Heap) LinkUpdate(old, new TupleID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := int(old) - 1
	if i >= 0 && i < len(h.tups) {
		h.tups[i].updatedTo = new
		h.wal.logOp(wal.TypeLinkUpdate, old, 0, new)
	}
}

// Truncate implements Engine.
func (h *Heap) Truncate() {
	h.mu.Lock()
	h.tups = nil
	h.wal.logOp(wal.TypeTruncate, 0, 0, 0)
	h.mu.Unlock()
	h.zones.reset()
}

// ResetDerived implements DerivedResettable: drops the lazy zone-map pages
// (promotion must not trust summaries built while the engine was a mirror).
func (h *Heap) ResetDerived() { h.zones.reset() }

// ZonePagesBuilt counts materialized lazy zone pages (tests).
func (h *Heap) ZonePagesBuilt() int { return h.zones.built() }

// pageZone builds (or fetches) the zone map of one full page.
func (h *Heap) pageZone(page int) *ZoneMap {
	return h.zones.zone(page, func() *ZoneMap {
		h.mu.RLock()
		defer h.mu.RUnlock()
		begin := page * zonePageRows
		end := min(begin+zonePageRows, len(h.tups))
		ncols := 0
		for i := begin; i < end; i++ {
			if r := h.tups[i].row; r != nil && len(r) > ncols {
				ncols = len(r)
			}
		}
		z := newZoneBuilder(ncols)
		for i := begin; i < end; i++ {
			if r := h.tups[i].row; r != nil {
				z.absorb(r)
			}
		}
		return z
	})
}

// RowCount implements Engine.
func (h *Heap) RowCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.tups)
}

// Bytes implements Engine.
func (h *Heap) Bytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var n int64
	for i := range h.tups {
		n += h.tups[i].row.Size() + 32 // header overhead
	}
	return n
}

// Vacuum removes dead versions: versions whose xmax committed before the
// horizon, or whose xmin aborted. It returns the number reclaimed. Slots are
// compacted away but TupleIDs of surviving tuples are preserved by keeping a
// tombstone, so the method only frees row payloads (like lazy VACUUM).
func (h *Heap) Vacuum(isDead func(hdr Header) bool) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i := range h.tups {
		t := &h.tups[i]
		if t.row == nil {
			continue
		}
		hdr := Header{TID: TupleID(i + 1), Xmin: t.xmin, Xmax: t.xmax, UpdatedTo: t.updatedTo}
		if isDead(hdr) {
			t.row = nil
			t.xmin = txn.InvalidXID
			n++
		}
	}
	return n
}
