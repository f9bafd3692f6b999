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
//
// Tuples live in pages of zonePageRows slots — the pages the lazy zone maps
// summarize — so tuple id t is slot (t-1) % zonePageRows of page
// (t-1) / zonePageRows. A page is an array of slot headers plus one arena of
// datums its rows are copied into, back to back; Scan and Fetch hand up
// views of the arena capped at the row's width. Datums in an arena are never
// rewritten: a view outlives the latch it was taken under.
type Heap struct {
	mu    sync.RWMutex
	pages []heapPage
	n     int // stored versions, vacuumed slots included

	// zones lazily summarizes full pages for predicated scans. Stored row
	// values at an offset never change (UPDATE appends a new version,
	// pruning only marks slots dead), so built summaries stay conservative;
	// only Truncate resets them.
	zones lazyZones

	// wal, when attached, receives one record per mutation, appended under
	// h.mu so the log order equals the mutation order.
	wal walRef
}

// heapPage holds up to zonePageRows tuples: their headers in slots, their
// values in vals. The first page grows by doubling; later pages are made
// whole when their first row arrives, sized by its width.
type heapPage struct {
	slots []heapSlot
	vals  []types.Datum
	dead  int // slots marked dead
}

// heapSlot is one version's MVCC header and its row, vals[off : off+width]
// of its page; off == deadSlot marks a vacuumed version.
type heapSlot struct {
	xmin, xmax txn.XID
	updatedTo  TupleID
	off, width uint32
}

const deadSlot = ^uint32(0)

// growPage returns s with room for k more elements, reallocated at double its
// capacity (at least 8k, at most limit unless k needs more) when it is full.
// The old array is only no longer written: views of it stay valid.
func growPage[T any](s []T, k, limit int) []T {
	if len(s)+k <= cap(s) {
		return s
	}
	grown := make([]T, len(s), max(len(s)+k, min(max(2*cap(s), 8*k), limit)))
	copy(grown, s)
	return grown
}

// row returns slot s's values as a view capped at its width.
func (p *heapPage) row(s *heapSlot) types.Row {
	return p.vals[s.off : s.off+s.width : s.off+s.width]
}

// slot returns tid's slot and its page, or nil when tid was never stored.
func (h *Heap) slot(tid TupleID) (*heapSlot, *heapPage) {
	i := int(tid) - 1
	if i < 0 || i >= h.n {
		return nil, nil
	}
	p := &h.pages[i/zonePageRows]
	return &p.slots[i%zonePageRows], p
}

// SetWAL implements WALLogged.
func (h *Heap) SetWAL(l *wal.Log, leaf uint64) {
	h.mu.Lock()
	h.wal = walRef{log: l, leaf: leaf}
	h.mu.Unlock()
}

// NewHeap returns an empty heap table.
func NewHeap() *Heap { return &Heap{} }

// Kind implements Engine.
func (h *Heap) Kind() string { return "heap" }

// Insert implements Engine: it copies row into the last page's arena.
func (h *Heap) Insert(x txn.XID, row types.Row) TupleID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n%zonePageRows == 0 {
		var p heapPage
		if len(h.pages) > 0 { // the table outgrew a page: make the next whole
			p = heapPage{slots: make([]heapSlot, 0, zonePageRows), vals: make([]types.Datum, 0, zonePageRows*len(row))}
		}
		h.pages = append(h.pages, p)
	}
	p := &h.pages[len(h.pages)-1]
	p.slots = growPage(p.slots, 1, zonePageRows)
	p.vals = growPage(p.vals, len(row), zonePageRows*len(row))
	off := len(p.vals)
	p.vals = append(p.vals, row...)
	p.slots = append(p.slots, heapSlot{xmin: x, off: uint32(off), width: uint32(len(row))})
	h.n++
	tid := TupleID(h.n) // 1-based; 0 is invalid
	h.wal.logInsert(tid, x, row)
	return tid
}

// Scan implements Engine: each chunk is filled under one read latch and
// hands up views of the stored rows, which are never rewritten in place
// (UPDATE appends a new version). A chunk ends before a vacuumed slot and
// the next starts after it, so no dead slot is handed up and a row's tuple
// id stays First + i.
func (h *Heap) Scan(opts *ScanOpts, batchSize int, fn func(*Chunk) bool) error {
	c := newRowChunk(batchSize)
	scanRowPages(opts, h.RowCount, h.pageZone, func(lo, hi int) bool {
		for lo < hi {
			h.mu.RLock()
			hi = min(hi, h.n) // a TRUNCATE meanwhile ends the scan
			lo = h.fill(c, lo, hi)
			h.mu.RUnlock()
			if !c.flush(fn) {
				return false
			}
		}
		return true
	})
	return nil
}

// fill adds the versions at offsets lo, lo+1, … below hi to c, a page at a
// time, until c is full or a dead slot follows a live one, and returns the
// offset it stopped at. The caller holds the read latch.
func (h *Heap) fill(c *rowChunk, lo, hi int) int {
	for lo < hi && !c.full() {
		p := &h.pages[lo/zonePageRows]
		first := lo - lo%zonePageRows
		// At most the chunk's room: a skipped dead slot takes none, so this
		// may stop short of full, and the loop goes round again.
		slots := p.slots[lo-first : min(hi-first, len(p.slots), lo-first+len(c.rows)-c.n)]
		vals := p.vals
		for i := range slots {
			s := &slots[i]
			if s.off == deadSlot {
				if c.n > 0 {
					return lo + i
				}
				continue
			}
			c.add(TupleID(lo+i+1), s.xmin, s.xmax, s.updatedTo, vals[s.off:s.off+s.width:s.off+s.width])
		}
		lo += len(slots)
	}
	return lo
}

// Fetch implements Engine.
func (h *Heap) Fetch(tid TupleID) (Header, types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, p := h.slot(tid)
	if s == nil || s.off == deadSlot {
		return Header{}, nil, false
	}
	return Header{TID: tid, Xmin: s.xmin, Xmax: s.xmax, UpdatedTo: s.updatedTo}, p.row(s), true
}

// SetXmax implements Engine.
func (h *Heap) SetXmax(tid TupleID, x txn.XID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, _ := h.slot(tid)
	if s == nil {
		return ErrNotSupported
	}
	if s.xmax != txn.InvalidXID && s.xmax != x {
		return &ErrConcurrentWrite{Holder: s.xmax}
	}
	s.xmax = x
	h.wal.logOp(wal.TypeSetXmax, tid, x, 0)
	return nil
}

// ClearXmax implements Engine.
func (h *Heap) ClearXmax(tid TupleID, prev txn.XID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, _ := h.slot(tid); s != nil && s.xmax == prev {
		s.xmax = txn.InvalidXID
		s.updatedTo = InvalidTupleID
		h.wal.logOp(wal.TypeClearXmax, tid, prev, 0)
	}
}

// LinkUpdate implements Engine.
func (h *Heap) LinkUpdate(old, new TupleID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, _ := h.slot(old); s != nil {
		s.updatedTo = new
		h.wal.logOp(wal.TypeLinkUpdate, old, 0, new)
	}
}

// Truncate implements Engine.
func (h *Heap) Truncate() {
	h.mu.Lock()
	h.pages, h.n = nil, 0
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
		if page >= len(h.pages) { // truncated meanwhile
			return newZoneBuilder(0)
		}
		p := &h.pages[page]
		ncols := 0
		for i := range p.slots {
			if s := &p.slots[i]; s.off != deadSlot {
				ncols = max(ncols, int(s.width))
			}
		}
		z := newZoneBuilder(ncols)
		for i := range p.slots {
			if s := &p.slots[i]; s.off != deadSlot {
				z.absorb(p.row(s))
			}
		}
		return z
	})
}

// RowCount implements Engine.
func (h *Heap) RowCount() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// Bytes implements Engine.
func (h *Heap) Bytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var n int64
	for pi := range h.pages {
		p := &h.pages[pi]
		for i := range p.slots {
			var row types.Row // a vacuumed slot's
			if s := &p.slots[i]; s.off != deadSlot {
				row = p.row(s)
			}
			n += row.Size() + 32 // header overhead
		}
	}
	return n
}

// Prune marks version tid dead and reports whether this call did: the
// one-slot form of VACUUM, for a version its caller found dead. TupleIDs are
// never reused, so the slot stays as a dead marker (like lazy VACUUM); a
// page whose slots are all dead drops its arena. Datums are never cleared: a
// view taken before may still be reading them.
func (h *Heap) Prune(tid TupleID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, p := h.slot(tid)
	if s == nil || s.off == deadSlot {
		return false
	}
	s.off, s.xmin = deadSlot, txn.InvalidXID
	if p.dead++; p.dead == zonePageRows {
		p.vals = nil
	}
	return true
}
