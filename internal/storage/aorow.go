package storage

import (
	"sync"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// AORow is the append-optimized row-oriented engine. Rows are appended to
// large blocks and never rewritten in place; DELETE is recorded in a side
// visibility map (like Greenplum's aovisimap auxiliary table) and UPDATE is
// delete + insert. Bulk I/O friendly, random access hostile — the engine the
// paper recommends for analytic fact tables loaded in batches.
type AORow struct {
	mu     sync.RWMutex
	blocks [][]aoRow
	count  int
	// visimap maps a deleted row number to the deleting xid.
	visimap map[TupleID]txn.XID
	// updated maps an old row number to its replacement (ctid chain).
	updated map[TupleID]TupleID

	// zones lazily summarizes full zonePageRows pages for predicated scans;
	// appended rows are never rewritten, so summaries stay conservative and
	// only Truncate resets them.
	zones lazyZones

	// wal, when attached, receives one record per mutation, appended under
	// a.mu so the log order equals the mutation order.
	wal walRef
}

// SetWAL implements WALLogged.
func (a *AORow) SetWAL(l *wal.Log, leaf uint64) {
	a.mu.Lock()
	a.wal = walRef{log: l, leaf: leaf}
	a.mu.Unlock()
}

type aoRow struct {
	xmin txn.XID
	row  types.Row
}

// aoBlockSize is the number of rows per append block.
const aoBlockSize = 8192

// NewAORow returns an empty AO-row table.
func NewAORow() *AORow {
	return &AORow{
		visimap: make(map[TupleID]txn.XID),
		updated: make(map[TupleID]TupleID),
	}
}

// Kind implements Engine.
func (a *AORow) Kind() string { return "ao_row" }

// Insert implements Engine.
func (a *AORow) Insert(x txn.XID, row types.Row) TupleID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.blocks) == 0 || len(a.blocks[len(a.blocks)-1]) == aoBlockSize {
		a.blocks = append(a.blocks, make([]aoRow, 0, aoBlockSize))
	}
	last := len(a.blocks) - 1
	a.blocks[last] = append(a.blocks[last], aoRow{xmin: x, row: row.Clone()})
	a.count++
	tid := TupleID(a.count)
	a.wal.logInsert(tid, x, row)
	return tid
}

func (a *AORow) fetchLocked(tid TupleID) (aoRow, bool) {
	i := int(tid) - 1
	if i < 0 || i >= a.count {
		return aoRow{}, false
	}
	return a.blocks[i/aoBlockSize][i%aoBlockSize], true
}

// Scan implements Engine: each chunk is filled under one read latch and
// hands up the stored rows, which are never rewritten in place.
func (a *AORow) Scan(r BlockRange, opts *ScanOpts, batchSize int, fn func(*Chunk) bool) error {
	c := newRowChunk(batchSize)
	scanRowPages(r, opts, a.RowCount, a.pageZone, func(lo, hi int) bool {
		for lo < hi {
			a.mu.RLock()
			hi = min(hi, a.count) // a TRUNCATE meanwhile ends the scan
			meta := len(a.visimap)+len(a.updated) > 0
			for ; lo < hi && !c.full(); lo++ {
				tid, v := TupleID(lo+1), &a.blocks[lo/aoBlockSize][lo%aoBlockSize]
				var xmax txn.XID
				var upd TupleID
				if meta {
					xmax, upd = a.visimap[tid], a.updated[tid]
				}
				c.add(tid, v.xmin, xmax, upd, v.row)
			}
			a.mu.RUnlock()
			if !c.flush(fn) {
				return false
			}
		}
		return true
	})
	return nil
}

// Fetch implements Engine.
func (a *AORow) Fetch(tid TupleID) (Header, types.Row, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	r, ok := a.fetchLocked(tid)
	if !ok {
		return Header{}, nil, false
	}
	return Header{TID: tid, Xmin: r.xmin, Xmax: a.visimap[tid], UpdatedTo: a.updated[tid]}, r.row, true
}

// SetXmax implements Engine (records the delete in the visibility map).
func (a *AORow) SetXmax(tid TupleID, x txn.XID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.fetchLocked(tid); !ok {
		return ErrNotSupported
	}
	if holder, dead := a.visimap[tid]; dead && holder != x {
		return &ErrConcurrentWrite{Holder: holder}
	}
	a.visimap[tid] = x
	a.wal.logOp(wal.TypeSetXmax, tid, x, 0)
	return nil
}

// ClearXmax implements Engine.
func (a *AORow) ClearXmax(tid TupleID, prev txn.XID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.visimap[tid] == prev {
		delete(a.visimap, tid)
		delete(a.updated, tid)
		a.wal.logOp(wal.TypeClearXmax, tid, prev, 0)
	}
}

// LinkUpdate implements Engine.
func (a *AORow) LinkUpdate(old, new TupleID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.updated[old] = new
	a.wal.logOp(wal.TypeLinkUpdate, old, 0, new)
}

// Truncate implements Engine.
func (a *AORow) Truncate() {
	a.mu.Lock()
	a.blocks = nil
	a.count = 0
	a.visimap = make(map[TupleID]txn.XID)
	a.updated = make(map[TupleID]TupleID)
	a.wal.logOp(wal.TypeTruncate, 0, 0, 0)
	a.mu.Unlock()
	a.zones.reset()
}

// ResetDerived implements DerivedResettable: drops the lazy zone-map pages.
func (a *AORow) ResetDerived() { a.zones.reset() }

// ZonePagesBuilt counts materialized lazy zone pages (tests).
func (a *AORow) ZonePagesBuilt() int { return a.zones.built() }

// pageZone builds (or fetches) the zone map of one full page.
func (a *AORow) pageZone(page int) *ZoneMap {
	return a.zones.zone(page, func() *ZoneMap {
		a.mu.RLock()
		defer a.mu.RUnlock()
		begin := page * zonePageRows
		end := min(begin+zonePageRows, a.count)
		ncols := 0
		for i := begin; i < end; i++ {
			if r, ok := a.fetchLocked(TupleID(i + 1)); ok && len(r.row) > ncols {
				ncols = len(r.row)
			}
		}
		z := newZoneBuilder(ncols)
		for i := begin; i < end; i++ {
			if r, ok := a.fetchLocked(TupleID(i + 1)); ok {
				z.absorb(r.row)
			}
		}
		return z
	})
}

// RowCount implements Engine.
func (a *AORow) RowCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.count
}

// Bytes implements Engine.
func (a *AORow) Bytes() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var n int64
	for _, b := range a.blocks {
		for i := range b {
			n += b[i].row.Size() + 8
		}
	}
	return n
}
