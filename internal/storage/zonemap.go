package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Zone maps are the storage half of predicate pushdown: per-block (or, for
// the row engines, per-page) column summaries — min, max, null count — that
// let a scan prove "no row in this block can satisfy the pushed predicate"
// and skip the block without decoding or visiting it. Skipping is always
// sound with respect to MVCC: a zone map summarizes every stored version, so
// a block it rejects contains no version that could both be visible and pass
// the row filter.
//
// The column store computes zone maps eagerly when a block is sealed (the
// values are in hand and the block is immutable from then on). The heap and
// AO-row engines compute them lazily per fixed-size page on first predicated
// scan: their stored row values are append-only too (UPDATE appends a new
// version, DELETE only stamps headers, pruning only marks slots dead), so a
// page's summary stays a conservative superset of its live values forever
// and only TRUNCATE invalidates it.

// zonePageRows is the page granularity of lazy zone maps on the row engines.
const zonePageRows = 1024

// ZoneMap summarizes the column values of one block: per-column min/max over
// non-null values and the null count. Mins[c]/Maxs[c] are meaningful only
// when NullCnt[c] < Rows. MinLen is the shortest row length seen while
// building — a conjunct on a column some row doesn't even have must not skip
// the block (the row-level filter is what reports that error).
type ZoneMap struct {
	Rows    int
	MinLen  int
	Mins    []types.Datum
	Maxs    []types.Datum
	NullCnt []int
}

// newZoneBuilder returns an empty zone map ready to absorb rows of up to
// ncols columns.
func newZoneBuilder(ncols int) *ZoneMap {
	z := &ZoneMap{
		Mins:    make([]types.Datum, ncols),
		Maxs:    make([]types.Datum, ncols),
		NullCnt: make([]int, ncols),
		MinLen:  ncols,
	}
	return z
}

// absorb folds one row into the zone map.
func (z *ZoneMap) absorb(row types.Row) {
	z.Rows++
	if len(row) < z.MinLen {
		z.MinLen = len(row)
	}
	for c := range z.Mins {
		var d types.Datum
		if c < len(row) {
			d = row[c]
		}
		if d.IsNull() {
			z.NullCnt[c]++
			continue
		}
		nonNull := z.Rows - z.NullCnt[c]
		if nonNull == 1 || types.Compare(d, z.Mins[c]) < 0 {
			z.Mins[c] = d
		}
		if nonNull == 1 || types.Compare(d, z.Maxs[c]) > 0 {
			z.Maxs[c] = d
		}
	}
}

// buildZoneFromColumns builds a zone map from column vectors (seal path of
// the column store: all rows have exactly ncols columns).
func buildZoneFromColumns(cols [][]types.Datum, n int) ZoneMap {
	z := newZoneBuilder(len(cols))
	z.Rows = n
	z.MinLen = len(cols)
	for c, vec := range cols {
		first := true
		for r := 0; r < n; r++ {
			d := vec[r]
			if d.IsNull() {
				z.NullCnt[c]++
				continue
			}
			if first || types.Compare(d, z.Mins[c]) < 0 {
				z.Mins[c] = d
			}
			if first || types.Compare(d, z.Maxs[c]) > 0 {
				z.Maxs[c] = d
			}
			first = false
		}
	}
	return *z
}

// admits reports whether the block z describes may hold a row satisfying
// every pushed conjunct of pred; false means each row fails some conjunct and
// the block can be skipped wholesale. The test is advisory: a block it cannot
// rule out is scanned and every surviving row still passes through the full
// row-level filter, so an over-conservative check costs time, never
// correctness. Every pushed operator needs a non-NULL value to hold, so a
// column that is all NULL in the block rules the block out.
func (z *ZoneMap) admits(pred []types.Conjunct) bool {
	if z == nil || z.Rows == 0 {
		return true
	}
	for i := range pred {
		c := &pred[i]
		if c.Col < 0 || c.Col >= len(z.Mins) || c.Col >= z.MinLen {
			continue // column not summarized (or missing from some row): cannot judge
		}
		if z.NullCnt[c.Col] >= z.Rows || !c.MayMatch(z.Mins[c.Col], z.Maxs[c.Col], false) {
			return false
		}
	}
	return true
}

// ScanStats counts block-granular scan work. The segment layer owns one per
// statement and adds it to the cluster's cumulative counters, so both
// per-query (EXPLAIN ANALYZE) and cluster-wide (SHOW scan_stats) numbers come
// from the same source. A "block" is the engine's skip unit: a sealed block
// for the column store, a zonePageRows page for the row engines, and the
// unsealed tail/trailing partial page counts as one scanned unit when
// visited.
type ScanStats struct {
	BlocksScanned atomic.Int64
	BlocksSkipped atomic.Int64
}

// ScanOpts bundles the optional knobs of a batch scan: column projection,
// the pushed-down predicate for zone-map skipping, and the stats sink. A nil
// *ScanOpts (or any nil field) means scan everything and count nothing.
type ScanOpts struct {
	// Cols lists the column offsets to populate in emitted rows (nil = all);
	// the column store decodes proportionally less.
	Cols []int
	// Pred is the pushed-down conjunction used to skip whole blocks via
	// zone maps. Rows of surviving blocks are NOT filtered — the executor's
	// row-level filter still applies the full predicate.
	Pred []types.Conjunct
	// Stats, when non-nil, receives per-block scanned/skipped counts.
	Stats *ScanStats
}

// cols returns the projection column set (nil = all).
func (o *ScanOpts) cols() []int {
	if o == nil {
		return nil
	}
	return o.Cols
}

// pred returns the pushed predicate (nil = none).
func (o *ScanOpts) pred() []types.Conjunct {
	if o == nil {
		return nil
	}
	return o.Pred
}

// noteScanned counts one visited block.
func (o *ScanOpts) noteScanned() {
	if o != nil && o.Stats != nil {
		o.Stats.BlocksScanned.Add(1)
	}
}

// noteSkipped counts one zone-map-skipped block.
func (o *ScanOpts) noteSkipped() {
	if o != nil && o.Stats != nil {
		o.Stats.BlocksSkipped.Add(1)
	}
}

// lazyZones caches per-page zone maps for the row engines. Pages are only
// summarized once they are full (a full page never gains rows, and stored
// row values never change), so an entry, once built, stays conservative
// until reset on TRUNCATE.
type lazyZones struct {
	mu    sync.Mutex
	zones []*ZoneMap
}

// zone returns the cached zone map for page, building it with build on first
// use. build runs under the lazyZones lock (it takes the engine's read lock
// internally); it must summarize exactly the rows [page*zonePageRows,
// (page+1)*zonePageRows).
func (l *lazyZones) zone(page int, build func() *ZoneMap) *ZoneMap {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.zones) <= page {
		l.zones = append(l.zones, nil)
	}
	if l.zones[page] == nil {
		l.zones[page] = build()
	}
	return l.zones[page]
}

// reset drops every cached page summary (TRUNCATE, mirror promotion).
func (l *lazyZones) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.zones = nil
}

// built counts the page summaries currently materialized (tests).
func (l *lazyZones) built() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, z := range l.zones {
		if z != nil {
			n++
		}
	}
	return n
}
