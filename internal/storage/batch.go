package storage

import (
	"repro/internal/txn"
	"repro/internal/types"
)

// Chunk is one batch of Engine.Scan: the consecutive tuple versions First,
// First+1, …, as header vectors over one of two row layouts, like a
// types.RowBatch. The column store hands up Cols, a window of typed vectors
// indexed by column offset (a column the scan was not asked for is the zero
// Vec, which reads NULL) whose Vecs are shared by every chunk cut from one
// block; the row engines hand up Rows, their stored rows, and Cols is nil.
// Xmins is always set; Xmaxs and Updated are nil unless some row of the
// chunk is deleted respectively superseded.
//
// The chunk and its container slices are valid only during the callback;
// Cols, the Row values and the vectors' payloads are immutable and may be
// kept.
type Chunk struct {
	First   TupleID // tuple id of row 0
	Cols    *types.ColBatch
	Rows    []types.Row
	Xmins   []txn.XID
	Xmaxs   []txn.XID
	Updated []TupleID
}

// Len returns the number of tuple versions in the chunk.
func (c *Chunk) Len() int { return len(c.Xmins) }

// Header returns row i's MVCC header.
func (c *Chunk) Header(i int) Header {
	h := Header{TID: c.First + TupleID(i), Xmin: c.Xmins[i]}
	if c.Xmaxs != nil {
		h.Xmax = c.Xmaxs[i]
	}
	if c.Updated != nil {
		h.UpdatedTo = c.Updated[i]
	}
	return h
}

// Row returns row i: a row chunk's stored row, or position i of a column
// chunk gathered into dst (reallocated when too short).
func (c *Chunk) Row(dst types.Row, i int) types.Row {
	if c.Cols == nil {
		return c.Rows[i]
	}
	return c.Cols.RowInto(dst, i)
}

// rowChunk fills the row engines' chunks into buffers of batchSize reused
// from one chunk to the next; xmaxs and updated stay zero but where a row is
// deleted respectively superseded.
type rowChunk struct {
	Chunk
	n           int
	rows        []types.Row
	xmins       []txn.XID
	xmaxs       []txn.XID
	updated     []TupleID
	dead, moved bool
}

func newRowChunk(batchSize int) *rowChunk {
	if batchSize < 1 {
		batchSize = types.DefaultBatchSize
	}
	return &rowChunk{rows: make([]types.Row, batchSize), xmins: make([]txn.XID, batchSize),
		xmaxs: make([]txn.XID, batchSize), updated: make([]TupleID, batchSize)}
}

func (c *rowChunk) full() bool { return c.n == len(c.rows) }

// add appends one stored version.
func (c *rowChunk) add(tid TupleID, xmin, xmax txn.XID, upd TupleID, row types.Row) {
	if c.n == 0 {
		c.First = tid
	}
	c.rows[c.n], c.xmins[c.n] = row, xmin
	if xmax != txn.InvalidXID {
		c.xmaxs[c.n], c.dead = xmax, true
	}
	if upd != InvalidTupleID {
		c.updated[c.n], c.moved = upd, true
	}
	c.n++
}

// flush hands a non-empty chunk to fn and empties it; it reports whether the
// scan goes on.
func (c *rowChunk) flush(fn func(*Chunk) bool) bool {
	if c.n == 0 {
		return true
	}
	c.Rows, c.Xmins, c.Xmaxs, c.Updated = c.rows[:c.n], c.xmins[:c.n], nil, nil
	if c.dead {
		c.Xmaxs = c.xmaxs[:c.n]
	}
	if c.moved {
		c.Updated = c.updated[:c.n]
	}
	cont := fn(&c.Chunk)
	clear(c.Xmaxs)
	clear(c.Updated)
	c.n, c.dead, c.moved = 0, false, false
	return cont
}

// scanRowPages is the page loop of the row engines (heap, AO-row) over the
// offsets stored when it starts (rowCount): full pages whose lazy zone map
// rules out the pushed predicate are skipped wholesale, and emit scans the
// rest, [lo, hi) at a time, returning false to stop. Only full pages are
// summarized — a partial trailing page is still growing. Without a
// predicate the page structure is bypassed (no zone map is built) and the
// whole table goes to emit at once, its pages counted in one shot.
func scanRowPages(opts *ScanOpts, rowCount func() int, zone func(page int) *ZoneMap, emit func(lo, hi int) bool) {
	count := rowCount()
	pred := opts.pred()
	if len(pred) == 0 {
		if opts != nil && opts.Stats != nil && count > 0 {
			opts.Stats.BlocksScanned.Add(int64((count-1)/zonePageRows + 1))
		}
		emit(0, count)
		return
	}
	for p := 0; p*zonePageRows < count; p++ {
		if (p+1)*zonePageRows <= count && !zone(p).admits(pred) {
			opts.noteSkipped()
			continue
		}
		opts.noteScanned()
		if !emit(p*zonePageRows, min(count, (p+1)*zonePageRows)) {
			return
		}
	}
}

// ScanBatches is the row view of e.Scan over the whole table: each chunk as
// headers and rows. It exists for the benchmark's per-layer scan probes,
// which time the storage layer in rows; the engine's own readers take
// chunks. A row chunk's rows are the stored rows; a column chunk's are cut
// from one slab filled column-at-a-time, the columns outside opts.Cols
// NULL. Rows may be kept; the hdrs and rows containers are valid only
// during the call.
func ScanBatches(e Engine, opts *ScanOpts, batchSize int, fn func(hdrs []Header, rows []types.Row) bool) error {
	var hdrs []Header
	var slab []types.Row
	return e.Scan(opts, batchSize, func(ch *Chunk) bool {
		n := ch.Len()
		if cap(hdrs) < n {
			hdrs = make([]Header, n)
		}
		hdrs = hdrs[:n]
		for i := range hdrs {
			hdrs[i] = ch.Header(i)
		}
		rows := ch.Rows
		if ch.Cols != nil {
			nc := len(ch.Cols.Vecs)
			vals := make([]types.Datum, n*nc)
			for c := range ch.Cols.Vecs {
				for k, v := 0, ch.Cols.Vec(c); k < v.Len(); k++ {
					vals[k*nc+c] = v.At(k)
				}
			}
			slab = slab[:0]
			for k := 0; k < n; k++ {
				slab = append(slab, vals[k*nc:(k+1)*nc:(k+1)*nc])
			}
			rows = slab
		}
		return fn(hdrs, rows)
	})
}
