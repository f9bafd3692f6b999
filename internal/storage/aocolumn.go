package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// aoColumnIDs hands out the unique engine ids that key block-cache entries.
var aoColumnIDs atomic.Uint64

// AOColumn is the append-optimized column-oriented engine: each column lives
// in its own sequence of compressed blocks (the paper's "each column is
// allotted a separate file"), so scans that touch few columns of a wide
// table read proportionally less data. Writes buffer in an uncompressed tail
// block that seals at aoColBlockRows rows.
type AOColumn struct {
	mu      sync.RWMutex
	ncols   int
	codec   Compression
	sealed  []aoColBlock // one entry per sealed block-group
	tail    [][]types.Datum
	tailX   []txn.XID
	count   int
	visimap map[TupleID]txn.XID
	updated map[TupleID]TupleID

	// id keys this engine's entries in the block cache; cache holds the
	// decoded vectors of sealed blocks. By default each table owns a private
	// unbounded cache; a cluster segment replaces it with its shared bounded
	// one via SetBlockCache.
	id    uint64
	cache *BlockCache

	// wal, when attached, receives one record per mutation, appended under
	// a.mu so the log order equals the mutation order.
	wal walRef
}

// SetWAL implements WALLogged.
func (a *AOColumn) SetWAL(l *wal.Log, leaf uint64) {
	a.mu.Lock()
	a.wal = walRef{log: l, leaf: leaf}
	a.mu.Unlock()
}

// decodedBlock is a cache entry of decoded vectors. Columns decode lazily:
// cols[c] is nil until some scan asks for column c, so narrow scans over
// wide tables decompress proportionally less. Slots are set-once under the
// block cache's lock and immutable afterwards.
type decodedBlock struct {
	cols  []*types.Vec
	xmins []txn.XID
}

// aoColBlock is one sealed group of rows with per-column compressed
// vectors. The xmin vector is RLE-delta encoded too: bulk loads stamp long
// runs of identical xids, so it compresses to almost nothing. zone is the
// block's per-column min/max/null-count summary, computed at seal time while
// the uncompressed values are still in hand; predicated scans consult it to
// skip the block without decompressing anything.
type aoColBlock struct {
	n        int
	xminsEnc []byte
	cols     [][]byte
	codecs   []Compression
	zone     ZoneMap
}

// aoColBlockRows is the seal threshold per block.
const aoColBlockRows = 4096

// NewAOColumn returns an empty AO-column table with ncols columns and a
// private unbounded decode cache.
func NewAOColumn(ncols int, codec Compression) *AOColumn {
	return &AOColumn{
		ncols:   ncols,
		codec:   codec,
		tail:    make([][]types.Datum, ncols),
		visimap: make(map[TupleID]txn.XID),
		updated: make(map[TupleID]TupleID),
		id:      aoColumnIDs.Add(1),
		cache:   NewBlockCache(0),
	}
}

// SetBlockCache attaches a (typically segment-shared, byte-bounded) decode
// cache, replacing the table's private one. Call before the first scan.
func (a *AOColumn) SetBlockCache(c *BlockCache) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c != nil {
		a.cache = c
	}
}

// BlockCacheID returns the engine's block-cache key (diagnostics/tests).
func (a *AOColumn) BlockCacheID() uint64 { return a.id }

// ReleaseCachedBlocks drops this table's decoded blocks from the attached
// cache. Call when the engine is discarded (DROP TABLE) so a shared bounded
// cache doesn't keep paying for unreachable entries until LRU pressure
// happens to evict them.
func (a *AOColumn) ReleaseCachedBlocks() {
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	cache.InvalidateEngine(a.id)
}

// CorruptBlockForTest truncates the stored bytes of one sealed column and
// forgets the table's decoded blocks, so the next scan of that block fails to
// decode: the hook behind the tests that a damaged block fails the statement.
func (a *AOColumn) CorruptBlockForTest(block, col int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.sealed[block].cols[col]
	a.sealed[block].cols[col] = b[:len(b)/2]
	a.cache.InvalidateEngine(a.id)
}

// Kind implements Engine.
func (a *AOColumn) Kind() string { return "ao_column" }

// Insert implements Engine.
func (a *AOColumn) Insert(x txn.XID, row types.Row) TupleID {
	a.mu.Lock()
	defer a.mu.Unlock()
	for c := 0; c < a.ncols; c++ {
		var d types.Datum
		if c < len(row) {
			d = row[c]
		}
		a.tail[c] = append(a.tail[c], d)
	}
	a.tailX = append(a.tailX, x)
	a.count++
	tid := TupleID(a.count)
	a.wal.logInsert(tid, x, row)
	if len(a.tailX) >= aoColBlockRows {
		a.sealLocked()
	}
	return tid
}

func (a *AOColumn) sealLocked() {
	if len(a.tailX) == 0 {
		return
	}
	xminDatums := make([]types.Datum, len(a.tailX))
	for i, x := range a.tailX {
		xminDatums[i] = types.NewInt(int64(x))
	}
	blk := aoColBlock{
		n:        len(a.tailX),
		xminsEnc: rleDeltaEncode(xminDatums),
		cols:     make([][]byte, a.ncols),
		codecs:   make([]Compression, a.ncols),
		zone:     buildZoneFromColumns(a.tail, len(a.tailX)),
	}
	for c := 0; c < a.ncols; c++ {
		blk.cols[c], blk.codecs[c] = compressBlock(a.codec, a.tail[c])
		a.tail[c] = a.tail[c][:0]
	}
	a.tailX = a.tailX[:0]
	a.sealed = append(a.sealed, blk)
}

// Seal flushes the tail block, e.g. at the end of a bulk load.
func (a *AOColumn) Seal() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sealLocked()
}

// needCols normalizes a projection to the column offsets to decode (nil =
// all), dropping offsets the table does not have.
func (a *AOColumn) needCols(cols []int) []int {
	need := make([]int, 0, a.ncols)
	for c := 0; c < a.ncols && cols == nil; c++ {
		need = append(need, c)
	}
	for _, c := range cols {
		if c >= 0 && c < a.ncols {
			need = append(need, c)
		}
	}
	return need
}

// decoded returns the cache entry of sealed block i (blk is a.sealed[i])
// with at least the needed columns and the xmin vector decoded,
// decompressing only what the block cache does not already hold.
// Decompression runs outside the cache lock; concurrent scans may duplicate
// work but each vector is published once.
func (a *AOColumn) decoded(i int, blk *aoColBlock, need []int) (*decodedBlock, error) {
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	key := blockKey{engine: a.id, block: i}
	db, missing, needXmins := cache.plan(key, need, a.ncols)
	if len(missing) == 0 && !needXmins {
		return db, nil
	}
	dec := make(map[int]*types.Vec, len(missing))
	for _, c := range missing {
		v, err := decompressBlock(blk.codecs[c], blk.cols[c], blk.n)
		if err != nil {
			return nil, fmt.Errorf("storage: ao_column block %d column %d: %w", i, c, err)
		}
		dec[c] = v
	}
	var xm []txn.XID
	if needXmins {
		xv, err := rleDeltaDecode(blk.xminsEnc)
		if err != nil {
			return nil, fmt.Errorf("storage: ao_column block %d xmins: %w", i, err)
		}
		xm = make([]txn.XID, len(xv.Ints))
		for j, x := range xv.Ints {
			xm[j] = txn.XID(x)
		}
	}
	cache.publish(key, db, dec, xm)
	return db, nil
}

// Scan implements Engine: chunks are windows of the decoded vectors — no row
// is built. Only opts.Cols are decoded, and a sealed block whose seal-time
// zone map rules out opts.Pred is skipped without decompressing anything.
//
// The scan reads the table's shape block by block, so a concurrent INSERT
// that seals the tail (or grows it) never makes it lose its place: it carries
// on into blocks sealed since it began, and a scan whose range is open-ended
// sees every row appended before it reaches the end.
func (a *AOColumn) Scan(r BlockRange, opts *ScanOpts, batchSize int, fn func(*Chunk) bool) error {
	if batchSize < 1 {
		batchSize = types.DefaultBatchSize
	}
	need, pred := a.needCols(opts.cols()), opts.pred()
	ch := new(Chunk)       // refilled for every chunk
	pos := max(0, r.Begin) // next row offset to emit
	bi, off := 0, 0        // next sealed block and its first row offset
	tailCounted := false
	for pos < r.End {
		a.mu.RLock()
		if bi < len(a.sealed) {
			blk := a.sealed[bi]
			a.mu.RUnlock()
			if pos < off+blk.n {
				if pred != nil && !pred.MatchZone(&blk.zone) {
					opts.noteSkipped()
				} else {
					opts.noteScanned()
					db, err := a.decoded(bi, &blk, need)
					if err != nil {
						return err
					}
					vecs := make([]types.Vec, a.ncols)
					for _, c := range need {
						vecs[c] = *db.cols[c]
					}
					if !a.emit(ch, vecs, db.xmins, off, pos-off, min(blk.n, r.End-off), batchSize, fn) {
						return nil
					}
				}
				pos = off + blk.n
			}
			bi, off = bi+1, off+blk.n
			continue
		}
		// The unsealed tail starts at off. Its backing arrays are reused by
		// the next seal, so the rows are copied out under the lock. It has
		// no zone map and counts as one scanned unit.
		lo, hi := pos-off, min(len(a.tailX), r.End-off)
		if lo >= hi {
			a.mu.RUnlock()
			return nil
		}
		vecs := make([]types.Vec, a.ncols)
		for _, c := range need {
			vecs[c] = types.VecOf(a.tail[c][lo:hi])
		}
		xmins := append([]txn.XID(nil), a.tailX[lo:hi]...)
		a.mu.RUnlock()
		if !tailCounted {
			tailCounted = true
			opts.noteScanned()
		}
		if !a.emit(ch, vecs, xmins, pos, 0, hi-lo, batchSize, fn) {
			return nil
		}
		pos += hi - lo
	}
	return nil
}

// emit hands rows [lo, hi) of one decoded unit — a sealed block or a tail
// snapshot whose row 0 sits at table offset off — to fn in ch, batchSize at
// a time. Each chunk gets its own Cols, which the caller may keep. The
// visimap and the update links are consulted only when they hold anything.
func (a *AOColumn) emit(ch *Chunk, vecs []types.Vec, xmins []txn.XID, off, lo, hi, batchSize int, fn func(*Chunk) bool) bool {
	for ; lo < hi; lo += batchSize {
		end := min(lo+batchSize, hi)
		*ch = Chunk{First: TupleID(off + lo + 1), Cols: &types.ColBatch{Vecs: vecs, Lo: lo, N: end - lo}, Xmins: xmins[lo:end]}
		a.mu.RLock()
		for i := 0; i < end-lo && len(a.visimap)+len(a.updated) > 0; i++ {
			tid := ch.First + TupleID(i)
			if x, dead := a.visimap[tid]; dead {
				if ch.Xmaxs == nil {
					ch.Xmaxs = make([]txn.XID, end-lo)
				}
				ch.Xmaxs[i] = x
			}
			if to, moved := a.updated[tid]; moved {
				if ch.Updated == nil {
					ch.Updated = make([]TupleID, end-lo)
				}
				ch.Updated[i] = to
			}
		}
		a.mu.RUnlock()
		if !fn(ch) {
			return false
		}
	}
	return true
}

// Fetch implements Engine. Random access decodes the owning block.
func (a *AOColumn) Fetch(tid TupleID) (Header, types.Row, bool) {
	idx := int(tid) - 1
	if idx < 0 {
		return Header{}, nil, false
	}
	a.mu.RLock()
	count := a.count
	a.mu.RUnlock()
	if idx >= count {
		return Header{}, nil, false
	}
	// Locate block.
	a.mu.RLock()
	off := 0
	blockIdx := -1
	var inBlk int
	var blk aoColBlock
	for i := range a.sealed {
		if idx < off+a.sealed[i].n {
			blockIdx, blk = i, a.sealed[i]
			inBlk = idx - off
			break
		}
		off += a.sealed[i].n
	}
	a.mu.RUnlock()
	row := make(types.Row, a.ncols)
	var xmin txn.XID
	if blockIdx >= 0 {
		db, err := a.decoded(blockIdx, &blk, a.needCols(nil))
		if err != nil {
			return Header{}, nil, false
		}
		for c := 0; c < a.ncols; c++ {
			row[c] = db.cols[c].At(inBlk)
		}
		xmin = db.xmins[inBlk]
	} else {
		a.mu.RLock()
		tailIdx := idx - off
		if tailIdx >= len(a.tailX) {
			a.mu.RUnlock()
			return Header{}, nil, false
		}
		for c := 0; c < a.ncols; c++ {
			row[c] = a.tail[c][tailIdx]
		}
		xmin = a.tailX[tailIdx]
		a.mu.RUnlock()
	}
	a.mu.RLock()
	hdr := Header{TID: tid, Xmin: xmin, Xmax: a.visimap[tid], UpdatedTo: a.updated[tid]}
	a.mu.RUnlock()
	return hdr, row, true
}

// SetXmax implements Engine.
func (a *AOColumn) SetXmax(tid TupleID, x txn.XID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if int(tid) < 1 || int(tid) > a.count {
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
func (a *AOColumn) ClearXmax(tid TupleID, prev txn.XID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.visimap[tid] == prev {
		delete(a.visimap, tid)
		delete(a.updated, tid)
		a.wal.logOp(wal.TypeClearXmax, tid, prev, 0)
	}
}

// LinkUpdate implements Engine.
func (a *AOColumn) LinkUpdate(old, new TupleID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.updated[old] = new
	a.wal.logOp(wal.TypeLinkUpdate, old, 0, new)
}

// Truncate implements Engine. The write invalidates this table's decoded
// blocks in the cache — block indexes restart from zero with new contents.
func (a *AOColumn) Truncate() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sealed = nil
	a.tail = make([][]types.Datum, a.ncols)
	a.tailX = nil
	a.count = 0
	a.visimap = make(map[TupleID]txn.XID)
	a.updated = make(map[TupleID]TupleID)
	a.wal.logOp(wal.TypeTruncate, 0, 0, 0)
	a.cache.InvalidateEngine(a.id)
}

// ResetDerived implements DerivedResettable: drops this engine's decoded
// blocks from the attached cache (promotion must not serve blocks decoded
// while the engine was a mirror).
func (a *AOColumn) ResetDerived() {
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	cache.InvalidateEngine(a.id)
}

// RowCount implements Engine.
func (a *AOColumn) RowCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.count
}

// Bytes implements Engine (compressed footprint).
func (a *AOColumn) Bytes() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var n int64
	for _, blk := range a.sealed {
		for _, col := range blk.cols {
			n += int64(len(col))
		}
		n += int64(len(blk.xminsEnc))
	}
	for c := range a.tail {
		for _, d := range a.tail[c] {
			n += d.Size()
		}
	}
	return n
}
