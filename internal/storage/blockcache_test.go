package storage

import (
	"testing"

	"repro/internal/types"
)

// loadAOColumn builds a sealed AO-column table of nRows rows and 2 columns.
func loadAOColumn(nRows int) *AOColumn {
	a := NewAOColumn(2, CompressionRLEDelta)
	for i := 0; i < nRows; i++ {
		a.Insert(1, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 100))})
	}
	a.Seal()
	return a
}

func fullScan(a *AOColumn) int {
	n := 0
	a.Scan(nil, 256, func(ch *Chunk) bool {
		n += ch.Len()
		return true
	})
	return n
}

func TestBlockCacheHitMiss(t *testing.T) {
	a := loadAOColumn(2 * aoColBlockRows) // two sealed blocks
	c := NewBlockCache(1 << 30)
	a.SetBlockCache(c)
	if n := fullScan(a); n != 2*aoColBlockRows {
		t.Fatalf("first scan rows: %d", n)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold scan: hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Entries != 2 || st.UsedBytes <= 0 {
		t.Fatalf("cold scan: entries=%d used=%d", st.Entries, st.UsedBytes)
	}
	if n := fullScan(a); n != 2*aoColBlockRows {
		t.Fatalf("second scan rows: %d", n)
	}
	st = c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("warm scan: hits=%d misses=%d", st.Hits, st.Misses)
	}
}

// TestBlockCachePartialColumnMiss: asking for a column the cache doesn't hold
// yet counts as a miss and grows the entry in place.
func TestBlockCachePartialColumnMiss(t *testing.T) {
	a := loadAOColumn(aoColBlockRows)
	c := NewBlockCache(1 << 30)
	a.SetBlockCache(c)
	a.Scan(&ScanOpts{Cols: []int{0}}, 256, func(*Chunk) bool { return true })
	used1 := c.Stats().UsedBytes
	a.Scan(&ScanOpts{Cols: []int{0}}, 256, func(*Chunk) bool { return true })
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("narrow re-scan should hit: %+v", st)
	}
	a.Scan(&ScanOpts{Cols: []int{1}}, 256, func(*Chunk) bool { return true })
	st := c.Stats()
	if st.Misses != 2 { // initial decode + the new column
		t.Fatalf("wider scan should miss: %+v", st)
	}
	if st.Entries != 1 || st.UsedBytes <= used1 {
		t.Fatalf("entry should grow in place: %+v (was %d bytes)", st, used1)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	a := loadAOColumn(4 * aoColBlockRows) // four sealed blocks
	// Size the cache to roughly one decoded block so a sweep must evict.
	oneBlock := int64(aoColBlockRows) * 2 * 9 // 2 int columns ≈ 9 bytes/datum
	c := NewBlockCache(oneBlock)
	a.SetBlockCache(c)
	if n := fullScan(a); n != 4*aoColBlockRows {
		t.Fatalf("scan rows: %d", n)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("bounded cache never evicted: %+v", st)
	}
	if st.UsedBytes > oneBlock {
		t.Fatalf("cache over capacity: used=%d cap=%d", st.UsedBytes, oneBlock)
	}
	// Results stay correct when every block has to be re-decoded.
	if n := fullScan(a); n != 4*aoColBlockRows {
		t.Fatalf("post-eviction scan rows: %d", n)
	}
}

func TestBlockCacheInvalidateOnTruncate(t *testing.T) {
	a := loadAOColumn(aoColBlockRows)
	c := NewBlockCache(1 << 30)
	a.SetBlockCache(c)
	fullScan(a)
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("expected one cached block: %+v", st)
	}
	a.Truncate()
	if st := c.Stats(); st.Entries != 0 || st.UsedBytes != 0 {
		t.Fatalf("truncate left stale entries: %+v", st)
	}
	// Refill with different data; the scan must see the new contents, not a
	// stale decode.
	for i := 0; i < aoColBlockRows; i++ {
		a.Insert(2, types.Row{types.NewInt(int64(1000000 + i)), types.NewInt(0)})
	}
	a.Seal()
	var first int64 = -1
	a.Scan(nil, 256, func(ch *Chunk) bool {
		first = ch.Cols.Vecs[0].At(ch.Cols.Lo).Int()
		return false
	})
	if first != 1000000 {
		t.Fatalf("scan after truncate read stale block: first=%d", first)
	}
}

// TestBlockCacheReleaseOnDrop: a dropped engine's entries must not linger in
// a shared bounded cache.
func TestBlockCacheReleaseOnDrop(t *testing.T) {
	c := NewBlockCache(1 << 30)
	a := loadAOColumn(aoColBlockRows)
	b := loadAOColumn(aoColBlockRows)
	a.SetBlockCache(c)
	b.SetBlockCache(c)
	fullScan(a)
	fullScan(b)
	used := c.Stats().UsedBytes
	a.ReleaseCachedBlocks()
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes >= used {
		t.Fatalf("drop did not release the engine's blocks: %+v (was %d bytes)", st, used)
	}
	if _, ok := c.peek(blockKey{engine: b.id, block: 0}); !ok {
		t.Fatal("release of one engine evicted another's blocks")
	}
}

// TestBlockCacheSharedAcrossTables: a segment-level cache keyed by engine id
// keeps tables' blocks apart, and invalidation is per table.
func TestBlockCacheSharedAcrossTables(t *testing.T) {
	c := NewBlockCache(1 << 30)
	a := loadAOColumn(aoColBlockRows)
	b := loadAOColumn(aoColBlockRows)
	a.SetBlockCache(c)
	b.SetBlockCache(c)
	fullScan(a)
	fullScan(b)
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("expected one entry per table: %+v", st)
	}
	a.Truncate()
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("truncate of one table must keep the other's blocks: %+v", st)
	}
	if _, ok := c.peek(blockKey{engine: b.id, block: 0}); !ok {
		t.Fatal("other table's block was invalidated")
	}
}

// residentBytes sums the real footprint of every vector the cache holds.
func residentBytes(c *BlockCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		db := el.Value.(*cacheEntry).db
		for _, v := range db.cols {
			if v != nil {
				n += v.Bytes()
			}
		}
		n += 8 * int64(len(db.xmins))
	}
	return n
}

// TestBlockCacheChargesRealBytes: UsedBytes is the sum of the resident
// vectors' footprints — 8 bytes per number, string headers plus the shared
// text buffer, NULL bitmaps, xmins — and never exceeds the capacity once a
// publish has returned, whatever the order blocks are touched in.
func TestBlockCacheChargesRealBytes(t *testing.T) {
	a := NewAOColumn(3, CompressionZlib)
	for i := 0; i < 6*aoColBlockRows; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)), types.NewText("tag-07")}
		if i%9 == 0 {
			row[1] = types.Null
		}
		a.Insert(1, row)
	}
	a.Seal()
	perBlock := int64(aoColBlockRows) * (8 + 8 + 16 + 6 + 8) // int, float, string header + 6 text bytes, xmin
	perBlock += aoColBlockRows / 8                           // the float column's NULL bitmap
	c := NewBlockCache(0)
	a.SetBlockCache(c)
	fullScan(a)
	if st := c.Stats(); st.UsedBytes != 6*perBlock || st.UsedBytes != residentBytes(c) {
		t.Fatalf("unbounded cache charges %d bytes, vectors hold %d, arithmetic says %d", st.UsedBytes, residentBytes(c), 6*perBlock)
	}
	c = NewBlockCache(2*perBlock + perBlock/2)
	a.SetBlockCache(c)
	for pass := 0; pass < 3; pass++ {
		for _, opts := range []*ScanOpts{{Cols: []int{2}}, nil, {Cols: []int{0, 1}}} {
			a.Scan(opts, 256, func(*Chunk) bool {
				if st := c.Stats(); st.UsedBytes > c.Capacity() || st.UsedBytes != residentBytes(c) {
					t.Fatalf("charged %d bytes, resident %d, capacity %d", st.UsedBytes, residentBytes(c), c.Capacity())
				}
				return true
			})
		}
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("a cache of 2.5 blocks swept by 6 never evicted: %+v", st)
	}
}
