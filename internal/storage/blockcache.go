package storage

import (
	"container/list"
	"sync"

	"repro/internal/obs"
	"repro/internal/txn"
	"repro/internal/types"
)

// BlockCache is an LRU cache of decoded AO-column blocks, shared by every
// AO-column table of one segment. Decompressing a sealed block is the
// dominant cost of a column-store scan, so repeated analytical queries over
// the same tables should pay it once, not once per scan; at the same time
// decoded vectors are large (they are the *uncompressed* data), so the cache
// is bounded in bytes and evicts least-recently-scanned blocks first.
//
// Entries are keyed by (engine id, block index). Sealed blocks are immutable
// — inserts only grow the unsealed tail and deletes only touch the visimap —
// so the only invalidation a writer must perform is dropping a whole engine's
// entries on TRUNCATE (InvalidateEngine). Capacity accounting is the caller's
// concern: the cluster charges the configured capacity against resource-group
// vmem when it creates the per-segment caches.
//
// Columns within a block decode lazily: an entry may hold only the columns
// some scan has asked for, and grows (charging the cache) as later scans
// request more. A zero or negative capacity disables eviction (unbounded
// cache) — the default for standalone tables created outside a cluster.
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[blockKey]*list.Element
	lru      *list.List // front = most recently used

	// Hits, Misses and Evictions count lookups served whole, lookups that
	// decoded something, and entries dropped for space. NewBlockCache gives
	// a cache its own counters; a cluster swaps in its registry handles, so
	// the totals outlive the cache.
	Hits, Misses, Evictions *obs.Counter
}

type blockKey struct {
	engine uint64
	block  int
}

type cacheEntry struct {
	key   blockKey
	db    *decodedBlock
	bytes int64
}

// NewBlockCache returns a cache bounded to capacity bytes of decoded vectors
// — their real footprint, types.Vec.Bytes plus 8 per xmin — (<= 0 =
// unbounded).
func NewBlockCache(capacity int64) *BlockCache {
	return &BlockCache{
		capacity:  capacity,
		entries:   make(map[blockKey]*list.Element),
		lru:       list.New(),
		Hits:      new(obs.Counter),
		Misses:    new(obs.Counter),
		Evictions: new(obs.Counter),
	}
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
	Entries   int
}

// Stats returns the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.Hits.Load(),
		Misses:    c.Misses.Load(),
		Evictions: c.Evictions.Load(),
		UsedBytes: c.used,
		Entries:   len(c.entries),
	}
}

// Capacity returns the configured byte bound (<= 0 = unbounded).
func (c *BlockCache) Capacity() int64 { return c.capacity }

// plan is the lookup half of a decode: under the cache lock it finds (or
// creates) the entry for key and reports which of the needed columns — and
// whether the xmin vector — still have to be decompressed by the caller. A
// fully satisfied request counts as a hit, anything else as a miss.
func (c *BlockCache) plan(key blockKey, need []int, ncols int) (db *decodedBlock, missing []int, needXmins bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		db = el.Value.(*cacheEntry).db
	} else {
		db = &decodedBlock{cols: make([]*types.Vec, ncols)}
		el := c.lru.PushFront(&cacheEntry{key: key, db: db})
		c.entries[key] = el
	}
	for _, col := range need {
		if db.cols[col] == nil {
			missing = append(missing, col)
		}
	}
	needXmins = db.xmins == nil
	if len(missing) == 0 && !needXmins {
		c.Hits.Inc()
	} else {
		c.Misses.Inc()
	}
	return db, missing, needXmins
}

// publish is the fill half of a decode: it installs freshly decompressed
// vectors into db (first writer wins — concurrent scans may race to decode
// the same column), charges the grown bytes to the entry, and evicts
// least-recently-used entries until the cache fits its capacity again.
func (c *BlockCache) publish(key blockKey, db *decodedBlock, dec map[int]*types.Vec, xmins []txn.XID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var grew int64
	for col, vals := range dec {
		if db.cols[col] == nil {
			db.cols[col] = vals
			grew += vals.Bytes()
		}
	}
	if db.xmins == nil && xmins != nil {
		db.xmins = xmins
		grew += int64(len(xmins)) * 8
	}
	if grew == 0 {
		return
	}
	el, ok := c.entries[key]
	if !ok || el.Value.(*cacheEntry).db != db {
		// The entry was evicted (or replaced by a racing scan) between plan
		// and publish; the caller still gets its decoded vectors, the cache
		// just doesn't retain them.
		return
	}
	el.Value.(*cacheEntry).bytes += grew
	c.used += grew
	c.evictOverflowLocked(el)
}

// evictOverflowLocked drops least-recently-used entries until used fits
// capacity, passing over keep (the entry being filled right now) wherever it
// sits in the order. If keep alone exceeds the whole capacity it is dropped
// too — a block bigger than the cache should not pin it forever — so used
// never exceeds capacity when publish returns.
func (c *BlockCache) evictOverflowLocked(keep *list.Element) {
	if c.capacity <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.used > c.capacity; {
		prev := el.Prev()
		if el != keep {
			c.removeLocked(el)
		}
		el = prev
	}
	if c.used > c.capacity {
		c.removeLocked(keep)
	}
}

func (c *BlockCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.used -= e.bytes
	c.Evictions.Inc()
}

// peek returns the cached entry for key without touching LRU order or the
// hit/miss counters (tests and diagnostics).
func (c *BlockCache) peek(key blockKey) (*decodedBlock, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).db, true
}

// InvalidateEngine drops every cached block of one engine (TRUNCATE: the
// table's block indexes restart from zero with new contents).
func (c *BlockCache) InvalidateEngine(engine uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).key.engine == engine {
			e := el.Value.(*cacheEntry)
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.used -= e.bytes
		}
		el = next
	}
}
