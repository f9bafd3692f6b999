package storage

import (
	"sync"

	"repro/internal/types"
)

// HashIndex is a secondary equality index mapping key-column hashes to
// candidate tuple ids; lookups re-check the key against fetched rows, so
// hash collisions are harmless. Greenplum's OLTP drill-through queries
// ("use indexes for drill through", paper Fig. 5) go through this path.
type HashIndex struct {
	mu      sync.RWMutex
	keyCols []int
	buckets map[uint64][]TupleID
}

// NewHashIndex returns an index over keyCols (schema offsets).
func NewHashIndex(keyCols []int) *HashIndex {
	return &HashIndex{
		keyCols: append([]int(nil), keyCols...),
		buckets: make(map[uint64][]TupleID),
	}
}

// KeyCols returns the indexed schema offsets.
func (ix *HashIndex) KeyCols() []int { return ix.keyCols }

// Insert adds a (row, tid) pair.
func (ix *HashIndex) Insert(row types.Row, tid TupleID) {
	h := row.Hash(ix.keyCols)
	ix.mu.Lock()
	ix.buckets[h] = append(ix.buckets[h], tid)
	ix.mu.Unlock()
}

// Lookup returns candidate tuple ids whose key hash matches the given key
// values (one datum per key column, in keyCols order). The result is the
// bucket itself, read-only: buckets only grow by append, which never
// rewrites an entry a lookup already returned, so it is not copied — a copy
// would cost as much as the bucket is long, and an often-updated key's
// bucket holds one entry per version.
func (ix *HashIndex) Lookup(key []types.Datum) []TupleID {
	cols := make([]int, len(key))
	for i := range cols {
		cols[i] = i
	}
	h := types.Row(key).Hash(cols)
	ix.mu.RLock()
	b := ix.buckets[h]
	ix.mu.RUnlock()
	return b[:len(b):len(b)]
}

// Matches reports whether row's key columns equal key.
func (ix *HashIndex) Matches(row types.Row, key []types.Datum) bool {
	if len(key) != len(ix.keyCols) {
		return false
	}
	for i, c := range ix.keyCols {
		if types.Compare(row[c], key[i]) != 0 {
			return false
		}
	}
	return true
}

// Truncate discards all entries.
func (ix *HashIndex) Truncate() {
	ix.mu.Lock()
	ix.buckets = make(map[uint64][]TupleID)
	ix.mu.Unlock()
}

// Len returns the number of indexed entries (diagnostics).
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, b := range ix.buckets {
		n += len(b)
	}
	return n
}
