package storage

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/types"
)

// HashIndex is a secondary equality index mapping key-column hashes to
// candidate tuple ids; lookups re-check the key against fetched rows, so
// hash collisions are harmless. Greenplum's OLTP drill-through queries
// ("use indexes for drill through", paper Fig. 5) go through this path.
//
// The table is open addressing over pointer-free slots, one per distinct key
// hash. A slot owns a run of one shared postings arena: the tuple ids
// inserted under its hash, in insertion order. A run of n entries has room
// for the power of two at or above n; a full run moves to the arena's end at
// twice its size. Entries are only ever written past a run's length — into
// its free room or at the arena's end — so a run a Lookup handed out is never
// rewritten.
type HashIndex struct {
	mu      sync.RWMutex
	keyCols []int
	slots   []indexSlot // a power of two long once the first key arrives
	shift   uint8       // 64 - log2(len(slots))
	used    int         // occupied slots
	posts   []TupleID   // the postings arena
	entries int
}

// indexSlot is one key hash and its run posts[off : off+n]; n == 0 marks a
// free slot.
type indexSlot struct {
	hash   uint64
	off, n uint32
}

// minIndexSlots is the table size of the first key; the table doubles when
// more than 7/8 of its slots are taken.
const minIndexSlots = 8

// NewHashIndex returns an index over keyCols (schema offsets).
func NewHashIndex(keyCols []int) *HashIndex {
	return &HashIndex{keyCols: append([]int(nil), keyCols...)}
}

// Insert adds a (row, tid) pair.
func (ix *HashIndex) Insert(row types.Row, tid TupleID) {
	h := row.Hash(ix.keyCols)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if (ix.used+1)*8 > len(ix.slots)*7 {
		ix.rehash(max(minIndexSlots, 2*len(ix.slots)))
	}
	s := &ix.slots[ix.probe(h)]
	switch {
	case s.n == 0:
		*s = indexSlot{hash: h, off: ix.reserve(1)}
		ix.used++
	case s.n&(s.n-1) == 0: // a power of two: the run is full
		off := ix.reserve(2 * int(s.n))
		copy(ix.posts[off:], ix.posts[s.off:s.off+s.n])
		s.off = off
	}
	ix.posts[s.off+s.n] = tid
	s.n++
	ix.entries++
}

// probe returns the position of h's slot, or of the free slot where h goes.
func (ix *HashIndex) probe(h uint64) int {
	mask := len(ix.slots) - 1
	// Start at h's high bits: a segment is types.Bucket(h, nseg), which reads
	// those of h·fib, so the keys of one segment spread over every slot.
	for i := int(h >> ix.shift); ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.n == 0 || s.hash == h {
			return i
		}
	}
}

// rehash moves the slots into a table of size n (a power of two).
func (ix *HashIndex) rehash(n int) {
	old := ix.slots
	ix.slots, ix.shift = make([]indexSlot, n), uint8(64-bits.Len(uint(n-1)))
	for _, s := range old {
		if s.n > 0 {
			ix.slots[ix.probe(s.hash)] = s
		}
	}
}

// reserve extends the arena by k entries and returns where they start.
func (ix *HashIndex) reserve(k int) uint32 {
	off := len(ix.posts)
	ix.posts = slices.Grow(ix.posts, k)[:off+k]
	return uint32(off)
}

// Lookup returns candidate tuple ids whose key hash matches the given key
// values (one datum per key column, in keyCols order). The result is the
// key's run itself, read-only and capped at its length: a copy would cost as
// much as the run is long, and an often-updated key's run holds one entry per
// version.
func (ix *HashIndex) Lookup(key []types.Datum) []TupleID {
	h := types.Row(key).HashKey()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.used == 0 {
		return nil
	}
	s := ix.slots[ix.probe(h)]
	return ix.posts[s.off : s.off+s.n : s.off+s.n]
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
	ix.slots, ix.shift, ix.used, ix.posts, ix.entries = nil, 0, 0, nil, 0
	ix.mu.Unlock()
}

// Len returns the number of indexed entries (diagnostics).
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries
}
