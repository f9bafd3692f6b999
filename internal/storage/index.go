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
// rewritten: Remove writes the shorter run to new room too, and Drop copies
// every run into a fresh arena. The rooms runs leave behind are counted, and
// once they are half the arena the live runs are copied into a fresh one;
// an old array stays intact for whoever still reads a run of it.
type HashIndex struct {
	mu      sync.RWMutex
	keyCols []int
	slots   []indexSlot // a power of two long once the first key arrives
	shift   uint8       // 64 - log2(len(slots))
	used    int         // taken slots, emptied ones included
	emptied int         // slots whose run Remove or Drop emptied
	posts   []TupleID   // the postings arena
	garbage int         // arena entries no run owns
	entries int
}

// indexSlot is one key hash and its run posts[off : off+n]. n == 0 marks a
// free slot, or with off == emptiedRun a slot whose run was emptied: it
// stays taken, so the probes of keys placed past it still reach them.
type indexSlot struct {
	hash   uint64
	off, n uint32
}

const emptiedRun = ^uint32(0)

func (s *indexSlot) free() bool { return s.n == 0 && s.off != emptiedRun }

// roomOf is the room of a run of n > 0 entries: the power of two at or
// above n.
func roomOf(n uint32) int { return 1 << bits.Len32(n-1) }

// minIndexSlots is the table size of the first key; the table doubles when
// more than 7/8 of its slots are taken, unless half the taken ones are
// emptied — then it is rebuilt at its size without them.
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
		n := 2 * len(ix.slots)
		if ix.emptied*2 >= ix.used {
			n = len(ix.slots)
		}
		ix.rehash(max(minIndexSlots, n))
	}
	s := &ix.slots[ix.probe(h)]
	switch {
	case s.n == 0:
		if s.free() {
			ix.used++
		} else {
			ix.emptied--
		}
		*s = indexSlot{hash: h, off: ix.reserve(1)}
	case s.n&(s.n-1) == 0: // a power of two: the run is full
		off := ix.reserve(2 * int(s.n))
		copy(ix.posts[off:], ix.posts[s.off:s.off+s.n])
		s.off = off
		ix.garbage += int(s.n)
	}
	ix.posts[s.off+s.n] = tid
	s.n++
	ix.entries++
	ix.compact()
}

// Remove deletes tids, which it sorts, from the run of row's key and
// returns how many it found there. The run without them, in the same order,
// goes to new room.
func (ix *HashIndex) Remove(row types.Row, tids ...TupleID) int {
	h := row.Hash(ix.keyCols)
	slices.Sort(tids)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.used == 0 {
		return 0
	}
	s := &ix.slots[ix.probe(h)]
	if s.n == 0 {
		return 0
	}
	run := ix.posts[s.off : s.off+s.n]
	gone := 0
	for _, tid := range run {
		if _, found := slices.BinarySearch(tids, tid); found {
			gone++
		}
	}
	if gone == 0 {
		return 0
	}
	room := roomOf(s.n)
	if s.n -= uint32(gone); s.n == 0 {
		s.off = emptiedRun
		ix.emptied++
	} else {
		// reserve may move the arena; run still reads the old one.
		s.off = ix.reserve(roomOf(s.n))
		w := s.off
		for _, tid := range run {
			if _, found := slices.BinarySearch(tids, tid); !found {
				ix.posts[w] = tid
				w++
			}
		}
	}
	ix.entries -= gone
	ix.garbage += room
	ix.compact()
	return gone
}

// Drop deletes every posting whose tuple id is in dead (ascending) — the
// bulk form of Remove, for VACUUM — by copying the runs without them into a
// fresh arena.
func (ix *HashIndex) Drop(dead []TupleID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.rebuild(dead)
}

// probe returns the position of h's slot, or of the free slot where h goes.
func (ix *HashIndex) probe(h uint64) int {
	mask := len(ix.slots) - 1
	// Start at h's high bits: a segment is types.Bucket(h, nseg), which reads
	// those of h·fib, so the keys of one segment spread over every slot.
	for i := int(h >> ix.shift); ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.free() || s.hash == h {
			return i
		}
	}
}

// rehash moves the slots with a run into a table of size n (a power of
// two); emptied slots are dropped.
func (ix *HashIndex) rehash(n int) {
	old := ix.slots
	ix.slots, ix.shift = make([]indexSlot, n), uint8(64-bits.Len(uint(n-1)))
	for _, s := range old {
		if s.n > 0 {
			ix.slots[ix.probe(s.hash)] = s
		}
	}
	ix.used -= ix.emptied
	ix.emptied = 0
}

// reserve extends the arena by k entries and returns where they start.
func (ix *HashIndex) reserve(k int) uint32 {
	off := len(ix.posts)
	ix.posts = slices.Grow(ix.posts, k)[:off+k]
	return uint32(off)
}

// compact rebuilds the arena once the rooms runs left behind are half of it.
func (ix *HashIndex) compact() {
	if ix.garbage*2 > len(ix.posts) {
		ix.rebuild(nil)
	}
}

// rebuild copies the runs, without the tuple ids in drop (ascending), into a
// fresh arena with room for as much again, so the next rebuild allocates
// before the arena has to grow. The old array stays intact for whoever still
// reads a run of it.
func (ix *HashIndex) rebuild(drop []TupleID) {
	posts := make([]TupleID, 0, 2*(len(ix.posts)-ix.garbage))
	for i := range ix.slots {
		s := &ix.slots[i]
		if s.n == 0 {
			continue
		}
		off := len(posts)
		for _, tid := range ix.posts[s.off : s.off+s.n] {
			if _, found := slices.BinarySearch(drop, tid); !found {
				posts = append(posts, tid)
			}
		}
		n := uint32(len(posts) - off)
		ix.entries -= int(s.n - n)
		if s.n = n; n == 0 {
			s.off = emptiedRun
			ix.emptied++
			continue
		}
		s.off = uint32(off)
		posts = slices.Grow(posts, roomOf(n)-int(n))[:off+roomOf(n)]
	}
	ix.posts, ix.garbage = posts, 0
}

// Lookup returns candidate tuple ids whose key hash matches the given key
// values (one datum per key column, in keyCols order). The result is the
// key's run itself, read-only and capped at its length: a copy would cost as
// much as the run is long, and nothing rewrites it.
func (ix *HashIndex) Lookup(key []types.Datum) []TupleID {
	h := types.Row(key).HashKey()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.used == 0 {
		return nil
	}
	s := ix.slots[ix.probe(h)]
	if s.n == 0 {
		return nil
	}
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
	ix.slots, ix.shift, ix.used, ix.emptied, ix.posts, ix.garbage, ix.entries = nil, 0, 0, 0, nil, 0, 0
	ix.mu.Unlock()
}

// Len returns the number of indexed entries (diagnostics).
func (ix *HashIndex) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.entries
}
