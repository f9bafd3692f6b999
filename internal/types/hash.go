package types

import (
	"hash/maphash"
	"math"
	"math/bits"
)

// The key hash decides where a key lives: its segment, a motion's
// destination, a hash table slot, a spill partition. Each value contributes
// one word, equal for values Compare calls equal: an int (bool, date) the
// bits of the float it converts to when that is exact, a float its bits (-0
// as 0, every NaN as one), text its maphash, NULL a constant. The row form
// (Row.Hash, Row.HashKey) and the vector form (HashAt, HashBatch) agree.
// Levels read different bits, so one segment's rows still spread below it:
// a segment is Bucket(h, nseg), a table slot the high bits of h, a spill
// partition Bucket of h bit-reversed.
const nullWord, inexactInt, fib = 0x6e756c6c, 0x5bd1e9955bd1e995, 0x9e3779b97f4a7c15

var strSeed = maphash.MakeSeed()

func intBits(x int64) uint64 {
	if f := float64(x); int64(f) == x {
		return math.Float64bits(f)
	}
	return uint64(x) ^ inexactInt
}

// Hash is the datum's word of the key hash.
func (d Datum) Hash() uint64 {
	switch d.kind {
	case KindNull:
		return nullWord
	case KindFloat:
		switch f := d.Float(); {
		case f == 0:
			return 0 // -0 compares equal to 0, so it must hash like it
		case f != f:
			return math.Float64bits(math.NaN()) // so does every NaN with every other
		default:
			return math.Float64bits(f)
		}
	case KindText:
		return maphash.String(strSeed, d.s)
	}
	return intBits(d.i)
}

// word is the word of value at, equal to v.At(at).Hash().
func (v *Vec) word(at int) uint64 {
	switch {
	case v.Null(at):
		return nullWord
	case v.Ints != nil:
		return intBits(v.Ints[at])
	case v.Strs != nil:
		return maphash.String(strSeed, v.Strs[at])
	}
	return v.At(at).Hash()
}

func mix(h, w uint64) uint64 {
	h = (h ^ w) * fib
	return h ^ h>>32
}

// Hash is the key hash of the datums at the given column offsets.
func (r Row) Hash(cols []int) uint64 {
	h := uint64(0)
	for _, c := range cols {
		h = mix(h, r[c].Hash())
	}
	return h
}

// HashKey is the key hash of r's datums in order: of a key listed one datum
// per key column, equal to Hash(keyCols) of a row holding it.
func (r Row) HashKey() uint64 {
	h := uint64(0)
	for _, d := range r {
		h = mix(h, d.Hash())
	}
	return h
}

// HashAt is the key hash of the key vectors' values at position at.
func HashAt(keys []Vec, at int) uint64 {
	h := uint64(0)
	for k := range keys {
		h = mix(h, keys[k].word(at))
	}
	return h
}

// HashBatch sets hashes[r] to the key hash of the key vectors' values at b's
// live row r, one vector at a time.
func HashBatch(hashes []uint64, keys []Vec, b *RowBatch) {
	clear(hashes)
	for k := range keys {
		for r := range hashes {
			hashes[r] = mix(hashes[r], keys[k].word(b.Index(r)))
		}
	}
}

// Bucket reduces hash h to [0, n): the high word of (h·fib)·n, Fibonacci
// hashing scaled to n rather than masked, so every n spreads and consecutive
// int keys land evenly.
func Bucket(h uint64, n int) int {
	hi, _ := bits.Mul64(h*fib, uint64(n))
	return int(hi)
}
