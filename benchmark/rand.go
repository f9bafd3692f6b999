package main

// rng is a splitmix64 generator: every input the benchmark feeds the engine
// (row values, keys, deltas, the operation mix) is drawn from one of these,
// seeded from -seed, so the same seed gives the same inputs.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9e3779b97f4a7c15} }

// fork derives an independent stream (one per client, per table) from seed.
func fork(seed uint64, stream uint64) *rng {
	return newRNG(seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1)
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }
