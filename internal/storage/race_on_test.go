//go:build race

package storage

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a random share of what is put back: allocation
// counts of pooled paths mean nothing then.
const raceEnabled = true
