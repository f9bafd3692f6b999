// Package obs is the engine-wide observability layer: a lock-light metrics
// registry (counters, gauges, histograms under stable dotted names with
// snapshot/delta APIs), per-query distributed traces feeding a bounded
// in-memory store and a slow-query log, and the session/query activity
// registry behind the gp_stat_* system views.
//
// The package is a dependency leaf (stdlib only) so every layer — storage,
// exec, WAL, dispatch, resource groups, fault injection, the server — can
// publish into one registry without import cycles. Handles returned by
// Counter/Gauge/Histogram are plain atomics: recording on the hot path is a
// single uncontended atomic add, never a map lookup or a lock.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is usable; a
// nil *Counter is a no-op, so call sites never need nil checks.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is usable; nil is
// a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (useful for in-flight counts).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to n if n is larger (high-water marks).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBounds are the histogram bucket upper bounds in seconds — a 1-2-5
// series from 10µs to 10s, wide enough for WAL fsync latencies and whole
// OLAP statements alike.
var histBounds = []float64{
	1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numBuckets counts the histogram buckets: one per bound plus +Inf.
const numBuckets = 20

func init() {
	if numBuckets != len(histBounds)+1 {
		panic("obs: numBuckets out of sync with histBounds")
	}
}

// Histogram accumulates duration observations into fixed exponential
// buckets. All fields are atomics; Observe is wait-free. Nil is a no-op.
type Histogram struct {
	buckets  [numBuckets]atomic.Int64 // last = +Inf
	count    atomic.Int64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := sort.SearchFloat64s(histBounds, s)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds  []float64 // upper bounds in seconds; one more bucket for +Inf
	Buckets []int64
	Count   int64
	Sum     time.Duration
}

// snapshot copies the histogram. Buckets are read without a global lock, so
// concurrent Observes may straddle the copy; totals are re-derived from the
// bucket copy to keep count == Σbuckets.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: histBounds, Buckets: make([]int64, len(h.buckets)), Sum: time.Duration(h.sumNanos.Load())}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Registry holds every registered metric under its dotted name. Metric
// registration takes a short lock; recording through the returned handles is
// lock-free. A nil *Registry hands out dangling (but safe) handles, so
// subsystems built without observability still run.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	collectors []func(emit Emit)
	hists      map[string]*Histogram
}

// Emit reports one computed series from inside a collector.
type Emit func(name string, v int64)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent callers; all callers share one handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Collect registers a subsystem's collector: fn runs once per snapshot or
// scrape and emits every computed series of the subsystem from a single
// aggregation, so related values (a cache's hits and misses) are read at one
// instant. Use for values that already live elsewhere (cache occupancy,
// breaker states) so reads fold on demand instead of being pushed on the hot
// path.
func (r *Registry) Collect(fn func(emit Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Value reads one series — counter, gauge or collected — by name, from a
// fresh Snapshot: a caller reading several series takes one Snapshot itself.
func (r *Registry) Value(name string) (int64, bool) {
	v, ok := r.Snapshot().Values[name]
	return v, ok
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Values map[string]int64        // counters, gauges, collected series
	Hists  map[string]HistSnapshot // histograms
}

// Snapshot captures every metric. Collectors run once each, outside the
// registry lock (they may take subsystem locks of their own).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Values: make(map[string]int64), Hists: make(map[string]HistSnapshot)}
	if r == nil {
		return s
	}
	r.mu.RLock()
	for n, v := range r.counters {
		s.Values[n] = v.Load()
	}
	for n, v := range r.gauges {
		s.Values[n] = v.Load()
	}
	for n, h := range r.hists {
		s.Hists[n] = h.snapshot()
	}
	collectors := r.collectors
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn(func(n string, v int64) { s.Values[n] = v })
	}
	return s
}

// Delta returns cur − prev per metric name (names only in cur keep their
// value; names only in prev are dropped). Histograms are not differenced.
func (s Snapshot) Delta(prev Snapshot) map[string]int64 {
	d := make(map[string]int64, len(s.Values))
	for n, v := range s.Values {
		d[n] = v - prev.Values[n]
	}
	return d
}

// Names returns every registered metric name, sorted, histograms included.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Values)+len(s.Hists))
	for n := range s.Values {
		names = append(names, n)
	}
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
