package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b.c")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("a.b.c"); c2 != c {
		t.Fatalf("second Counter() returned a different handle")
	}
	g := r.Gauge("g.x")
	g.Set(10)
	g.SetMax(7) // lower → ignored
	g.SetMax(12)
	if got := g.Load(); got != 12 {
		t.Fatalf("gauge = %d, want 12", got)
	}
	r.Collect(func(emit Emit) { emit("f.y", 99) })
	if v, ok := r.Value("f.y"); !ok || v != 99 {
		t.Fatalf("Value(f.y) = %d,%v", v, ok)
	}
	if v, ok := r.Value("a.b.c"); !ok || v != 4 {
		t.Fatalf("Value(a.b.c) = %d,%v", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Fatalf("Value(missing) should not exist")
	}
}

// TestCollectorRunsOncePerSnapshot: a subsystem's series all come from one
// aggregation per Snapshot, whether the caller wants every series or one.
func TestCollectorRunsOncePerSnapshot(t *testing.T) {
	r := NewRegistry()
	var cacheRuns, walRuns int
	r.Collect(func(emit Emit) {
		cacheRuns++
		emit("cache.hits", int64(10*cacheRuns))
		emit("cache.misses", int64(10*cacheRuns+1))
	})
	r.Collect(func(emit Emit) {
		walRuns++
		emit("wal.records", 5)
	})
	snap := r.Snapshot()
	if cacheRuns != 1 || walRuns != 1 {
		t.Fatalf("one Snapshot ran the collectors %d and %d times, want 1 and 1", cacheRuns, walRuns)
	}
	if snap.Values["cache.hits"] != 10 || snap.Values["cache.misses"] != 11 || snap.Values["wal.records"] != 5 {
		t.Fatalf("snapshot = %v", snap.Values)
	}
	if v, ok := r.Value("cache.misses"); !ok || v != 21 || cacheRuns != 2 {
		t.Fatalf("Value(cache.misses) = %d,%v after %d runs; want 21 from one more run", v, ok, cacheRuns)
	}
}

func TestRegistryNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(time.Millisecond)
	r.Collect(func(emit Emit) { emit("f", 1) })
	if len(r.Snapshot().Values) != 0 {
		t.Fatalf("nil registry snapshot should be empty")
	}
	var c *Counter
	c.Add(1)
	var g *Gauge
	g.SetMax(1)
	var h *Histogram
	h.Observe(time.Second)
	var tr *Trace
	sp := tr.Begin(0, "x", -1)
	sp.End()
	tr.Record(0, "y", 0, time.Time{}, 0)
}

// TestRegistryRace hammers one registry from many goroutines — handle
// creation, recording, snapshots, and scrapes all concurrent. Run under
// -race this is the registry's race gate.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(emit Emit) { emit("fn", 7) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c.shared").Inc()
				r.Gauge("g.shared").SetMax(int64(j))
				r.Histogram("h.shared").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_ = r.Snapshot()
				_ = r.WritePrometheus(&strings.Builder{})
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c.shared").Load(); got != 8*500 {
		t.Fatalf("counter = %d, want %d (lost updates)", got, 8*500)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	before := r.Snapshot()
	c.Add(7)
	d := r.Snapshot().Delta(before)
	if d["c"] != 7 {
		t.Fatalf("delta = %d, want 7", d["c"])
	}
}

func TestHistogramBucketsAndProm(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat.seconds")
	h.Observe(15 * time.Microsecond) // bucket le=2e-5
	h.Observe(3 * time.Millisecond)  // bucket le=5e-3
	h.Observe(20 * time.Second)      // +Inf
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	snap := r.Snapshot().Hists["lat.seconds"]
	if snap.Count != 3 {
		t.Fatalf("hist count = %d, want 3", snap.Count)
	}
	sum := int64(0)
	for _, n := range snap.Buckets {
		sum += n
	}
	if sum != snap.Count {
		t.Fatalf("Σbuckets %d != count %d", sum, snap.Count)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(2)
	r.Histogram("h").Observe(time.Millisecond)
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a.b": 2`, `"histograms"`, `"count": 1`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("json missing %q:\n%s", want, b.String())
		}
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace(42, "select 1")
	root := tr.Begin(0, "execute", -1)
	var wg sync.WaitGroup
	for seg := 0; seg < 4; seg++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			sp := tr.Begin(root.ID(), "slice 1", seg)
			sp.End()
		}(seg)
	}
	wg.Wait()
	root.End()
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("OpenSpans = %d, want 0", n)
	}
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("len(spans) = %d, want 5", len(spans))
	}
	kids := 0
	for _, s := range spans {
		if s.Parent == root.ID() {
			kids++
		}
	}
	if kids != 4 {
		t.Fatalf("children of root = %d, want 4", kids)
	}
	lines := tr.Render()
	if len(lines) != 5 || !strings.HasPrefix(lines[0], "execute") {
		t.Fatalf("Render = %q", lines)
	}
	if !strings.HasPrefix(lines[1], "  slice 1") {
		t.Fatalf("child not indented: %q", lines[1])
	}
}

func TestTraceStoreRing(t *testing.T) {
	s := NewTraceStore(2)
	for i := 1; i <= 3; i++ {
		s.Add(NewTrace(uint64(i), "q"))
	}
	rec := s.Recent(10)
	if len(rec) != 2 || rec[0].QueryID != 3 || rec[1].QueryID != 2 {
		t.Fatalf("Recent = %+v", rec)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestActivityRingsAndSessions(t *testing.T) {
	a := NewActivity(2, 2, 2)
	si := a.Register("admin")
	si.StartQuery("select 1")
	snaps := a.Sessions()
	if len(snaps) != 1 || snaps[0].State != "active" || snaps[0].Query != "select 1" {
		t.Fatalf("sessions = %+v", snaps)
	}
	si.EndQuery()
	for i := 1; i <= 3; i++ {
		a.Record(QueryRecord{QueryID: uint64(i), SQL: "q", Slow: i == 2})
	}
	h := a.History(10)
	if len(h) != 2 || h[0].QueryID != 3 || h[1].QueryID != 2 {
		t.Fatalf("history = %+v", h)
	}
	if sl := a.SlowQueries(10); len(sl) != 1 || sl[0].QueryID != 2 {
		t.Fatalf("slow = %+v", sl)
	}
	if a.Recorded() != 3 {
		t.Fatalf("Recorded = %d", a.Recorded())
	}
	a.Unregister(si)
	if len(a.Sessions()) != 0 {
		t.Fatalf("session not unregistered")
	}
}
