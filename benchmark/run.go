package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

// endToEnd is the end-to-end metric list in reporting order: name, unit,
// whether higher is better, and the share of the parent's median by which the
// metric may worsen. BENCHMARK.json carries the same list (a test compares
// them).
var endToEnd = []struct {
	name, unit string
	higher     bool
	bound      float64
}{
	{"throughput", "1/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_tail_ms", "ms", false, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"alloc_kb_per_op", "KB", false, 0.03},
	{"heap_live_mb", "MB", false, 0.03},
	{"setup_s", "s", false, 0.25},
}

// setupBuilds is how many complete set-ups a measured run performs; setup_s
// is their median.
const setupBuilds = 3

// built is one workload set up and warmed: the engine, the loaded data, and
// the load generator's connections.
type built struct {
	sp    *spec
	h     *host
	w     workload
	conns []conn // one per primary client
	bg    conn   // the background stream's session; nil without one
}

func (b *built) close() {
	for _, c := range b.conns {
		c.close()
	}
	if b.bg != nil {
		b.bg.close()
	}
	b.h.close()
}

func (b *built) op(ctx context.Context) opFunc {
	return func(id int) (uint8, error) { return b.w.op(ctx, b.conns[id], id) }
}

// build is the whole set-up a measured run times: boot, DDL, bulk load
// through one session, ANALYZE, connect the clients, and a warm-up of a
// fixed number of operations.
func build(ctx context.Context, sp *spec, w workload, scale int) (*built, error) {
	h, err := boot()
	if err != nil {
		return nil, err
	}
	b := &built{sp: sp, h: h, w: w}
	fail := func(err error) (*built, error) {
		b.close()
		return nil, fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	loader, err := h.session()
	if err != nil {
		return fail(err)
	}
	err = w.load(ctx, loader)
	loader.close()
	if err != nil {
		return fail(err)
	}
	for id := 0; id < sp.clients; id++ {
		var c conn
		if sp.wire {
			c, err = h.dial()
		} else {
			c, err = h.session()
		}
		if err != nil {
			return fail(err)
		}
		b.conns = append(b.conns, c)
		if sp.olap {
			if _, err := c.exec(ctx, "SET optimizer = orca"); err != nil {
				return fail(err)
			}
		}
	}
	warm := fixedOps(sp.clients, scaled(sp.warmup, scale, len(sp.kinds)), b.op(ctx))
	if warm.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d operations failed: %w", warm.failed, warm.attempted, warm.firstErr))
	}
	if sp.bgRate > 0 {
		if b.bg, err = h.session(); err != nil {
			return fail(err)
		}
		// One second's worth of the background stream, so its statements
		// are parsed and cached before the window opens.
		for i := 0; i < sp.bgRate; i++ {
			if _, err := w.(backgrounder).background(ctx, b.bg); err != nil {
				return fail(fmt.Errorf("background warm-up: %w", err))
			}
		}
	}
	return b, nil
}

// window is one measured window's outcome.
type window struct {
	prim    *stream // the primary clients' operations together
	bg      *stream // the background stream; nil without one
	late    lateness
	elapsed time.Duration
	use     usage // CPU and allocation of the whole process over the window
}

// runWindow drives the primary clients closed-loop, and the background stream
// open-loop beside them, for d.
func (b *built) runWindow(ctx context.Context, d time.Duration) window {
	var w window
	use0 := readUsage()
	start := time.Now()
	deadline := start.Add(d)
	bgDone := make(chan struct{})
	if b.sp.bgRate > 0 {
		go func() {
			defer close(bgDone)
			bgw := b.w.(backgrounder)
			w.bg, w.late = openLoop(start, deadline, b.sp.bgRate, func() (uint8, error) { return bgw.background(ctx, b.bg) })
		}()
	} else {
		close(bgDone)
	}
	w.prim = closedLoop(b.sp.clients, deadline, b.op(ctx))
	<-bgDone
	w.elapsed = time.Since(start)
	w.use = readUsage().since(use0)
	return w
}

// background is the background stream as its clients see it: p50 and p95
// latency from due time (ms) over the whole window, and the share of sends
// the generator made more than 1ms late.
func (w window) background() (p50, p95, lateShare float64) {
	return quantile(w.bg.lat, 0.5, time.Millisecond), quantile(w.bg.lat, 0.95, time.Millisecond),
		float64(w.late.late) / float64(max(w.late.sends, 1))
}

// measure is the untraced run: three complete set-ups (the first two torn
// down again), then one measured window on the third, then the gate.
func measure(ctx context.Context, out io.Writer, sp *spec, o options) (*result, error) {
	var b *built
	var setups []float64
	for i := 0; i < setupBuilds; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		w := sp.make(o.seed, o.scale)
		if tb, ok := w.(*tpcb); ok {
			tb.plant = o.plant
		}
		t0 := time.Now()
		var err error
		if b, err = build(ctx, sp, w, o.scale); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	heap := liveHeap()

	win := b.runWindow(ctx, o.window)
	prim := win.prim
	if len(prim.lat) == 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window (%d attempted, first error: %v)", sp.name, prim.attempted, prim.firstErr)
	}
	ops := float64(len(prim.lat))
	res := &result{workload: sp.name, attempted: prim.attempted, failed: prim.failed}
	values := []float64{
		ops / win.elapsed.Seconds(),
		quantile(prim.lat, 0.5, time.Millisecond),
		quantile(prim.lat, sp.tailQ, time.Millisecond),
		float64(win.use.cpu) / float64(time.Millisecond) / ops,
		float64(win.use.totalAlloc) / 1024 / ops,
		float64(heap) / (1 << 20),
		median(setups),
	}
	for i, m := range endToEnd {
		res.metrics = append(res.metrics, metric{m.name, values[i], m.unit})
	}

	fmt.Fprintf(out, "%s: %d primary ops in %.2fs from %d closed-loop client(s); latency_tail is p%g; set-ups %.3fs\n",
		sp.name, len(prim.lat), win.elapsed.Seconds(), sp.clients, sp.tailQ*100, setups)
	for k, name := range sp.kinds {
		lat := prim.ofKind(k)
		fmt.Fprintf(out, "%s:   %-20s n=%-7d p50=%.4fms p%g=%.4fms\n", sp.name, name, len(lat),
			quantile(lat, 0.5, time.Millisecond), sp.tailQ*100, quantile(lat, sp.tailQ, time.Millisecond))
	}
	fmt.Fprintf(out, "%s: primary stream attempted %d, failed %d\n", sp.name, prim.attempted, prim.failed)
	firstErr := prim.firstErr
	if bg := win.bg; bg != nil {
		res.attempted += bg.attempted
		res.failed += bg.failed
		if firstErr == nil {
			firstErr = bg.firstErr
		}
		p50, p95, lateShare := win.background()
		fmt.Fprintf(out, "%s: background stream open loop at %d/s: attempted %d, failed %d; latency from due time p50 %.4fms p95 %.4fms; generator lateness max %.3fms, %.2f%% of %d sends late by >1ms\n",
			sp.name, sp.bgRate, bg.attempted, bg.failed, p50, p95, float64(win.late.max)/1e6, 100*lateShare, win.late.sends)
	}

	if err := b.w.check(ctx, b.h); err != nil {
		fmt.Fprintf(out, "%s: GATE FAILED: %v\n", sp.name, err)
	} else if res.failed > 0 {
		fmt.Fprintf(out, "%s: %d operations failed; first: %v\n", sp.name, res.failed, firstErr)
	} else {
		res.correct = true
	}
	return res, nil
}
