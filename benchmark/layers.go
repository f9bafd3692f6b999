package main

import (
	"context"
	"fmt"
	"io"
	"runtime/metrics"
	"time"
)

// perLayer is the per-layer metric list in reporting order: name, unit and
// whether higher is better. Every workload's traced pass reports every one
// (0 where the workload does not reach the layer). BENCHMARK.json carries the
// same list; README.md says which end-to-end metric each should move.
var perLayer = []struct {
	name, unit string
	higher     bool
}{
	{"server.wire_us_per_stmt", "us", false},
	{"server.stmts_queued", "count", false},
	{"sql.parse_us_per_stmt", "us", false},
	{classParse, "ratio", false},
	{"core.stmtcache_hit_ratio", "ratio", true},
	{"core.plan_hit_ratio", "ratio", true},
	{classSession, "ratio", false},
	{"core.point_select_us_p50", "us", false},
	{"core.point_update_us_p50", "us", false},
	{"core.point_insert_us_p50", "us", false},
	{"plan.plan_us_per_stmt", "us", false},
	{classPlan, "ratio", false},
	{classDisp, "ratio", false},
	{"cluster.segments_per_stmt", "count", false},
	{"cluster.segments_per_write", "count", false},
	{"cluster.dispatch_retries", "count", false},
	{"cluster.slice_skew", "ratio", false},
	{"dtm.onephase_ratio", "ratio", true},
	{"dtm.commit_2pc_us_p50", "us", false},
	{"dtm.begin_us_p50", "us", false},
	{"txn.aborts_per_kop", "count", false},
	{"txn.deadlock_victims", "count", false},
	{"lockmgr.waits_per_kop", "count", false},
	{"lockmgr.wait_ms_per_kop", "ms", false},
	{"gdd.deadlocks", "count", false},
	{"lockmgr.acquire_release_ns", "ns", false},
	{"wal.records_per_op", "count", false},
	{"wal.bytes_per_op", "B", false},
	{"wal.flushes_per_op", "count", false},
	{"wal.records_per_flush", "count", true},
	{"wal.flush_us_mean", "us", false},
	{"wal.append_flush_us", "us", false},
	{"wal.replay_us_per_record", "us", false},
	{"storage.blocks_scanned_per_query", "count", false},
	{"storage.blocks_skipped_ratio", "ratio", true},
	{"storage.blockcache_hit_ratio", "ratio", true},
	{"storage.blockcache_evictions_per_query", "count", false},
	{"storage.blockcache_used_mb", "MB", false},
	{"storage.heap_growth_kb_per_op", "KB", false},
	{"storage.aocol_scan_ns_per_row", "ns", false},
	{"storage.heap_scan_ns_per_row", "ns", false},
	{"storage.index_lookup_ns", "ns", false},
	{classWrite, "ratio", false},
	{classScan, "ratio", false},
	{classAgg, "ratio", false},
	{classJoin, "ratio", false},
	{classSort, "ratio", false},
	{classProject, "ratio", false},
	{"exec.rows_per_s_fullscan", "1/s", true},
	{"exec.q_group_g_ms_p50", "ms", false},
	{"exec.q_expr_filter_ms_p50", "ms", false},
	{"exec.q_range_lo_ms_p50", "ms", false},
	{"exec.q_group_tag_ms_p50", "ms", false},
	{"exec.q_top_d_ms_p50", "ms", false},
	{"exec.q_top_amt_ms_p50", "ms", false},
	{"exec.q_range_hi_ms_p50", "ms", false},
	{"exec.spill_bytes", "B", false},
	{"exec.vmem_peak_mb", "MB", false},
	{classMotion, "ratio", false},
	{"interconnect.sendrecv_ns_per_row", "ns", false},
	{"resgroup.admission_waits", "count", false},
	{"obs.trace_overhead_frac", "ratio", false},
	{"obs.attributed_frac", "ratio", true},
	{"obs.unnested_stmts", "count", false},
	{"runtime.gc_cpu_frac", "ratio", false},
	{"runtime.gc_cycles_per_s", "1/s", false},
	{"oltp.latency_p50_ms", "ms", false},
	{"oltp.latency_p95_ms", "ms", false},
	{"oltp.sends_late_share", "ratio", false},
}

// traceWindow is how long the traced run drives a workload's two streams
// concurrently to read the background stream's latency.
const traceWindow = 5 * time.Second

// pass is one fixed-count run of the operation list on one client.
type pass struct {
	*tracer
	prim, ops int                       // primary operations; primary + background
	opTime    time.Duration             // sum of operation wall times
	kindLat   map[uint8][]time.Duration // primary operation times by kind
}

// fixedPass runs n primary operations through prim, each followed by the
// spec's traceBg background operations through bg, one after another.
func (b *built) fixedPass(ctx context.Context, n int, traceOn bool, prim, bg conn) (*pass, error) {
	p := &pass{tracer: newTracer(b.h.eng, traceOn), kindLat: map[uint8][]time.Duration{}}
	prim, err := p.wrap(ctx, prim)
	if err != nil {
		return nil, err
	}
	if bg != nil {
		if bg, err = p.wrap(ctx, bg); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		var kind uint8
		d, err := p.op("op", func() (err error) { kind, err = b.w.op(ctx, prim, 0); return })
		if err != nil {
			return nil, fmt.Errorf("%s fixed pass, operation %d: %w", b.sp.name, i, err)
		}
		p.kindLat[kind] = append(p.kindLat[kind], d)
		p.opTime += d
		p.prim++
		for j := 0; j < b.sp.traceBg; j++ {
			d, err := p.op("background", func() error { _, err := b.w.(backgrounder).background(ctx, bg); return err })
			if err != nil {
				return nil, fmt.Errorf("%s fixed pass, background operation: %w", b.sp.name, err)
			}
			p.opTime += d
		}
	}
	p.ops = p.prim * (1 + b.sp.traceBg)
	return p, nil
}

// gcCPU reads the cumulative CPU seconds the Go runtime spent collecting.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// traced is the per-layer run: one set-up, the layer probes, then the same
// fixed operation list three times on one client — untraced, traced, and (for
// a wire workload) untraced in-process — the gate, and a timed crash
// recovery. Counts come from the traced pass alone, so with one client they
// repeat exactly for a seed.
func traced(ctx context.Context, out io.Writer, sp *spec, o options) (*result, error) {
	w := sp.make(o.seed, o.scale)
	b, err := build(ctx, sp, w, o.scale)
	if err != nil {
		return nil, err
	}
	defer b.close()
	h := b.h
	L := map[string]float64{}

	probeConn, err := h.session()
	if err != nil {
		return nil, err
	}
	probes, err := runProbes(ctx, out, w.statements(), probeConn, o.scale)
	probeConn.close()
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		L[p.metric] = p.perCall()
	}

	// The untraced pass also measures what the operations leave behind in
	// the heap (dead versions, WAL), with no trace spans in the way.
	n := scaled(sp.traceOps, o.scale, len(sp.kinds))
	heap0 := liveHeap()
	plain, err := b.fixedPass(ctx, n, false, b.conns[0], b.bg)
	if err != nil {
		return nil, err
	}
	heap1 := liveHeap()

	reg0 := h.eng.Metrics().Snapshot()
	lockWait0, _ := h.eng.Cluster().LockWaitStats()
	var queued0 int64
	if h.srv != nil {
		queued0 = h.srv.Stats().Queued
	}
	use0, gc0, t0 := readUsage(), gcCPU(), time.Now()
	tr, err := b.fixedPass(ctx, n, true, b.conns[0], b.bg)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	use1, gc1 := readUsage(), gcCPU()
	reg1 := h.eng.Metrics().Snapshot()
	lockWait1, _ := h.eng.Cluster().LockWaitStats()
	d := func(name string) float64 { return float64(reg1.Values[name] - reg0.Values[name]) }
	ops, prim := float64(tr.ops), float64(tr.prim)

	// local is the untraced pass as the engine alone sees it: the same list
	// in-process when the workload's clients go over the wire.
	local := plain
	if sp.wire {
		c, err := h.session()
		if err != nil {
			return nil, err
		}
		local, err = b.fixedPass(ctx, n, false, c, nil)
		c.close()
		if err != nil {
			return nil, err
		}
		L["server.wire_us_per_stmt"] = quantile(plain.allStmts(), 0.5, time.Microsecond) - quantile(local.allStmts(), 0.5, time.Microsecond)
		L["server.stmts_queued"] = float64(h.srv.Stats().Queued - queued0)
	}

	var root time.Duration
	self := map[string]time.Duration{}
	var segs, segStmts, writeSegs, writes, skew, skewStmts float64
	for _, f := range tr.facts {
		root += f.root
		for class, t := range f.self {
			self[class] += t
		}
		if f.segments > 0 {
			segs += float64(f.segments)
			segStmts++
		}
		if f.write {
			writeSegs += float64(f.segments)
			writes++
		}
		if f.skew > 0 {
			skew += f.skew
			skewStmts++
		}
	}
	for _, class := range shareClasses {
		L[class] = ratio(float64(self[class]), float64(root))
	}
	L["cluster.segments_per_stmt"] = ratio(segs, segStmts)
	L["cluster.segments_per_write"] = ratio(writeSegs, writes)
	L["cluster.slice_skew"] = ratio(skew, skewStmts)
	L["cluster.dispatch_retries"] = d("dispatch.retries")

	L["core.stmtcache_hit_ratio"] = ratio(d("plancache.hits"), d("plancache.hits")+d("plancache.misses"))
	L["core.plan_hit_ratio"] = ratio(d("plancache.plan_hits"), d("plancache.plan_hits")+d("plancache.plan_misses"))
	if sp.kindMetric != "" {
		for k, name := range sp.kinds {
			L[fmt.Sprintf(sp.kindMetric, name)] = quantile(plain.kindLat[uint8(k)], 0.5, sp.kindUnit)
		}
	}
	if s, ok := w.(*scan); ok {
		L["exec.rows_per_s_fullscan"] = ratio(float64(s.rows), quantile(plain.kindLat[0], 0.5, time.Second))
	}

	L["dtm.onephase_ratio"] = ratio(d("txn.commits_1pc"), d("txn.commits_1pc")+d("txn.commits_2pc"))
	L["dtm.commit_2pc_us_p50"] = quantile(local.stmtLat["commit"], 0.5, time.Microsecond)
	L["dtm.begin_us_p50"] = quantile(local.stmtLat["begin"], 0.5, time.Microsecond)
	L["txn.aborts_per_kop"] = 1000 * d("txn.aborts") / ops
	L["txn.deadlock_victims"] = d("txn.deadlock_victims")
	L["lockmgr.waits_per_kop"] = 1000 * d("lock.waits") / ops
	L["lockmgr.wait_ms_per_kop"] = 1000 * float64(lockWait1-lockWait0) / float64(time.Millisecond) / ops
	L["gdd.deadlocks"] = d("gdd.deadlocks")

	L["wal.records_per_op"] = d("wal.records") / ops
	L["wal.bytes_per_op"] = d("wal.bytes") / ops
	L["wal.flushes_per_op"] = d("wal.flushes") / ops
	L["wal.records_per_flush"] = ratio(d("wal.records"), d("wal.flushes"))
	f0, f1 := reg0.Hists["wal.flush_seconds"], reg1.Hists["wal.flush_seconds"]
	L["wal.flush_us_mean"] = ratio(us(f1.Sum-f0.Sum), float64(f1.Count-f0.Count))

	scanned, skipped := d("storage.scan.blocks_scanned"), d("storage.scan.blocks_skipped")
	L["storage.blocks_scanned_per_query"] = scanned / prim
	L["storage.blocks_skipped_ratio"] = ratio(skipped, scanned+skipped)
	L["storage.blockcache_hit_ratio"] = ratio(d("storage.blockcache.hits"), d("storage.blockcache.hits")+d("storage.blockcache.misses"))
	L["storage.blockcache_evictions_per_query"] = d("storage.blockcache.evictions") / prim
	L["storage.blockcache_used_mb"] = float64(reg1.Values["storage.blockcache.used_bytes"]) / (1 << 20)
	L["storage.heap_growth_kb_per_op"] = (float64(heap1) - float64(heap0)) / 1024 / ops

	L["exec.spill_bytes"] = d("exec.spill.bytes")
	L["exec.vmem_peak_mb"] = float64(reg1.Values["exec.vmem_peak"]) / (1 << 20)
	L["resgroup.admission_waits"] = d("resgroup.admission_waits")

	L["obs.trace_overhead_frac"] = ratio(float64(tr.opTime-plain.opTime), float64(plain.opTime))
	L["obs.attributed_frac"] = ratio(float64(tr.named()), float64(tr.opTime))
	L["obs.unnested_stmts"] = float64(tr.unnested)
	L["runtime.gc_cpu_frac"] = ratio(gc1-gc0, (use1.cpu - use0.cpu).Seconds())
	L["runtime.gc_cycles_per_s"] = float64(use1.numGC-use0.numGC) / wall.Seconds()

	res := &result{workload: sp.name, attempted: plain.ops + tr.ops, correct: true}
	if sp.wire {
		res.attempted += local.ops
	}
	if sp.bgRate > 0 {
		// The one per-layer reading that needs concurrency: what the
		// background stream's clients see while the primary stream runs. The
		// traced pass left trace_queries on in both sessions.
		for _, c := range []conn{b.conns[0], b.bg} {
			if _, err := c.exec(ctx, "SET trace_queries = off"); err != nil {
				return nil, err
			}
		}
		win := b.runWindow(ctx, traceWindow/time.Duration(o.scale))
		L["oltp.latency_p50_ms"], L["oltp.latency_p95_ms"], L["oltp.sends_late_share"] = win.background()
		res.attempted += win.prim.attempted + win.bg.attempted
		res.failed += win.prim.failed + win.bg.failed
	}
	fmt.Fprintf(out, "%s: traced pass: %d operations (%d primary) on one client, %d statements traced, %.2fs\n",
		sp.name, tr.ops, tr.prim, len(tr.facts), wall.Seconds())
	if tr.unnested > 0 {
		fmt.Fprintf(out, "%s: %d traced statements have operator spans that do not nest into one plan tree and are attributed to no layer; first: %v\n",
			sp.name, tr.unnested, tr.unnestedErr)
	}
	if err := w.check(ctx, h); err != nil {
		fmt.Fprintf(out, "%s: GATE FAILED: %v\n", sp.name, err)
		res.correct = false
	}
	if res.failed > 0 {
		fmt.Fprintf(out, "%s: %d operations failed in the concurrent window\n", sp.name, res.failed)
		res.correct = false
	}
	// Crash recovery, timed: every segment replays its whole WAL.
	records := float64(h.eng.Metrics().Snapshot().Values["wal.records"])
	t0 = time.Now()
	if err := crashRecover(h); err != nil {
		return nil, err
	}
	L["wal.replay_us_per_record"] = ratio(us(time.Since(t0)), records)
	if err := w.check(ctx, h); err != nil {
		fmt.Fprintf(out, "%s: GATE FAILED after crash recovery: %v\n", sp.name, err)
		res.correct = false
	}

	path, err := writeTrace(o.outDir, sp.name, tr.spans, probes)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s: trace written to %s\n", sp.name, path)

	for _, m := range perLayer {
		res.metrics = append(res.metrics, metric{m.name, L[m.name], m.unit})
		delete(L, m.name)
	}
	for name := range L {
		return nil, fmt.Errorf("per-layer metric %s is computed but not declared", name) // a bug in this file
	}
	return res, nil
}
