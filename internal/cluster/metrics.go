package cluster

import "repro/internal/obs"

// Metric names are stable dotted identifiers, documented in
// docs/OBSERVABILITY.md. Counters and max-gauges are recorded through
// pre-resolved handles on the hot paths; computed aggregates (cache
// occupancy, scan totals, breaker states, expansion progress) are emitted by
// one collector per subsystem, run on demand at snapshot/scrape time, so
// observability never adds per-statement work for them.

// initMetrics creates the registry and resolves every hot-path handle.
// Called before the first segment is built (segments share the WAL flush
// histogram).
func (c *Cluster) initMetrics() {
	r := obs.NewRegistry()
	c.metrics = r
	c.commits1PC = r.Counter("txn.commits_1pc")
	c.commits2PC = r.Counter("txn.commits_2pc")
	c.commitsRO = r.Counter("txn.commits_readonly")
	c.aborts = r.Counter("txn.aborts")
	c.deadlockErr = r.Counter("txn.deadlock_victims")
	c.failovers = r.Counter("fts.failovers")
	c.spills = r.Counter("exec.spill.events")
	c.spillBytes = r.Counter("exec.spill.bytes")
	c.spillFiles = r.Counter("exec.spill.files")
	c.spillPeak = r.Gauge("exec.spill.mem_peak")
	c.vmemPeak = r.Gauge("exec.vmem_peak")
	c.spillLeaks = r.Counter("exec.spill.leaks")
	c.dispatchRetries = r.Counter("dispatch.retries")
	c.walTruncations = r.Counter("wal.truncations")
	c.walTruncatedBytes = r.Counter("wal.truncated_bytes")
	c.walFlushLat = r.Histogram("wal.flush_seconds")
	c.misestimates = r.Counter("optimizer.misestimates")
	c.robustFallbacks = r.Counter("optimizer.robust_fallbacks")
	c.groups.SetAdmissionWaits(r.Counter("resgroup.admission_waits"))
}

// registerCollectors wires the computed metrics, one collector — and so one
// aggregation per snapshot — per subsystem. Called once the topology is
// published (the collectors fold over live segments).
func (c *Cluster) registerCollectors() {
	r := c.metrics
	r.Collect(func(emit obs.Emit) {
		scanned, skipped := c.ScanBlockStats()
		emit("storage.scan.blocks_scanned", scanned)
		emit("storage.scan.blocks_skipped", skipped)
		emit("storage.versions_reclaimed", c.VersionsReclaimed())
		st := c.BlockCacheStats()
		emit("storage.blockcache.hits", st.Hits)
		emit("storage.blockcache.misses", st.Misses)
		emit("storage.blockcache.evictions", st.Evictions)
		emit("storage.blockcache.used_bytes", st.UsedBytes)
		emit("storage.blockcache.entries", int64(st.Entries))
	})
	r.Collect(func(emit obs.Emit) {
		st := c.WALStats()
		emit("wal.records", st.Records)
		emit("wal.bytes", st.Bytes)
		emit("wal.flushes", st.Flushes)
		emit("wal.mirror_applied_lsn", int64(st.MirrorAppliedLSN))
		emit("wal.replay_lsn", int64(st.ReplayLSN))
	})
	r.Collect(func(emit obs.Emit) {
		st := c.FaultStats()
		emit("fault.armed", int64(st.Armed))
		emit("fault.hits", st.Hits)
		emit("fault.triggers", st.Triggers)
		emit("fault.breaker_opens", st.BreakerOpens)
		emit("fault.breaker_fast_fails", st.BreakerFastFails)
		emit("fault.breakers_open", st.BreakersOpen)
	})
	r.Collect(func(emit obs.Emit) {
		emit("cluster.segments", int64(c.SegCount()))
		p := c.ExpandStatus()
		emit("expand.rows_moved", p.RowsMoved)
		emit("expand.tables_done", int64(p.TablesDone))
		emit("expand.restarts", p.Restarts)
	})
	r.Collect(func(emit obs.Emit) {
		waited, waits := c.LockWaitStats()
		emit("lock.waits", waits)
		emit("lock.wait_micros_total", waited.Microseconds())
		_, deadlocks, _, _ := c.GDDStats()
		emit("gdd.deadlocks", deadlocks)
	})
	r.Collect(func(emit obs.Emit) {
		emit("optimizer.analyzed_tables", int64(c.AnalyzedTables()))
	})
}

// Metrics returns the cluster's observability registry.
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }
