package cluster

import (
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Metric names are stable dotted identifiers, documented in
// docs/OBSERVABILITY.md. Every cumulative engine counter is a registry
// handle, resolved here and handed to the objects that count into it —
// segment incarnations and their block caches included — so a total outlives
// the object that added to it and no struct keeps a second copy. Collectors,
// run on demand at snapshot/scrape time, only compute gauges and sums over
// live objects (cache occupancy, the logs, breaker states, expansion
// progress), so observability adds no per-statement work for them.

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
	c.blocksScanned = r.Counter("storage.scan.blocks_scanned")
	c.blocksSkipped = r.Counter("storage.scan.blocks_skipped")
	c.versionsReclaimed = r.Counter("storage.versions_reclaimed")
	c.cacheHits = r.Counter("storage.blockcache.hits")
	c.cacheMisses = r.Counter("storage.blockcache.misses")
	c.cacheEvictions = r.Counter("storage.blockcache.evictions")
	c.lockWaits, c.lockWaitNanos = r.Counter("lock.waits"), new(obs.Counter)
	c.locks.Waits, c.locks.WaitNanos = c.lockWaits, c.lockWaitNanos
	c.groups.SetAdmissionWaits(r.Counter("resgroup.admission_waits"))
}

// registerCollectors wires the computed metrics, one collector — and so one
// aggregation per snapshot — per subsystem. Called once the topology is
// published (the collectors fold over live segments).
func (c *Cluster) registerCollectors() {
	r := c.metrics
	r.Collect(func(emit obs.Emit) {
		var used, entries int64
		c.eachSeg(func(_ int, s *Segment) {
			if s.blockCache != nil {
				st := s.blockCache.Stats()
				used += st.UsedBytes
				entries += int64(st.Entries)
			}
		})
		emit("storage.blockcache.used_bytes", used)
		emit("storage.blockcache.entries", entries)
	})
	r.Collect(func(emit obs.Emit) {
		var records, bytes, flushes int64
		c.eachSeg(func(_ int, s *Segment) {
			r, b, f := s.log.Stats()
			records += r
			bytes += b
			flushes += f
		})
		_, _, coordFlushes := c.coordLog.Stats()
		// The replication lag floor: the least applied LSN of the live
		// mirrors, 0 when none runs.
		var applied wal.LSN
		first := true
		c.eachMirror(func(m *Mirror) {
			if lsn := m.AppliedLSN(); first || lsn < applied {
				applied = lsn
			}
			first = false
		})
		emit("wal.records", records)
		emit("wal.bytes", bytes)
		emit("wal.flushes", flushes)
		emit("wal.coord_flushes", coordFlushes)
		emit("wal.mirror_applied_lsn", int64(applied))
		emit("wal.replay_lsn", int64(c.replayLSN.Load()))
	})
	r.Collect(func(emit obs.Emit) {
		hits, triggers := c.faults.Counters()
		var opens, fastFails, open int64
		for _, b := range c.topoNow().breakers {
			o, f := b.Stats()
			opens += o
			fastFails += f
			if b.State() != fault.BreakerClosed {
				open++
			}
		}
		emit("fault.armed", int64(c.faults.Armed()))
		emit("fault.hits", hits)
		emit("fault.triggers", triggers)
		emit("fault.breaker_opens", opens)
		emit("fault.breaker_fast_fails", fastFails)
		emit("fault.breakers_open", open)
	})
	r.Collect(func(emit obs.Emit) {
		emit("cluster.segments", int64(c.SegCount()))
		p := c.ExpandStatus()
		emit("expand.rows_moved", p.RowsMoved)
		emit("expand.tables_done", int64(p.TablesDone))
		emit("expand.restarts", p.Restarts)
	})
	r.Collect(func(emit obs.Emit) {
		waited, _ := c.LockWaitStats()
		emit("lock.wait_micros_total", waited.Microseconds())
		var deadlocks int64 // 0 with the detector off
		if c.daemon != nil {
			_, deadlocks, _, _ = c.daemon.Stats()
		}
		emit("gdd.deadlocks", deadlocks)
	})
	r.Collect(func(emit obs.Emit) {
		emit("optimizer.analyzed_tables", int64(c.AnalyzedTables()))
	})
}

// Metrics returns the cluster's observability registry.
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }
