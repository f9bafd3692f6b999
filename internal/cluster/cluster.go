package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/fault"
	"repro/internal/fts"
	"repro/internal/gdd"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/resgroup"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Cluster is one running database: a coordinator (distributed transaction
// manager, catalog, lock table, GDD daemon, resource groups) plus segments.
type Cluster struct {
	cfg     *Config
	catalog *catalog.Catalog
	coord   *dtm.Coordinator
	locks   *lockmgr.Manager // coordinator's lock table (segment id -1)
	// topo is the published segment map. Each slot is an atomic pointer
	// (mirror promotion replaces a slot's Segment while dispatch is running,
	// so readers go through seg(i) and never see a torn update); online
	// expansion publishes a longer topology whose existing slot and breaker
	// pointers are shared with the old one, so a reader holding the previous
	// snapshot still observes promotions.
	topo   atomic.Pointer[topology]
	groups *resgroup.Manager
	daemon *gdd.Daemon

	// ddlMu serializes table DDL against mirror promotion/resync: a CREATE
	// or DROP TABLE racing the window where a mirror is detached but the
	// promoted segment not yet published would otherwise reach neither
	// copy. Ordering: ddlMu is always taken before topoMu.
	ddlMu sync.Mutex

	// Fault tolerance: per-slot mirrors and the in-flight-promotion marks
	// (guarded by topoMu), the probe daemon, and topoCh — closed and
	// replaced on every topology change so dispatch waits can wake.
	topoMu    sync.Mutex
	mirrors   []*Mirror
	promoting []bool
	topoCh    chan struct{}
	ftsd      *fts.Daemon
	// replicaMode is the live replication mode (SET replica_mode switches
	// sync↔async at runtime); segments hold a pointer to it.
	replicaMode atomic.Int32

	// replayLSN is the LSN the most recent promotion had replayed/applied
	// when it took over.
	replayLSN atomic.Uint64

	// txns tracks live transactions by lock-owner id, for GDD liveness
	// checks and victim kills. nextOwner hands out owner ids.
	txmu      sync.Mutex
	txns      map[lockmgr.TxnID]*LiveTxn
	nextOwner atomic.Uint64

	// truncTick counts completed transactions to pace mapping truncation.
	truncTick atomic.Int64
	// directReads counts direct-dispatchable SELECT dispatches (see
	// gangSampleEvery).
	directReads atomic.Uint64

	// statsCache caches per-table row counts for the planner (plan.Stats),
	// invalidated by writes; keyed by canonical table name. statsGen is the
	// per-table invalidation generation: a count computed concurrently with
	// a write is only cached if no invalidation happened while it was being
	// computed, so a stale count can never be pinned.
	statsMu    sync.Mutex
	statsCache map[string]int64
	statsGen   map[string]uint64

	// planEpoch is the catalog/statistics generation the shared parse/plan
	// cache keys on: DDL (CREATE/DROP TABLE, CREATE INDEX, TRUNCATE) and
	// ANALYZE bump it, so every cached plan built against the old schema or
	// statistics misses on its next lookup and is re-planned.
	planEpoch atomic.Uint64

	// misestimated records plan keys whose optimistic cardinality bound was
	// violated mid-flight (actual rows exceeded est+bound); the planner
	// answers subsequent executions with the robust plan. The counters feed
	// SHOW optimizer_stats.
	misestMu        sync.Mutex
	misestimated    map[string]struct{}
	misestimates    *obs.Counter // optimizer.misestimates
	robustFallbacks *obs.Counter // optimizer.robust_fallbacks

	// coordLog is the coordinator's log of 2PC commit records. Its flushes
	// are the coordinator's fsyncs (wal_flush at CoordinatorSeg), counted
	// by wal.coord_flushes and left out of the segment logs' wal.* series.
	coordLog *wal.Log

	// cacheReserved is what the segments' block caches took from the
	// resource-group global vmem pool (at boot and when expansion adds
	// segments); returned on Close.
	cacheReserved atomic.Int64

	// Metrics: the cluster-wide observability registry plus the pre-resolved
	// handles the hot paths record through (a handle add is one atomic op —
	// the registry map is never touched per statement). Every counter below
	// is registered under a stable dotted name; SHOW *_stats and the
	// Prometheus /metrics endpoint read the same registry, making it the one
	// source of truth for engine statistics.
	metrics     *obs.Registry
	commits1PC  *obs.Counter // txn.commits_1pc
	commits2PC  *obs.Counter // txn.commits_2pc
	commitsRO   *obs.Counter // txn.commits_readonly
	aborts      *obs.Counter // txn.aborts
	deadlockErr *obs.Counter // txn.deadlock_victims
	failovers   *obs.Counter // fts.failovers

	// Cumulative executor spill accounting (SHOW spill_stats): spill events,
	// bytes and files written, and the highest per-statement operator-memory
	// peak observed.
	spills     *obs.Counter // exec.spill.events
	spillBytes *obs.Counter // exec.spill.bytes
	spillFiles *obs.Counter // exec.spill.files
	spillPeak  *obs.Gauge   // exec.spill.mem_peak
	vmemPeak   *obs.Gauge   // exec.vmem_peak: highest per-statement resgroup vmem high water
	spillLeaks *obs.Counter // exec.spill.leaks: files the post-statement backstop removed

	// walFlushLat is the WAL group-commit sync latency histogram, shared by
	// every segment's log (wal.flush_seconds).
	walFlushLat *obs.Histogram

	// Fault injection: the registry every fault point on this cluster
	// evaluates. The per-segment dispatch breakers live in the topology so
	// segments added by expansion get one.
	faults          *fault.Registry
	dispatchRetries *obs.Counter // dispatch.retries: attempts retried after a transient error
	// walTruncations/walTruncatedBytes count torn-tail truncations performed
	// by revive-time crash recovery.
	walTruncations    *obs.Counter // wal.truncations
	walTruncatedBytes *obs.Counter // wal.truncated_bytes

	// Storage counters every segment incarnation and its block cache add
	// to, so their totals survive a failover (SHOW scan_stats).
	blocksScanned     *obs.Counter // storage.scan.blocks_scanned
	blocksSkipped     *obs.Counter // storage.scan.blocks_skipped
	versionsReclaimed *obs.Counter // storage.versions_reclaimed
	cacheHits         *obs.Counter // storage.blockcache.hits
	cacheMisses       *obs.Counter // storage.blockcache.misses
	cacheEvictions    *obs.Counter // storage.blockcache.evictions

	// Lock-wait counters every lock manager — the coordinator's and each
	// segment incarnation's — adds to, so failover loses no wait.
	// lockWaitNanos is not a series of its own: it feeds
	// lock.wait_micros_total, which adds the waits still queued.
	lockWaits     *obs.Counter // lock.waits
	lockWaitNanos *obs.Counter

	// expand serializes online-expansion runs and records the most recent
	// run's progress for SHOW expand_status.
	expandMu sync.Mutex
	expand   *expandRun

	closed atomic.Bool
}

// topology is the cluster's segment map: one slot per segment plus that
// slot's dispatch circuit breaker. Expansion publishes a longer copy under
// topoMu; slot and breaker pointers are shared across versions.
type topology struct {
	slots    []*atomic.Pointer[Segment]
	breakers []*fault.Breaker
	// refs[i] is slot i as a commit participant (a segRef), boxed once.
	refs []dtm.Participant
}

// topoNow returns the current topology snapshot (lock-free).
func (c *Cluster) topoNow() *topology { return c.topo.Load() }

// slot returns segment slot i of the live topology.
func (c *Cluster) slot(i int) *atomic.Pointer[Segment] { return c.topoNow().slots[i] }

// breaker returns the dispatch breaker guarding segment i.
func (c *Cluster) breaker(i int) *fault.Breaker { return c.topoNow().breakers[i] }

// SegCount is the number of live segments — the boot width plus any added
// by online expansion. Dispatch paths read it per statement, never from the
// boot config.
func (c *Cluster) SegCount() int { return len(c.topoNow().slots) }

// LiveTxn is the coordinator's bookkeeping for one transaction. A
// transaction that only reads is an owner id and nothing else: the owner id
// holds its relation and row locks and names it in the GDD's wait-for
// graphs for its whole life. Its first write draws a distributed xid
// (DXID), which is what stamps tuples, enters the coordinator's in-progress
// set and is logged on the segments it writes.
type LiveTxn struct {
	c     *Cluster
	owner lockmgr.TxnID
	dxid  dtm.DXID // InvalidDXID until the first write
	// coord and segOwners[i] are the transaction's owner records in the
	// coordinator's and segment i's lock tables, nil until it first locks
	// there. A kept transaction (see BeginTxn) hands them to the next.
	coord     *lockmgr.Owner
	segOwners []*lockmgr.Owner
	keep      bool
	// touched[i] is true when segment i participated at all (it may hold
	// locks of the owner). It starts in touchedBuf, so a transaction on a
	// cluster of up to len(touchedBuf) segments allocates no slice for it.
	touched    []bool
	touchedBuf [16]bool
	// wrote[i] is 1 + the segment incarnation the transaction's first write
	// on segment i landed on, 0 when it has not written there; nil until
	// the first write. If the slot's generation has moved on by commit time
	// (a mirror was promoted), those writes died with the old primary and
	// the transaction must abort.
	wrote []int
	// wroteMaps records, per table this transaction wrote, the table's
	// distribution-map version at write time. A flip between the write and
	// the commit means the written shards were retired with the old
	// placement, so the transaction fences with ErrTxnLostWrites — the
	// per-table generalization of wrote. A transaction writes few tables:
	// a list beats a map.
	wroteMaps []wroteMap
}

// grow widens the per-segment slices to n entries. Statements call it once
// at dispatch entry (before any fan-out goroutine indexes them), so a
// transaction spanning an online expansion addresses segments added after
// it began. Sessions are single-threaded, so no lock is needed.
func (t *LiveTxn) grow(n int) {
	for len(t.touched) < n {
		t.touched = append(t.touched, false)
		t.segOwners = append(t.segOwners, nil)
	}
	for t.wrote != nil && len(t.wrote) < n {
		t.wrote = append(t.wrote, 0)
	}
}

// wroteOn reports whether the transaction wrote segment i, and the
// incarnation its first write there landed on.
func (t *LiveTxn) wroteOn(i int) (gen int, ok bool) {
	if i < len(t.wrote) && t.wrote[i] > 0 {
		return t.wrote[i] - 1, true
	}
	return 0, false
}

// markWrote records a write on segment i's incarnation gen (the first
// write's incarnation is the one that counts). Call grow first.
func (t *LiveTxn) markWrote(i, gen int) {
	t.touched[i] = true
	if t.wrote == nil {
		t.wrote = make([]int, len(t.touched))
	}
	if t.wrote[i] == 0 {
		t.wrote[i] = gen + 1
	}
}

// wroteMap is a table a transaction wrote and its distribution-map version
// at the first write.
type wroteMap struct {
	tab *catalog.Table
	ver uint64
}

// noteWroteMap records the distribution-map version of a table this
// transaction wrote (first write wins: the fence compares against the
// version the writes were routed under).
func (t *LiveTxn) noteWroteMap(tab *catalog.Table, ver uint64) {
	for _, w := range t.wroteMaps {
		if w.tab == tab {
			return
		}
	}
	t.wroteMaps = append(t.wroteMaps, wroteMap{tab: tab, ver: ver})
}

// New boots a cluster.
func New(cfg *Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:       cfg,
		catalog:   catalog.New(),
		coord:     dtm.NewCoordinator(),
		locks:     lockmgr.NewManager(),
		groups:    resgroup.NewManager(cfg.Cores, cfg.MemoryBytes),
		txns:      make(map[lockmgr.TxnID]*LiveTxn),
		mirrors:   make([]*Mirror, cfg.NumSegments),
		promoting: make([]bool, cfg.NumSegments),
		topoCh:    make(chan struct{}),
		coordLog:  wal.New(),
	}
	c.replicaMode.Store(int32(cfg.ReplicaMode))
	c.initMetrics()
	c.faults = fault.NewRegistry()
	c.coordLog.AttachFaults(c.faults, CoordinatorSeg)
	c.locks.SetFaultHook(func() error { return c.faults.Inject(fault.LockAcquire, CoordinatorSeg) })
	topo := &topology{
		slots:    make([]*atomic.Pointer[Segment], cfg.NumSegments),
		breakers: make([]*fault.Breaker, cfg.NumSegments),
		refs:     make([]dtm.Participant, cfg.NumSegments),
	}
	for i := 0; i < cfg.NumSegments; i++ {
		seg, m := c.buildSegment(i)
		slot := &atomic.Pointer[Segment]{}
		slot.Store(seg)
		topo.slots[i] = slot
		topo.breakers[i] = fault.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		topo.refs[i] = segRef{c: c, id: i}
		c.mirrors[i] = m
	}
	c.topo.Store(topo)
	c.registerCollectors()
	for _, def := range c.catalog.ResourceGroups() {
		if _, err := c.groups.CreateGroup(*def); err != nil {
			panic(fmt.Sprintf("cluster: built-in resource group: %v", err))
		}
	}
	if cfg.GDD {
		c.daemon = gdd.NewDaemon(c, cfg.GDDPeriod)
		c.daemon.Start()
	}
	if cfg.ReplicaMode != ReplicaNone {
		c.ftsd = fts.NewDaemon(c, cfg.FTSInterval)
		c.ftsd.Start()
	}
	return c
}

// buildSegment constructs segment i with its fault wiring, block cache and
// (when the cluster is replicated) a streaming mirror — shared by boot and
// online expansion.
func (c *Cluster) buildSegment(i int) (*Segment, *Mirror) {
	cfg := c.cfg
	seg := newSegment(i, cfg)
	seg.attachFaults(c.faults)
	seg.log.SetFlushLatency(c.walFlushLat)
	seg.distInProgress = c.coord.IsInProgress
	seg.repMode = &c.replicaMode
	seg.reclaimed = c.versionsReclaimed
	seg.locks.Waits, seg.locks.WaitNanos = c.lockWaits, c.lockWaitNanos
	// The decoded-block cache capacity comes out of the same global vmem
	// budget queries allocate from; a segment whose share the pool cannot
	// cover runs without a shared cache.
	if cfg.BlockCacheBytes > 0 && c.groups.Global().Reserve(cfg.BlockCacheBytes) {
		seg.blockCache = c.newBlockCache()
		c.cacheReserved.Add(cfg.BlockCacheBytes)
	}
	var m *Mirror
	if cfg.ReplicaMode != ReplicaNone {
		m = newMirror(i, cfg)
		m.faults = c.faults
		if err := seg.log.AttachShip(m.Receive); err != nil {
			panic(fmt.Sprintf("cluster: attaching mirror: %v", err))
		}
		m.start()
		seg.mirror.Store(m)
	}
	return seg, m
}

// newBlockCache returns a segment's decoded-block cache, counting into the
// cluster's storage.blockcache.* handles.
func (c *Cluster) newBlockCache() *storage.BlockCache {
	bc := storage.NewBlockCache(c.cfg.BlockCacheBytes)
	bc.Hits, bc.Misses, bc.Evictions = c.cacheHits, c.cacheMisses, c.cacheEvictions
	return bc
}

// seg returns the current primary for slot i.
func (c *Cluster) seg(i int) *Segment { return c.slot(i).Load() }

// eachSeg visits the current primary of every slot.
func (c *Cluster) eachSeg(fn func(i int, s *Segment)) {
	t := c.topoNow()
	for i, sl := range t.slots {
		fn(i, sl.Load())
	}
}

// Close stops background daemons and returns the block caches' vmem.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	if c.ftsd != nil {
		c.ftsd.Stop()
	}
	if c.daemon != nil {
		c.daemon.Stop()
	}
	c.topoMu.Lock()
	mirrors := append([]*Mirror(nil), c.mirrors...)
	c.topoMu.Unlock()
	for _, m := range mirrors {
		if m != nil {
			_ = m.drainAndStop()
		}
	}
	if v := c.cacheReserved.Load(); v > 0 {
		c.groups.Global().Release(v)
	}
}

// Config returns the active configuration.
func (c *Cluster) Config() *Config { return c.cfg }

// Catalog returns the metadata store.
func (c *Cluster) Catalog() *catalog.Catalog { return c.catalog }

// Groups returns the resource-group manager.
func (c *Cluster) Groups() *resgroup.Manager { return c.groups }

// Segments returns a snapshot of the current primaries (tests, benchmarks
// and diagnostics; a concurrent promotion may replace a slot after the
// snapshot is taken).
func (c *Cluster) Segments() []*Segment {
	t := c.topoNow()
	out := make([]*Segment, len(t.slots))
	for i, sl := range t.slots {
		out[i] = sl.Load()
	}
	return out
}

// CoordinatorLocks exposes the coordinator's lock table.
func (c *Cluster) CoordinatorLocks() *lockmgr.Manager { return c.locks }

// LockWaitStats aggregates lock-wait accounting across the cluster (Fig. 2).
func (c *Cluster) LockWaitStats() (waited time.Duration, waits int64) {
	waited = time.Duration(c.lockWaitNanos.Load()) + c.locks.QueuedWait()
	c.eachSeg(func(_ int, s *Segment) { waited += s.locks.QueuedWait() })
	return waited, c.lockWaits.Load()
}

// ---- transaction lifecycle ----

// BeginTxn opens a transaction: an owner id, and no distributed xid until
// the transaction writes (see DXID). reuse, when not nil, is a finished
// transaction of a caller that runs one after another (a session): the new
// one takes over its object, its held lists and its owner record in each
// lock table, under a fresh owner id, and the caller ends the line with
// DropTxn. A transaction opened with a nil reuse drops its owner records
// when it ends.
func (c *Cluster) BeginTxn(reuse *LiveTxn) *LiveTxn {
	lt := reuse
	if lt == nil {
		lt = &LiveTxn{c: c}
		lt.touched = lt.touchedBuf[:0]
	} else {
		lt.keep, lt.dxid = true, dtm.InvalidDXID
		clear(lt.touched)
		clear(lt.wrote)
		clear(lt.wroteMaps)
		lt.wroteMaps = lt.wroteMaps[:0]
	}
	lt.grow(c.SegCount())
	c.txmu.Lock()
	lt.owner = lockmgr.TxnID(c.nextOwner.Add(1))
	c.txns[lt.owner] = lt
	c.txmu.Unlock()
	return lt
}

// DropTxn unregisters the owner records of t, a finished transaction kept
// for reuse that will not be reused again.
func (c *Cluster) DropTxn(t *LiveTxn) {
	if t.coord != nil {
		t.coord.Drop()
	}
	for _, o := range t.segOwners {
		if o != nil {
			o.Drop()
		}
	}
	t.coord, t.segOwners = nil, t.segOwners[:0]
	t.touched = t.touched[:0]
}

// coordOwner returns the transaction's owner record in the coordinator's
// lock table.
func (t *LiveTxn) coordOwner() *lockmgr.Owner {
	if t.coord == nil {
		t.coord = t.c.locks.NewOwner(t.owner)
	} else if t.coord.ID() != t.owner {
		t.coord.Reset(t.owner)
	}
	return t.coord
}

// ownerOn returns the transaction's owner record in segment s's lock table,
// registering one at its first lock there or after a promotion replaced
// the table, and marks s touched. Call grow first; fan-out goroutines call
// it for distinct segments only.
func (t *LiveTxn) ownerOn(s *Segment) *lockmgr.Owner {
	t.touched[s.id] = true
	o := t.segOwners[s.id]
	switch {
	case o == nil || o.Manager() != s.locks:
		if o != nil {
			o.Drop()
		}
		o = s.locks.NewOwner(t.owner)
		t.segOwners[s.id] = o
	case o.ID() != t.owner:
		o.Reset(t.owner)
	}
	return o
}

// Owner returns the transaction's lock-owner id: the id its locks are held
// under and the GDD knows it by.
func (t *LiveTxn) Owner() lockmgr.TxnID { return t.owner }

// DXID returns the transaction's distributed xid, drawing a fresh one from
// the coordinator at the first call — which the dispatch paths make at the
// transaction's first write (INSERT, UPDATE, DELETE or SELECT … FOR
// UPDATE). Drawn then and not at BEGIN, the xid is newer than every
// snapshot taken before the write, so none of them can count it finished.
// Sessions are single-threaded, so no lock is needed.
func (t *LiveTxn) DXID() dtm.DXID {
	if t.dxid == dtm.InvalidDXID {
		t.dxid = t.c.coord.Begin()
	}
	return t.dxid
}

// Snapshot takes a fresh distributed snapshot (read committed: one per
// statement) and registers it, holding the horizon back until
// ReleaseSnapshot.
func (c *Cluster) Snapshot() *dtm.DistSnapshot { return c.coord.Snapshot() }

// SnapshotInto is Snapshot into s, a released snapshot whose storage it
// reuses (see dtm.Coordinator.SnapshotInto).
func (c *Cluster) SnapshotInto(s *dtm.DistSnapshot) *dtm.DistSnapshot { return c.coord.SnapshotInto(s) }

// ReleaseSnapshot ends a snapshot's life: its statement is over.
func (c *Cluster) ReleaseSnapshot(s *dtm.DistSnapshot) { c.coord.Release(s) }

// LiveSnapshots returns the number of registered snapshots (leak checks).
func (c *Cluster) LiveSnapshots() int { return c.coord.LiveSnapshots() }

// CommitTxn runs the appropriate commit protocol and releases all locks.
// Writer participants are stable segment references that resolve the
// current primary on every protocol call, so a failover mid-commit retries
// against the promoted mirror (whose replayed clog makes the commit calls
// idempotent). A transaction whose earlier writes landed on a since-dead
// incarnation is aborted here — those writes were rolled back by crash
// recovery on the new primary.
//
// A transaction that never wrote has nothing to make durable and nothing to
// log: it releases its locks and is done.
func (c *Cluster) CommitTxn(t *LiveTxn) (dtm.CommitStats, error) { return c.commitThen(t, nil) }

// commitThen is CommitTxn with then, when set, run once the commit is
// durable and before the transaction's locks go; it returns then's error.
func (c *Cluster) commitThen(t *LiveTxn, then func() error) (dtm.CommitStats, error) {
	if t.dxid == dtm.InvalidDXID {
		c.release(t)
		c.commitsRO.Add(1)
		c.maybeTruncateMappings()
		return dtm.CommitStats{Protocol: dtm.ProtocolReadOnly}, nil
	}
	var writers []dtm.Participant
	refs := c.topoNow().refs
	for i := range t.wrote {
		gen, ok := t.wroteOn(i)
		if !ok {
			continue
		}
		if s := c.seg(i); s.down.Load() || s.gen != gen {
			c.AbortTxn(t)
			return dtm.CommitStats{}, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", i, ErrTxnLostWrites)
		}
		writers = append(writers, refs[i])
	}
	if err := c.checkWroteMaps(t); err != nil {
		c.AbortTxn(t)
		return dtm.CommitStats{}, err
	}
	st, err := dtm.Commit(c.coord, t.dxid, writers, c.cfg.OnePhase, c.coordCommitRecord)
	if err != nil {
		c.release(t)
		c.aborts.Add(1)
		return st, err
	}
	switch st.Protocol {
	case dtm.ProtocolOnePhase:
		c.commits1PC.Add(1)
	case dtm.ProtocolTwoPhase:
		c.commits2PC.Add(1)
	default:
		c.commitsRO.Add(1)
	}
	if then != nil {
		err = then()
	}
	c.release(t)
	c.maybeTruncateMappings()
	return st, err
}

// checkWroteMaps fences transactions whose writes were routed under a
// distribution map that has since been flipped by online expansion: the
// written shards retired with the old placement, so the transaction must
// abort — same contract as the segment-incarnation (gen) fence.
// A dropped table keeps the placement it was dropped with, so DROP TABLE
// adds no fence of its own: it invalidated the writes wholesale.
func (c *Cluster) checkWroteMaps(t *LiveTxn) error {
	for _, w := range t.wroteMaps {
		if _, cur := w.tab.Placement(); cur != w.ver {
			return fmt.Errorf("cluster: table %q moved to a new distribution map (v%d -> v%d) after this transaction wrote it: %w",
				w.tab.Name, w.ver, cur, ErrTxnLostWrites)
		}
	}
	return nil
}

// AbortTxn rolls back everywhere and releases all locks. Every touched
// segment is asked to abort, not just the recorded writers: a statement
// that failed part-way may have begun a local transaction it never reported.
func (c *Cluster) AbortTxn(t *LiveTxn) {
	if t.dxid != dtm.InvalidDXID {
		var parts []dtm.Participant
		refs := c.topoNow().refs
		for i, touched := range t.touched {
			if touched {
				parts = append(parts, refs[i])
			}
		}
		dtm.Abort(c.coord, t.dxid, parts)
	}
	c.release(t)
	c.aborts.Add(1)
}

// release drops the transaction's remaining locks — the coordinator's and
// those it holds on segments it touched without a local transaction there
// (the commit protocol released the others) — and forgets it.
func (c *Cluster) release(t *LiveTxn) {
	for i, touched := range t.touched {
		if o := t.segOwners[i]; touched && o != nil {
			o.ReleaseAll()
		}
	}
	if t.coord != nil {
		t.coord.ReleaseAll()
	}
	c.forget(t)
	if !t.keep {
		c.DropTxn(t)
	}
}

// coordCommitRecord durably writes the coordinator's commit record for
// dxid: the decision promotion-time 2PC recovery consults, appended to the
// coordinator log and flushed with group commit.
func (c *Cluster) coordCommitRecord(dxid dtm.DXID) {
	c.coord.LogCommitRecord(dxid)
	r := wal.Record{Type: wal.TypeCommit, Dxid: uint64(dxid)}
	c.coordLog.Append(&r)
	c.coordLog.Flush(0)
}

func (c *Cluster) forget(t *LiveTxn) {
	c.txmu.Lock()
	delete(c.txns, t.owner)
	c.txmu.Unlock()
}

// maybeTruncateMappings truncates, every 256 commits, the local↔distributed
// xid mappings of every segment and every live mirror, and the
// coordinator's commit records, below the one horizon: the oldest dxid any
// live snapshot or running transaction can still see as running (paper
// §5.1). A mirror truncates at the same horizon as its primary — prepared
// transactions stay in progress, so in-doubt resolution after a promotion
// still finds their entries. Each primary keeps the horizon for its index
// probes to prune under.
func (c *Cluster) maybeTruncateMappings() {
	if c.truncTick.Add(1)%256 != 0 {
		return
	}
	horizon := c.coord.Horizon()
	c.eachSeg(func(_ int, s *Segment) {
		s.mapping.Truncate(horizon)
		s.horizon.Store(uint64(horizon))
	})
	c.eachMirror(func(m *Mirror) {
		m.mapping.Truncate(horizon)
	})
	c.coord.TruncateCommitLog(horizon)
}

// ---- gdd.Cluster implementation ----

// CollectWaitGraphs gathers the coordinator's and every segment's local
// wait-for graph.
func (c *Cluster) CollectWaitGraphs() *gdd.GlobalGraph {
	g := &gdd.GlobalGraph{}
	g.Locals = append(g.Locals, gdd.LocalGraph{Segment: gdd.CoordinatorSeg, Edges: c.locks.WaitGraph()})
	c.eachSeg(func(_ int, s *Segment) {
		g.Locals = append(g.Locals, gdd.LocalGraph{Segment: gdd.SegmentID(s.id), Edges: s.locks.WaitGraph()})
	})
	return g
}

// TxnExists reports whether the transaction with this lock-owner id is
// still live.
func (c *Cluster) TxnExists(txid uint64) bool {
	c.txmu.Lock()
	defer c.txmu.Unlock()
	_, ok := c.txns[lockmgr.TxnID(txid)]
	return ok
}

// KillTxn terminates a transaction (by lock-owner id) as a deadlock victim:
// every lock table marks it killed so its blocked waits fail immediately;
// the session driving it observes the error and aborts.
func (c *Cluster) KillTxn(txid uint64) {
	owner := lockmgr.TxnID(txid)
	c.locks.Kill(owner)
	c.eachSeg(func(_ int, s *Segment) {
		s.locks.Kill(owner)
	})
	c.deadlockErr.Add(1)
}

// LockCoordinator takes the parse-analyze relation lock on the coordinator
// (the stage-one lock of paper §4.2).
func (c *Cluster) LockCoordinator(ctx context.Context, t *LiveTxn, table string, mode lockmgr.Mode) error {
	tab, err := c.catalog.Table(table)
	if err != nil {
		return err
	}
	return c.LockCoordinatorTable(ctx, t, tab, mode)
}

// LockCoordinatorTable is LockCoordinator of a table already resolved.
func (c *Cluster) LockCoordinatorTable(ctx context.Context, t *LiveTxn, tab *catalog.Table, mode lockmgr.Mode) error {
	if !c.cfg.GDD {
		tctx, cancel := context.WithTimeout(ctx, noGDDLockTimeout)
		defer cancel()
		return t.coordOwner().Acquire(tctx, lockmgr.RelationTag(uint64(tab.ID)), mode)
	}
	return t.coordOwner().Acquire(ctx, lockmgr.RelationTag(uint64(tab.ID)), mode)
}

// PlanEpoch returns the catalog/statistics generation for plan-cache keys.
func (c *Cluster) PlanEpoch() uint64 { return c.planEpoch.Load() }

// BumpPlanEpoch invalidates every cached plan (DDL and ANALYZE call it; a
// plan built under the old epoch can never be returned again).
func (c *Cluster) BumpPlanEpoch() { c.planEpoch.Add(1) }

// FlushWAL forces a group-commit flush on every segment's log — the
// graceful-drain path of the network server calls it so a shutdown leaves
// everything acknowledged durable (and, under sync replication, applied on
// the mirrors).
func (c *Cluster) FlushWAL() {
	c.eachSeg(func(_ int, s *Segment) {
		if !s.down.Load() {
			s.fsync()
		}
	})
}

// ---- DDL ----

// ApplyCreateTable registers the table and instantiates storage everywhere
// — primaries and mirror standbys (DDL is coordinator-applied on both
// sides; only DML flows through the WAL stream).
func (c *Cluster) ApplyCreateTable(t *catalog.Table) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if err := c.catalog.CreateTable(t); err != nil {
		return err
	}
	// Rows hash across the segments live at creation time; online expansion
	// widens the placement (and bumps its version) per table as the mover
	// finishes each one.
	t.SetPlacement(c.SegCount(), 0)
	c.eachSeg(func(_ int, s *Segment) {
		s.CreateTable(t)
	})
	c.eachMirror(func(m *Mirror) { m.CreateTable(t) })
	c.BumpPlanEpoch()
	return nil
}

// eachMirror visits the live mirror standbys.
func (c *Cluster) eachMirror(fn func(*Mirror)) {
	c.topoMu.Lock()
	mirrors := append([]*Mirror(nil), c.mirrors...)
	c.topoMu.Unlock()
	for _, m := range mirrors {
		if m != nil {
			fn(m)
		}
	}
}

// ApplyDropTable removes the table everywhere.
func (c *Cluster) ApplyDropTable(name string) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	t, err := c.catalog.Table(name)
	if err != nil {
		return err
	}
	if err := c.catalog.DropTable(name); err != nil {
		return err
	}
	c.eachSeg(func(_ int, s *Segment) {
		s.DropTable(t)
	})
	c.eachMirror(func(m *Mirror) { m.DropTable(t) })
	c.invalidateStats(t.Name)
	c.BumpPlanEpoch()
	return nil
}

// ApplyTruncate clears a table everywhere.
func (c *Cluster) ApplyTruncate(ctx context.Context, t *LiveTxn, name string) error {
	tab, err := c.catalog.Table(name)
	if err != nil {
		return err
	}
	if err := c.LockCoordinator(ctx, t, name, lockmgr.AccessExclusive); err != nil {
		return err
	}
	nseg := c.SegCount()
	t.grow(nseg)
	for i := 0; i < nseg; i++ {
		// segUp, like every other statement's dispatch: a TRUNCATE issued
		// during a failover window waits for the promotion.
		s, err := c.segUp(ctx, i)
		if err != nil {
			return err
		}
		if err := s.LockRelation(ctx, t, tab, lockmgr.AccessExclusive); err != nil {
			return err
		}
		s.TruncateTable(tab)
	}
	c.invalidateStats(tab.Name)
	c.BumpPlanEpoch()
	return nil
}

// ApplyCreateIndex builds and registers an index everywhere. Locks come
// first, then the builds on every segment, then the catalog entry, and the
// segments attach their builds only after that: a lock failure (e.g. a dead
// segment), a build that cannot read a block, or a refused catalog entry
// leaves no index anywhere. The builds, the catalog write and the attaches
// run under ddlMu against the freshly resolved primaries, so a promotion
// cannot slip between them (promote's index-rebuild loop reads the catalog
// under the same mutex).
func (c *Cluster) ApplyCreateIndex(ctx context.Context, t *LiveTxn, table string, idx *catalog.Index) error {
	tab, err := c.catalog.Table(table)
	if err != nil {
		return err
	}
	if err := c.LockCoordinator(ctx, t, table, lockmgr.Share); err != nil {
		return err
	}
	nseg := c.SegCount()
	t.grow(nseg)
	for i := 0; i < nseg; i++ {
		if err := c.seg(i).LockRelation(ctx, t, tab, lockmgr.Share); err != nil {
			return err
		}
	}
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	attach := make([]func(), nseg)
	for i := range attach {
		if attach[i], err = c.seg(i).buildIndex(ctx, tab, idx); err != nil {
			return err
		}
	}
	if err := c.catalog.AddIndex(table, idx); err != nil {
		return err
	}
	for _, f := range attach {
		f()
	}
	c.BumpPlanEpoch()
	return nil
}

// ApplyCreateResourceGroup registers a resource group in catalog + runtime.
func (c *Cluster) ApplyCreateResourceGroup(def *catalog.ResourceGroupDef) error {
	if err := c.catalog.CreateResourceGroup(def); err != nil {
		return err
	}
	if _, err := c.groups.CreateGroup(*def); err != nil {
		// Roll back the catalog entry to stay consistent.
		_ = c.catalog.DropResourceGroup(def.Name)
		return err
	}
	return nil
}

// ApplyDropResourceGroup removes a group from catalog + runtime.
func (c *Cluster) ApplyDropResourceGroup(name string) error {
	if err := c.catalog.DropResourceGroup(name); err != nil {
		return err
	}
	return c.groups.DropGroup(name)
}

// Vacuum reclaims dead versions of a table (or all tables when name == "").
func (c *Cluster) Vacuum(name string) (int, error) {
	var tables []*catalog.Table
	if name == "" {
		tables = c.catalog.Tables()
	} else {
		t, err := c.catalog.Table(name)
		if err != nil {
			return 0, err
		}
		tables = []*catalog.Table{t}
	}
	n := 0
	horizon := c.coord.Horizon()
	for _, t := range tables {
		c.eachSeg(func(_ int, s *Segment) {
			n += s.Vacuum(t, horizon)
		})
		c.invalidateStats(t.Name)
	}
	return n, nil
}

// RowCount implements plan.Stats: the planner's per-table row estimate,
// computed from the segments' storage engines and cached until the next
// write to the table. This is what drives the OLAP planner's
// broadcast-vs-redistribute decision with real data sizes.
func (c *Cluster) RowCount(table string) int64 {
	t, err := c.catalog.Table(table)
	if err != nil {
		return 0
	}
	c.statsMu.Lock()
	if n, ok := c.statsCache[t.Name]; ok {
		c.statsMu.Unlock()
		return n
	}
	gen := c.statsGen[t.Name]
	c.statsMu.Unlock()
	var n int64
	c.eachSeg(func(_ int, s *Segment) {
		n += int64(s.RowCount(t))
	})
	c.statsMu.Lock()
	if c.statsGen[t.Name] == gen {
		if c.statsCache == nil {
			c.statsCache = make(map[string]int64)
		}
		c.statsCache[t.Name] = n
	}
	c.statsMu.Unlock()
	return n
}

// invalidateStats drops the cached row count of a table after a write and
// bumps its generation so an in-flight RowCount computation cannot re-cache
// a count taken before the write.
func (c *Cluster) invalidateStats(name string) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	delete(c.statsCache, name)
	if c.statsGen == nil {
		c.statsGen = make(map[string]uint64)
	}
	c.statsGen[name]++
}
