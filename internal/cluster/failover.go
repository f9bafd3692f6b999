package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dtm"
	"repro/internal/fault"
	"repro/internal/fts"
	"repro/internal/storage"
	"repro/internal/wal"
)

// SegmentDownError marks an operation refused because the target primary is
// dead (and no mirror could take over in time).
type SegmentDownError struct{ Seg int }

func (e *SegmentDownError) Error() string {
	return fmt.Sprintf("cluster: segment %d is down", e.Seg)
}

// IsSegmentDown reports whether err is a segment-down refusal.
func IsSegmentDown(err error) bool {
	if err == nil {
		return false
	}
	var e *SegmentDownError
	return errors.As(err, &e)
}

// ErrTxnLostWrites marks a transaction aborted because a segment it had
// written failed over: crash recovery on the promoted mirror rolled those
// uncommitted writes back, so the transaction can never commit them.
var ErrTxnLostWrites = errors.New("transaction writes were lost in a segment failover")

// ---- fts.Target implementation ----

// SegmentCount implements fts.Target (live count, including segments added
// by online expansion).
func (c *Cluster) SegmentCount() int { return c.SegCount() }

// ProbePrimary implements fts.Target: a probe fails when the primary is
// marked dead.
func (c *Cluster) ProbePrimary(i int) error {
	if s := c.seg(i); s.down.Load() {
		return &SegmentDownError{Seg: i}
	}
	return nil
}

// HasMirror implements fts.Target.
func (c *Cluster) HasMirror(i int) bool {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.mirrors[i] != nil && c.mirrors[i].broken() == nil
}

// Promote implements fts.Target: fail slot i over to its mirror. Losing a
// promotion race (the operator's Recover and the FTS probe can both try)
// is success: whoever won published a live primary.
func (c *Cluster) Promote(i int) error {
	err := c.promote(i)
	if err != nil {
		if s, werr := c.segUp(context.Background(), i); werr == nil && s != nil {
			return nil
		}
	}
	return err
}

// FTS returns the fault-tolerance daemon (nil when replication is off).
func (c *Cluster) FTS() *fts.Daemon { return c.ftsd }

// ---- operator/test hooks ----

// KillSegment marks slot i's primary dead, as if the host vanished:
// dispatch entry points start refusing, and the FTS daemon (when running)
// probes immediately and promotes the mirror. In-flight operations already
// past the entry check finish against the dead primary's memory — the
// simulation's analogue of requests racing a crash — but nothing they do
// after the kill can reach a commit acknowledgement without the commit
// protocol revalidating against the new topology.
func (c *Cluster) KillSegment(i int) error {
	if i < 0 || i >= c.SegCount() {
		return fmt.Errorf("cluster: no segment %d", i)
	}
	s := c.seg(i)
	s.down.Store(true)
	// The host's lock table dies with it: wake every queued waiter with a
	// segment-down error instead of letting them wait on releases that will
	// never arrive (the dead incarnation is invisible to deadlock
	// detection from here on).
	s.locks.Shutdown()
	if c.ftsd != nil {
		c.ftsd.Poke()
	}
	return nil
}

// Recover restores slot i:
//   - primary dead, mirror present: promote now (don't wait for FTS);
//   - primary dead, no mirror: revive from the dead primary's own WAL —
//     full replay into fresh engines plus crash recovery, the
//     restart-after-crash path;
//   - primary alive, no mirror, replication on: rebuild a standby by full
//     resync from the primary's log (gprecoverseg);
//   - primary alive, mirror present: nothing to do.
func (c *Cluster) Recover(i int) error {
	if i < 0 || i >= c.SegCount() {
		return fmt.Errorf("cluster: no segment %d", i)
	}
	// Let an in-flight FTS promotion settle first: deciding against the
	// pre-promotion topology would revive (and later promote) a standby of
	// the already-dead incarnation, silently rolling back everything
	// committed since — the decision below must see the final topology.
	deadline := time.Now().Add(c.cfg.FailoverTimeout)
	for {
		c.topoMu.Lock()
		inFlight := c.promoting[i]
		ch := c.topoCh
		c.topoMu.Unlock()
		if !inFlight {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: segment %d promotion still in flight; retry recovery later", i)
		}
		select {
		case <-ch:
		case <-time.After(5 * time.Millisecond):
		}
	}
	s := c.seg(i)
	if s.down.Load() {
		if c.HasMirror(i) {
			return c.Promote(i) // race-absorbing: FTS may get there first
		}
		// A crash mid-write (torn-write or fsync-failure fault) leaves a torn
		// or CRC-bad tail on the log image: truncate back to the last intact
		// record first, exactly as PostgreSQL recovery stops replay at the
		// first bad record. Everything acknowledged was flushed before the
		// damage, so the truncation only discards unacked work.
		if _, dropped := s.log.RecoverTruncate(); dropped > 0 {
			c.walTruncations.Add(1)
			c.walTruncatedBytes.Add(int64(dropped))
		}
		// Revive: build a "mirror" fed by the dead primary's own log, catch
		// it up, and promote it. This is crash recovery: replay the log,
		// abort in-flight transactions, resolve in-doubt prepared ones.
		if err := c.installStandby(i, s, false); err != nil {
			return err
		}
		return c.promote(i)
	}
	if c.HasMirror(i) {
		return nil
	}
	if c.cfg.ReplicaMode == ReplicaNone {
		return fmt.Errorf("cluster: replication not configured; nothing to recover for segment %d", i)
	}
	if err := c.installStandby(i, s, true); err != nil {
		return err
	}
	if c.ftsd != nil {
		c.ftsd.Poke() // refresh the reported per-segment states promptly
	}
	return nil
}

// installStandby replaces slot i's standby (stopping any previous — e.g.
// broken — one so its applier and replica state are released) with a fresh
// full-resync mirror of src. Runs under the DDL mutex so a concurrent
// CREATE/DROP TABLE cannot slip between the catalog snapshot, the stream
// attach and the standby's installation.
func (c *Cluster) installStandby(i int, src *Segment, attachToSeg bool) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	if c.seg(i) != src {
		// The slot was failed over (or revived) while we waited: a standby
		// seeded from src would replicate a dead incarnation's history.
		return fmt.Errorf("cluster: segment %d was replaced during recovery; retry", i)
	}
	c.topoMu.Lock()
	prev := c.mirrors[i]
	c.mirrors[i] = nil
	c.topoMu.Unlock()
	if prev != nil {
		_ = prev.drainAndStop()
	}
	m, err := c.buildStandby(i, src)
	if err != nil {
		return err
	}
	c.topoMu.Lock()
	c.mirrors[i] = m
	c.topoMu.Unlock()
	if attachToSeg {
		src.mirror.Store(m)
	}
	return nil
}

// buildStandby creates a mirror for src and seeds it with src's entire log
// (full resync): AttachShip delivers the historical frames and installs
// the stream atomically under the log's append lock, so concurrent DML
// cannot interleave ahead of the history.
func (c *Cluster) buildStandby(i int, src *Segment) (*Mirror, error) {
	m := newMirror(i, c.cfg)
	m.faults = c.faults
	for _, t := range c.catalog.Tables() {
		m.CreateTable(t)
	}
	if err := src.log.AttachShip(m.Receive); err != nil {
		return nil, fmt.Errorf("cluster: resync of segment %d: %w", i, err)
	}
	m.start()
	return m, nil
}

// SetReplicaMode switches between synchronous and asynchronous replication
// at runtime. Enabling replication on a cluster booted without mirrors is
// refused — standbys are a boot-time (or Recover-time) decision.
func (c *Cluster) SetReplicaMode(m ReplicaMode) error {
	if m != ReplicaNone && c.cfg.ReplicaMode == ReplicaNone {
		return errors.New("cluster: replication was not configured at boot")
	}
	c.replicaMode.Store(int32(m))
	return nil
}

// ReplicaModeNow returns the live replication mode.
func (c *Cluster) ReplicaModeNow() ReplicaMode {
	return ReplicaMode(c.replicaMode.Load())
}

// ---- promotion ----

// promote fails slot i over to its mirror: drain the shipped stream, run
// crash recovery (abort in-flight local transactions, resolve in-doubt
// prepared ones against the coordinator's durable commit records —
// commit-record-wins), rebuild indexes, and publish the mirror's state as
// the slot's new primary with a bumped generation.
func (c *Cluster) promote(i int) error {
	c.topoMu.Lock()
	old := c.seg(i)
	m := c.mirrors[i]
	switch {
	case !old.down.Load():
		c.topoMu.Unlock()
		return fmt.Errorf("cluster: segment %d primary is up; refusing promotion", i)
	case m == nil:
		c.topoMu.Unlock()
		return fmt.Errorf("cluster: segment %d has no mirror to promote", i)
	case c.promoting[i]:
		c.topoMu.Unlock()
		return fmt.Errorf("cluster: segment %d promotion already in progress", i)
	}
	c.promoting[i] = true
	c.mirrors[i] = nil
	c.topoMu.Unlock()
	defer func() {
		c.topoMu.Lock()
		c.promoting[i] = false
		c.topoMu.Unlock()
	}()

	// Stop the stream (the primary is dead; anything it still manages to
	// append is past the crash point) and apply what was already shipped.
	old.locks.Shutdown()
	old.log.DetachShip()
	if err := m.drainAndStop(); err != nil {
		return err
	}

	// Exclude table DDL for the rest of the promotion: from here until the
	// new primary is published, a CREATE/DROP TABLE would reach neither
	// the detached mirror nor the unpublished segment.
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()

	// The promoted segment reuses the slot's cache budget with a fresh
	// cache: nothing decoded under the old incarnation may be served.
	var cache *storage.BlockCache
	if old.blockCache != nil {
		cache = storage.NewBlockCache(c.cfg.BlockCacheBytes)
	}
	ns := m.toSegment(old.gen+1, cache, c.coord.IsInProgress, &c.replicaMode)
	ns.reconcileTables(c.catalog.Tables())

	// Crash recovery: in-flight local transactions can never commit.
	for _, x := range ns.txns.AbortInFlight() {
		if dxid, ok := ns.mapping.DistFor(x); ok {
			ns.logTxn(wal.TypeAbort, x, dxid)
		} else {
			ns.logTxn(wal.TypeAbort, x, 0)
		}
	}
	// In-doubt resolution: a prepared transaction commits iff the
	// coordinator durably recorded the commit decision. One still inside a
	// live commit protocol is left prepared — the protocol itself will
	// finish it through the idempotent commit paths.
	for _, x := range ns.txns.PreparedXIDs() {
		dxid, ok := ns.mapping.DistFor(x)
		switch {
		case ok && c.coord.HasCommitRecord(dxid):
			_ = ns.txns.Commit(x)
			ns.logTxn(wal.TypeCommit, x, dxid)
		case ok && c.coord.IsInProgress(dxid):
			// Decision pending; leave prepared.
		default:
			_ = ns.txns.Abort(x)
			ns.logTxn(wal.TypeAbort, x, dxid)
		}
	}
	ns.log.Flush(0)
	// Secondary indexes are not WAL-logged; rebuild them from the replayed
	// engines (index rebuild during recovery).
	for _, t := range c.catalog.Tables() {
		for _, idx := range t.Indexes {
			if err := ns.CreateIndex(t, idx); err != nil {
				return err
			}
		}
	}

	// Fold the dead incarnation's counters so SHOW scan_stats survives.
	c.retiredScanned.Add(old.scanStats.BlocksScanned.Load())
	c.retiredSkipped.Add(old.scanStats.BlocksSkipped.Load())
	c.retiredReclaimed.Add(old.reclaimed.Load())
	if old.blockCache != nil {
		st := old.blockCache.Stats()
		c.retiredCacheHits.Add(st.Hits)
		c.retiredCacheMiss.Add(st.Misses)
		c.retiredCacheEvic.Add(st.Evictions)
	}
	c.replayLSN.Store(uint64(m.AppliedLSN()))

	// Publish and wake dispatch waits. The failover is counted before the
	// wake-up, so a read the close releases already sees it.
	c.topoMu.Lock()
	c.slot(i).Store(ns)
	c.failovers.Add(1)
	close(c.topoCh)
	c.topoCh = make(chan struct{})
	c.topoMu.Unlock()
	return nil
}

// ---- dispatch-side routing ----

// segUp resolves slot i's primary, waiting (bounded by FailoverTimeout) for
// an in-flight or imminent promotion when the current primary is dead. It
// fails fast when nothing can take over.
func (c *Cluster) segUp(ctx context.Context, i int) (*Segment, error) {
	var deadline time.Time // read only once the segment is found down
	for {
		s := c.seg(i)
		if !s.down.Load() {
			return s, nil
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(c.cfg.FailoverTimeout)
		}
		c.topoMu.Lock()
		// A broken standby can never be promoted (same predicate as
		// HasMirror): fail fast rather than poll out the whole timeout.
		hope := (c.mirrors[i] != nil && c.mirrors[i].broken() == nil) || c.promoting[i]
		ch := c.topoCh
		c.topoMu.Unlock()
		if !hope {
			return nil, &SegmentDownError{Seg: i}
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, &SegmentDownError{Seg: i}
		}
		if wait > 10*time.Millisecond {
			wait = 10 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ch:
		case <-time.After(wait):
		}
	}
}

// segRef is a stable commit-protocol participant: it resolves the slot's
// current primary on every call, so a failover between protocol waves
// retries against the promoted mirror, whose replayed clog makes
// CommitPrepared/CommitOnePhase idempotent.
type segRef struct {
	c  *Cluster
	id int
}

// SegID implements dtm.Participant.
func (r segRef) SegID() int { return r.id }

func (r segRef) do(f func(*Segment) error) error {
	for attempt := 0; attempt < 3; attempt++ {
		s, err := r.c.segUp(context.Background(), r.id)
		if err != nil {
			return err
		}
		// Commit-protocol calls are idempotent (replayed clog resolves
		// retries), so the dispatch wrapper may re-run the whole operation
		// on transient recv-phase faults too.
		err = r.c.dispatchSeg(r.id, true, func() error { return f(s) })
		if IsSegmentDown(err) {
			continue
		}
		return err
	}
	return &SegmentDownError{Seg: r.id}
}

// doResolve is do for decision-resolution waves — COMMIT PREPARED and the
// abort paths, where the transaction's outcome is already fixed. A bounded
// retry is wrong there: dropping the wave after a few transient dispatch
// faults would strand the segment's transaction state (and its locks)
// forever, so resolution keeps retrying until the fault clears, the
// breaker's half-open probe gets through, or a failover takes over (the
// promoted mirror resolves the transaction from replayed state, and the
// dead incarnation's locks die with it). Injected dispatch faults are
// transient by construction (bounded count or probability < 100), so the
// loop terminates under any schedule that can itself end; the attempt cap
// only backstops a permanently-armed 100% fault, at which point the leak
// is the schedule's explicit intent.
func (r segRef) doResolve(f func(*Segment) error) error {
	var err error
	for attempt := 0; attempt < 256; attempt++ {
		err = r.do(f)
		var de *DispatchError
		if err == nil || !(errors.As(err, &de) || IsRetryableDispatch(err)) {
			return err
		}
		time.Sleep(fault.Backoff(attempt, dispatchBackoffMin, dispatchBackoffMax))
	}
	return err
}

// Prepare implements dtm.Participant.
func (r segRef) Prepare(dxid dtm.DXID) error {
	return r.do(func(s *Segment) error { return s.Prepare(dxid) })
}

// CommitPrepared implements dtm.Participant.
func (r segRef) CommitPrepared(dxid dtm.DXID) error {
	return r.doResolve(func(s *Segment) error { return s.CommitPrepared(dxid) })
}

// AbortPrepared implements dtm.Participant.
func (r segRef) AbortPrepared(dxid dtm.DXID) error {
	return r.doResolve(func(s *Segment) error { return s.AbortPrepared(dxid) })
}

// CommitOnePhase implements dtm.Participant.
func (r segRef) CommitOnePhase(dxid dtm.DXID) error {
	return r.do(func(s *Segment) error { return s.CommitOnePhase(dxid) })
}

// Abort implements dtm.Participant. Best-effort: a segment that is down
// with no mirror has nothing durable to abort.
func (r segRef) Abort(dxid dtm.DXID) error {
	err := r.doResolve(func(s *Segment) error { return s.Abort(dxid) })
	if IsSegmentDown(err) {
		return nil
	}
	return err
}

// ---- stats ----

// WALStats aggregates the write-ahead log counters across the current
// primaries.
type WALStats struct {
	Records int64
	Bytes   int64
	Flushes int64
	// CoordFlushes counts the coordinator log's syncs of 2PC commit
	// records; Flushes leaves them out.
	CoordFlushes int64
	// MirrorAppliedLSN is the minimum applied LSN across live mirrors
	// (replication lag floor); 0 when no mirrors run.
	MirrorAppliedLSN wal.LSN
	// Failovers counts completed promotions since boot.
	Failovers int64
	// ReplayLSN is the LSN the most recent promotion had applied when it
	// took over (0 when none happened).
	ReplayLSN wal.LSN
}

// WALStats returns the cluster's log and failover counters.
func (c *Cluster) WALStats() WALStats {
	var st WALStats
	c.eachSeg(func(_ int, s *Segment) {
		r, b, f := s.log.Stats()
		st.Records += r
		st.Bytes += b
		st.Flushes += f
	})
	_, _, st.CoordFlushes = c.coordLog.Stats()
	first := true
	c.eachMirror(func(m *Mirror) {
		if first || m.AppliedLSN() < st.MirrorAppliedLSN {
			st.MirrorAppliedLSN = m.AppliedLSN()
		}
		first = false
	})
	st.Failovers = c.failovers.Load()
	st.ReplayLSN = wal.LSN(c.replayLSN.Load())
	return st
}

// WALRecordCounts counts the records in the current primaries' logs by
// type. It decodes every log, so it is for experiments and tests.
func (c *Cluster) WALRecordCounts() map[wal.Type]int64 {
	counts := map[wal.Type]int64{}
	c.eachSeg(func(_ int, s *Segment) {
		_ = s.log.ReplayFrom(1, func(r wal.Record) error {
			counts[r.Type]++
			return nil
		})
	})
	return counts
}

// Failovers counts completed promotions.
func (c *Cluster) Failovers() int64 { return c.failovers.Load() }
