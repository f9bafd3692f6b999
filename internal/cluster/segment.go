package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// Segment is one worker: local storage engines, a local transaction
// manager, a lock manager, and the local↔distributed xid mapping.
type Segment struct {
	id int
	// gen is the segment's incarnation: promotion replaces the Segment
	// object and bumps gen, which is how the coordinator detects that a
	// transaction's earlier writes landed on a now-dead incarnation.
	gen     int
	cfg     *Config
	txns    *txn.Manager
	locks   *lockmgr.Manager
	mapping *dtm.XidMapping

	mu     sync.RWMutex
	tables map[catalog.TableID]*segTable

	txmu sync.Mutex
	open map[dtm.DXID]*segTxn

	// log is the segment's write-ahead log: storage engines append DML records, the transaction paths append
	// begin/prepare/commit/abort records, and commit durability goes
	// through its group-commit Flush. With replication on, the attached
	// mirror receives every frame.
	log *wal.Log

	// down marks a killed primary: dispatch entry points refuse with
	// *SegmentDownError and the FTS daemon promotes the mirror.
	down atomic.Bool
	// mirror is the standby applying this primary's WAL stream (nil when
	// replication is off or redundancy was lost to a promotion).
	mirror atomic.Pointer[Mirror]
	// repMode points at the cluster's live replication mode (SET
	// replica_mode switches sync↔async at runtime).
	repMode *atomic.Int32

	// blockCache is the segment's shared LRU cache of decoded AO-column
	// blocks (nil = disabled; each table then keeps a private cache).
	blockCache *storage.BlockCache

	// distInProgress asks the coordinator whether a distributed transaction
	// is still running its commit protocol. Writers must not build on a
	// predecessor's version until its distributed commit fully acknowledges
	// (paper §5.2: the transaction "appears in-progress … until the
	// coordinator receives the Commit Ok"), or a later writer could commit
	// with an earlier distributed timestamp than the version it replaced,
	// making two versions of one row visible to a snapshot in the window.
	distInProgress func(dxid dtm.DXID) bool

	// faults is the cluster's fault registry (nil = disarmed), evaluated
	// with this segment's id at the 2PC and lock fault points; the log keeps
	// its own reference for the WAL points.
	faults *fault.Registry

	// horizon is the distributed horizon of the cluster's last mapping
	// truncation round, 0 until one runs on this incarnation: index probes
	// prune below it without asking the coordinator.
	horizon atomic.Uint64
	// reclaimed counts the versions probes and VACUUM marked dead: the
	// cluster's storage.versions_reclaimed handle.
	reclaimed *obs.Counter
}

// segTable is one leaf table's storage on this segment.
type segTable struct {
	meta    *catalog.Table
	leaf    catalog.TableID
	engine  storage.Engine
	indexes []*segIndex
}

type segIndex struct {
	def *catalog.Index
	ix  *storage.HashIndex
}

// segTxn is the local transaction implementing a distributed one that
// wrote this segment, and the owner record its locks are held under.
type segTxn struct {
	local txn.XID
	owner *lockmgr.Owner
}

func newSegment(id int, cfg *Config) *Segment {
	s := &Segment{
		id:      id,
		cfg:     cfg,
		txns:    txn.NewManager(),
		locks:   lockmgr.NewManager(),
		mapping: dtm.NewXidMapping(),
		tables:  make(map[catalog.TableID]*segTable),
		open:    make(map[dtm.DXID]*segTxn),
		log:     wal.New(),
	}
	return s
}

// attachFaults wires the cluster's fault registry into the segment's commit
// paths, its lock table, and its log's append/flush/ship points.
func (s *Segment) attachFaults(reg *fault.Registry) {
	s.faults = reg
	s.log.AttachFaults(reg, s.id)
	s.locks.SetFaultHook(func() error { return reg.Inject(fault.LockAcquire, s.id) })
}

// ID returns the segment id.
func (s *Segment) ID() int { return s.id }

// Gen returns the segment's incarnation number (bumped by promotion).
func (s *Segment) Gen() int { return s.gen }

// WAL exposes the segment's log (tests, stats).
func (s *Segment) WAL() *wal.Log { return s.log }

// NextXID returns the local xid the segment's next local transaction will
// draw (tests).
func (s *Segment) NextXID() txn.XID { return s.txns.NextXID() }

// checkUp guards a dispatch entry point: a killed primary refuses work.
func (s *Segment) checkUp() error {
	if s.down.Load() {
		return &SegmentDownError{Seg: s.id}
	}
	return nil
}

// mapLockErr converts the dead lock manager's refusal into the segment-down
// error so dispatch-side retry recognizes it.
func (s *Segment) mapLockErr(err error) error {
	if errors.Is(err, lockmgr.ErrShutdown) {
		return &SegmentDownError{Seg: s.id}
	}
	return err
}

// Locks exposes the lock manager (GDD graph collection).
func (s *Segment) Locks() *lockmgr.Manager { return s.locks }

// Mapping exposes the xid mapping (tests).
func (s *Segment) Mapping() *dtm.XidMapping { return s.mapping }

// newEngine instantiates the right storage engine for a leaf, attaching the
// segment's shared block cache to column stores.
func (s *Segment) newEngine(kind catalog.Storage, ncols int) storage.Engine {
	switch kind {
	case catalog.AORow:
		return storage.NewAORow()
	case catalog.AOColumn:
		e := storage.NewAOColumn(ncols, storage.CompressionRLEDelta)
		if s.blockCache != nil {
			e.SetBlockCache(s.blockCache)
		}
		return e
	default:
		return storage.NewHeap()
	}
}

// CreateTable instantiates storage for a table and its leaf partitions.
func (s *Segment) CreateTable(t *catalog.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.IsPartitioned() {
		for i := range t.Partitions {
			p := &t.Partitions[i]
			eng := s.newEngine(p.Storage, t.Schema.Len())
			s.attachWAL(eng, p.ID)
			s.tables[p.ID] = &segTable{meta: t, leaf: p.ID, engine: eng}
		}
		return
	}
	eng := s.newEngine(t.Storage, t.Schema.Len())
	s.attachWAL(eng, t.ID)
	s.tables[t.ID] = &segTable{meta: t, leaf: t.ID, engine: eng}
}

// reconcileTables aligns the segment's table set with the catalog: leaves
// the catalog knows but the segment lacks get fresh empty engines, leaves
// the catalog dropped are discarded. Promotion runs this (under the DDL
// mutex) because DDL racing the promotion window may have reached neither
// the detached mirror nor the not-yet-published segment.
func (s *Segment) reconcileTables(tables []*catalog.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[catalog.TableID]*catalog.Table)
	for _, t := range tables {
		for _, leaf := range leafIDs(t) {
			live[leaf] = t
		}
	}
	for leaf, t := range live {
		if _, ok := s.tables[leaf]; ok {
			continue
		}
		kind := t.Storage
		if t.IsPartitioned() {
			for i := range t.Partitions {
				if t.Partitions[i].ID == leaf {
					kind = t.Partitions[i].Storage
				}
			}
		}
		eng := s.newEngine(kind, t.Schema.Len())
		s.attachWAL(eng, leaf)
		s.tables[leaf] = &segTable{meta: t, leaf: leaf, engine: eng}
	}
	for leaf, st := range s.tables {
		if _, ok := live[leaf]; ok {
			continue
		}
		if ao, isAO := st.engine.(*storage.AOColumn); isAO {
			ao.ReleaseCachedBlocks()
		}
		delete(s.tables, leaf)
	}
}

// attachWAL wires an engine to the segment log so its mutations are logged
// under the engine's own lock, stamped with the leaf id.
func (s *Segment) attachWAL(eng storage.Engine, leaf catalog.TableID) {
	if wl, ok := eng.(storage.WALLogged); ok {
		wl.SetWAL(s.log, uint64(leaf))
	}
}

// DropTable discards storage for a table, releasing any decoded blocks its
// engines held in the segment's shared cache.
func (s *Segment) DropTable(t *catalog.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, leaf := range leafIDs(t) {
		if st, ok := s.tables[leaf]; ok {
			if ao, isAO := st.engine.(*storage.AOColumn); isAO {
				ao.ReleaseCachedBlocks()
			}
		}
		delete(s.tables, leaf)
	}
}

// TruncateTable clears data from all leaves of a table.
func (s *Segment) TruncateTable(t *catalog.Table) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, leaf := range leafIDs(t) {
		if st, ok := s.tables[leaf]; ok {
			st.engine.Truncate()
			for _, ix := range st.indexes {
				ix.ix.Truncate()
			}
		}
	}
}

func leafIDs(t *catalog.Table) []catalog.TableID {
	if !t.IsPartitioned() {
		return []catalog.TableID{t.ID}
	}
	out := make([]catalog.TableID, len(t.Partitions))
	for i := range t.Partitions {
		out[i] = t.Partitions[i].ID
	}
	return out
}

// CreateIndex builds a hash index over the stored versions of every leaf and
// attaches it. A scan that fails leaves the segment without the index.
func (s *Segment) CreateIndex(t *catalog.Table, def *catalog.Index) error {
	attach, err := s.buildIndex(context.TODO(), t, def)
	if err == nil {
		attach()
	}
	return err
}

// buildIndex builds def's hash index over every leaf of t and returns the
// step that attaches it, so a caller can build on every segment before
// attaching it anywhere. The caller excludes writers of t meanwhile.
func (s *Segment) buildIndex(ctx context.Context, t *catalog.Table, def *catalog.Index) (attach func(), err error) {
	var leaves []*segTable
	var built []*segIndex
	for _, leaf := range leafIDs(t) {
		st, err := s.table(leaf)
		if err != nil {
			continue
		}
		ix := storage.NewHashIndex(def.Columns)
		if err := scanRows(ctx, st, &storage.ScanOpts{Cols: def.Columns}, nil, func(row types.Row, tid storage.TupleID) (bool, error) {
			ix.Insert(row, tid)
			return true, nil
		}); err != nil {
			return nil, err
		}
		leaves, built = append(leaves, st), append(built, &segIndex{def: def, ix: ix})
	}
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i, st := range leaves {
			st.indexes = append(st.indexes, built[i])
		}
	}, nil
}

func (s *Segment) table(leaf catalog.TableID) (*segTable, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tables[leaf]
	if !ok {
		return nil, fmt.Errorf("cluster: segment %d has no table %d", s.id, leaf)
	}
	return st, nil
}

// RowCount sums visible-or-not stored versions across leaves (stats).
func (s *Segment) RowCount(t *catalog.Table) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, leaf := range leafIDs(t) {
		if st, ok := s.tables[leaf]; ok {
			n += st.engine.RowCount()
		}
	}
	return n
}

// ---- transaction lifecycle ----

// beginLocal creates the local transaction implementing dxid, owned by
// owner, at the distributed transaction's first write on this segment (or
// returns the one already open). It takes no lock: the writer's
// transaction lock (paper §4.2's "locking tuple using the transaction
// lock", tag = dxid) is implicit. Its open entry here and its in-progress
// clog state are the lock; a waiter that meets the writer's uncommitted
// xmax enters the writer's Exclusive grant on its behalf and queues behind
// it (waitTxnLock), and the writer's ReleaseAll at commit or abort drops
// it.
func (s *Segment) beginLocal(dxid dtm.DXID, owner *lockmgr.Owner) *segTxn {
	s.txmu.Lock()
	defer s.txmu.Unlock()
	if st, ok := s.open[dxid]; ok {
		return st
	}
	local := s.txns.Begin()
	s.mapping.Register(local, dxid)
	st := &segTxn{local: local, owner: owner}
	s.open[dxid] = st
	// The begin record carries the local↔distributed identity the mirror
	// needs to rebuild the xid mapping — and with it, 2PC in-doubt
	// resolution — on promotion. Logged under txmu so replayed xids appear
	// in allocation order.
	s.logTxn(wal.TypeBegin, local, dxid)
	return st
}

// openTxn returns the local state if this segment participates in dxid.
func (s *Segment) openTxn(dxid dtm.DXID) (*segTxn, bool) {
	s.txmu.Lock()
	defer s.txmu.Unlock()
	st, ok := s.open[dxid]
	return st, ok
}

func (s *Segment) closeTxn(dxid dtm.DXID) {
	s.txmu.Lock()
	delete(s.open, dxid)
	s.txmu.Unlock()
}

// logTxn appends a transaction state-change record to the segment log.
func (s *Segment) logTxn(t wal.Type, local txn.XID, dxid dtm.DXID) {
	r := wal.Record{Type: t, Xid: uint64(local), Dxid: uint64(dxid)}
	s.log.Append(&r)
}

// fsync makes the transaction's log records durable: a group-commit flush
// and — under synchronous replication — a wait until the mirror has applied
// everything flushed, so a committed transaction survives losing the
// primary with zero lag.
func (s *Segment) fsync() {
	flushed := s.log.Flush(0)
	if s.log.Err() != nil {
		// The log hit a (simulated) write or fsync failure — a torn append
		// or an errored sync. Durability of anything since the last good
		// sync is unknown, so the segment takes itself down before any
		// acknowledgement, the PANIC-on-fsync-failure model: the FTS daemon
		// promotes the mirror, or Recover revives this primary through
		// torn-tail truncation. ackOrDown turns this into SegmentDownError
		// on every commit path, so nothing built on the wedged log is acked.
		s.down.Store(true)
		return
	}
	if s.repMode != nil && ReplicaMode(s.repMode.Load()) == ReplicaSync {
		if m := s.mirror.Load(); m != nil {
			m.WaitApplied(flushed)
		}
	}
}

// Prepare implements the 2PC first phase.
func (s *Segment) Prepare(dxid dtm.DXID) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	// The fault point fires before any state changes, so a provoked failure
	// aborts the transaction cleanly (presumed abort) and a retry is safe.
	if err := s.faults.Inject(fault.TwopcPrepare, s.id); err != nil {
		return err
	}
	st, ok := s.openTxn(dxid)
	if !ok {
		// A promoted segment has no live state for a transaction whose
		// writes died with the old primary: refuse, so the coordinator
		// aborts — exactly what crash recovery decided for those writes.
		return fmt.Errorf("cluster: segment %d: prepare of unknown txn %d", s.id, dxid)
	}
	if err := s.txns.Prepare(st.local); err != nil {
		return err
	}
	s.logTxn(wal.TypePrepare, st.local, dxid)
	s.fsync()
	return s.ackOrDown()
}

// ackOrDown guards a commit-protocol acknowledgement: if the segment was
// declared dead while the call was in flight, the just-appended record may
// have missed the mirror stream (promotion detaches it), so the only honest
// answer is "segment down" — the protocol's stable reference then retries
// against the promoted mirror, whose replayed clog resolves the outcome
// authoritatively (idempotent success if the record shipped, failure if it
// did not). Acknowledging here instead could report COMMIT for a record the
// promoted primary never saw.
func (s *Segment) ackOrDown() error {
	if s.down.Load() {
		return &SegmentDownError{Seg: s.id}
	}
	return nil
}

// recoveredStatus looks up the replayed clog state for a distributed
// transaction this segment has no live (open) entry for — the promoted-
// mirror case, where the commit protocol may retry an operation the old
// primary already performed (or that recovery already resolved).
func (s *Segment) recoveredStatus(dxid dtm.DXID) (txn.XID, txn.Status, bool) {
	local, ok := s.mapping.LocalFor(dxid)
	if !ok {
		return 0, 0, false
	}
	return local, s.txns.Status(local), true
}

// CommitPrepared implements the 2PC second phase: durable commit, then lock
// release. On a recovered segment the call is idempotent against the
// replayed clog: a transaction the log (or in-doubt resolution) already
// committed acknowledges success, so the coordinator's durable commit
// decision always wins (paper's 2PC recovery).
func (s *Segment) CommitPrepared(dxid dtm.DXID) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	// Fires before the commit applies; the whole call is idempotent, so the
	// dispatch layer retries an injected failure here.
	if err := s.faults.Inject(fault.TwopcCommit, s.id); err != nil {
		return err
	}
	st, ok := s.openTxn(dxid)
	if !ok {
		if local, status, found := s.recoveredStatus(dxid); found {
			switch status {
			case txn.StatusCommitted:
				return nil // already durably committed before/at recovery
			case txn.StatusPrepared:
				if err := s.txns.Commit(local); err != nil {
					return err
				}
				s.logTxn(wal.TypeCommit, local, dxid)
				s.fsync()
				return s.ackOrDown()
			}
		}
		return fmt.Errorf("cluster: segment %d: commit-prepared of unknown txn %d", s.id, dxid)
	}
	if err := s.txns.Commit(st.local); err != nil {
		return err
	}
	s.logTxn(wal.TypeCommit, st.local, dxid)
	s.fsync()
	st.owner.ReleaseAll()
	s.closeTxn(dxid)
	return s.ackOrDown()
}

// AbortPrepared rolls back a prepared transaction.
func (s *Segment) AbortPrepared(dxid dtm.DXID) error { return s.Abort(dxid) }

// CommitOnePhase is the single-segment fast path: one round trip, one
// fsync, no prepare (paper §5.2). Like CommitPrepared it is idempotent
// against a recovered segment's replayed clog, which is what resolves the
// indeterminate window of a primary dying between its durable commit and
// the acknowledgement: if the commit record reached the mirror the retry
// reports success, otherwise recovery aborted the transaction and the
// retry reports failure.
func (s *Segment) CommitOnePhase(dxid dtm.DXID) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	if err := s.faults.Inject(fault.TwopcCommit, s.id); err != nil {
		return err
	}
	st, ok := s.openTxn(dxid)
	if !ok {
		if _, status, found := s.recoveredStatus(dxid); found && status == txn.StatusCommitted {
			return nil
		}
		return fmt.Errorf("cluster: segment %d: one-phase commit of unknown txn %d", s.id, dxid)
	}
	if err := s.txns.Commit(st.local); err != nil {
		return err
	}
	s.logTxn(wal.TypeCommit, st.local, dxid)
	s.fsync()
	st.owner.ReleaseAll()
	s.closeTxn(dxid)
	return s.ackOrDown()
}

// Abort rolls back the local transaction and releases its locks. On a dead
// primary it is a no-op (recovery aborts in-flight transactions anyway); on
// a recovered segment it resolves a replayed prepared transaction as
// aborted (the coordinator never durably decided to commit).
func (s *Segment) Abort(dxid dtm.DXID) error {
	if s.down.Load() {
		return nil
	}
	st, ok := s.openTxn(dxid)
	if ok {
		// Always logged (a begin record always was): without the abort
		// record the mirror's replica clog would keep the xid in-progress
		// forever — an unbounded standby leak under rollback-heavy load.
		s.logTxn(wal.TypeAbort, st.local, dxid)
		_ = s.txns.Abort(st.local)
		st.owner.ReleaseAll()
		s.closeTxn(dxid)
	} else if local, status, found := s.recoveredStatus(dxid); found && status == txn.StatusPrepared {
		_ = s.txns.Abort(local)
		s.logTxn(wal.TypeAbort, local, dxid)
	}
	return nil
}

// ---- visibility plumbing ----

// storeAccess implements exec.StoreAccess for one (statement, segment). It
// is one allocation — the distributed view, the visibility checker and the
// local snapshot live inside it — and a Portal reuses its own.
type storeAccess struct {
	seg   *Segment
	owner *lockmgr.Owner
	// dxid is the transaction's distributed xid (InvalidDXID while it has
	// written nothing); st its local transaction here, nil until it writes
	// this segment (begin).
	dxid  dtm.DXID
	st    *segTxn
	view  dtm.View
	check txn.VisibilityChecker
	// ins is the leaf InsertRow stored to last: an INSERT's rows mostly
	// share one.
	ins *segTable
	// stats collects this statement's block-scan counters; the dispatcher
	// folds them into the segment's cumulative totals (and the statement's
	// QueryResources) when the statement finishes.
	stats storage.ScanStats
	local txn.Snapshot
}

// newAccess builds the statement's view for the transaction (owner, dxid):
// a fresh local snapshot combined with the distributed snapshot through the
// xid mapping. It takes no xid: a reader costs the segment a snapshot.
func (s *Segment) newAccess(owner *lockmgr.Owner, dxid dtm.DXID, snap *dtm.DistSnapshot) *storeAccess {
	a := new(storeAccess)
	s.initAccess(a, owner, dxid, snap)
	return a
}

// initAccess is newAccess into a, whose local snapshot's storage it reuses.
func (s *Segment) initAccess(a *storeAccess, owner *lockmgr.Owner, dxid dtm.DXID, snap *dtm.DistSnapshot) {
	*a = storeAccess{seg: s, owner: owner, dxid: dxid, local: txn.Snapshot{InProgress: a.local.InProgress}}
	a.view = dtm.View{Mapping: s.mapping, Snap: snap, SelfDist: dxid}
	a.check = txn.VisibilityChecker{Mgr: s.txns, Snap: s.txns.TakeSnapshotInto(&a.local), Dist: &a.view}
	if dxid != dtm.InvalidDXID {
		if st, ok := s.openTxn(dxid); ok {
			a.setLocal(st)
		}
	}
}

// setLocal makes st the access's own local transaction: its effects are
// visible to the statement.
func (a *storeAccess) setLocal(st *segTxn) {
	a.st = st
	a.view.SelfLocal, a.check.Self = st.local, st.local
}

// begin is the transaction's write on this segment: it opens the local
// transaction (logging its begin record) unless one is open already.
func (a *storeAccess) begin() (*segTxn, error) {
	if a.st == nil {
		if a.dxid == dtm.InvalidDXID {
			return nil, fmt.Errorf("cluster: segment %d: write without a distributed xid", a.seg.id)
		}
		a.setLocal(a.seg.beginLocal(a.dxid, a.owner))
	}
	return a.st, nil
}

// lockRelation takes the local relation lock for a statement.
func (a *storeAccess) lockRelation(ctx context.Context, t *catalog.Table, mode lockmgr.Mode) error {
	return a.seg.mapLockErr(a.owner.Acquire(ctx, lockmgr.RelationTag(uint64(t.ID)), mode))
}

// markedLeaf resolves a leaf for the row-callback path and takes mark's
// relation lock on it: RowShare for FOR UPDATE, AccessShare for a plain
// read, none for a write's target scan (its statement holds RowExclusive).
func (a *storeAccess) markedLeaf(ctx context.Context, leaf catalog.TableID, mark exec.RowMark) (*segTable, error) {
	st, err := a.seg.table(leaf)
	if err != nil || mark.Targets != nil {
		return st, err
	}
	mode := lockmgr.AccessShare
	if mark.Lock {
		mode = lockmgr.RowShare
	}
	return st, a.lockRelation(ctx, st.meta, mode)
}

// applyMark does mark's work on a row the caller kept.
func (a *storeAccess) applyMark(ctx context.Context, st *segTable, tid storage.TupleID, mark exec.RowMark) error {
	if mark.Targets != nil {
		*mark.Targets = append(*mark.Targets, exec.RowID{Leaf: st.leaf, TID: tid})
	}
	if mark.Lock {
		return a.seg.lockRowForUpdate(ctx, a, st, tid)
	}
	return nil
}

// ScanTable implements exec.StoreAccess over the one chunk loop, skipping
// the blocks spec's predicate rules out.
func (a *storeAccess) ScanTable(ctx context.Context, leaf catalog.TableID, spec exec.ScanSpec, mark exec.RowMark, fn func(row types.Row) (keep, cont bool, err error)) error {
	st, err := a.markedLeaf(ctx, leaf, mark)
	if err != nil {
		return err
	}
	return scanRows(ctx, st, a.scanOpts(spec), &a.check, func(row types.Row, tid storage.TupleID) (bool, error) {
		keep, cont, err := fn(row)
		if err == nil && keep {
			err = a.applyMark(ctx, st, tid, mark)
		}
		return cont, err
	})
}

// scanOpts hands the executor's scan spec to the storage layer: the
// planner's pushed predicate and projection as they are, with the
// statement's stats collector along.
func (a *storeAccess) scanOpts(spec exec.ScanSpec) *storage.ScanOpts {
	return &storage.ScanOpts{Cols: spec.Cols, Pred: spec.Pred, Stats: &a.stats}
}

// ScanTableBatches implements exec.StoreAccess: the visible rows of the leaf,
// chunk by chunk, skipping blocks the pushed predicate's zone maps rule out.
// Each chunk with a visible row goes to fn as a view under the selection of
// those rows — a column chunk by reference into the block cache, a row chunk
// over the engine's stored rows — valid only during the call.
func (a *storeAccess) ScanTableBatches(ctx context.Context, leaf catalog.TableID, spec exec.ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	st, err := a.seg.table(leaf)
	if err != nil {
		return err
	}
	if err := a.lockRelation(ctx, st.meta, lockmgr.AccessShare); err != nil {
		return err
	}
	var view types.RowBatch
	return scanChunks(ctx, st, a.scanOpts(spec), batchSize, &a.check, func(ch *storage.Chunk, sel []int) (bool, error) {
		if view = (types.RowBatch{Rows: ch.Rows, Sel: sel, Cols: ch.Cols}); view.Len() == 0 {
			return true, nil
		}
		return fn(&view)
	})
}

// scanChunks is the one chunk loop of the segment's scans: it drives st's
// storage scan, checking ctx once per chunk, and hands fn each chunk with
// the selection of its rows visible to check (nil: all; a nil check keeps
// every version), both valid only during the call. It returns fn's
// error, else the scan's.
func scanChunks(ctx context.Context, st *segTable, opts *storage.ScanOpts, batchSize int, check *txn.VisibilityChecker, fn func(ch *storage.Chunk, sel []int) (bool, error)) error {
	var fnErr error
	var buf []int
	err := st.engine.Scan(opts, batchSize, func(ch *storage.Chunk) bool {
		if fnErr = ctx.Err(); fnErr != nil {
			return false
		}
		var sel []int
		if check != nil {
			if sel = visibleSel(check, ch, buf); sel != nil {
				buf = sel
			}
		}
		var cont bool
		cont, fnErr = fn(ch, sel)
		return cont && fnErr == nil
	})
	if fnErr != nil {
		return fnErr
	}
	return err
}

// scanRows is scanChunks one row at a time, for the scans that take rows and
// tuple ids: FOR UPDATE, the write sink's target scan, the expansion mover
// and index builds. The row is valid only during the call: a column chunk's
// rows are gathered into one scratch row.
func scanRows(ctx context.Context, st *segTable, opts *storage.ScanOpts, check *txn.VisibilityChecker, fn func(row types.Row, tid storage.TupleID) (bool, error)) error {
	var scratch types.Row
	return scanChunks(ctx, st, opts, types.DefaultBatchSize, check, func(ch *storage.Chunk, sel []int) (bool, error) {
		view := types.RowBatch{Rows: ch.Rows, Sel: sel, Cols: ch.Cols}
		for j := 0; j < view.Len(); j++ {
			i := view.Index(j)
			row := ch.Row(scratch, i)
			if ch.Cols != nil {
				scratch = row
			}
			if cont, err := fn(row, ch.First+storage.TupleID(i)); err != nil || !cont {
				return false, err
			}
		}
		return true, nil
	})
}

// visibleSel returns the selection of the chunk's rows visible to check: nil
// when every row is. The selection is built in buf when it is large enough,
// else in a fresh slice. Bulk loads stamp long runs of one xid, so the
// verdict on an undeleted row is reused while the xmin repeats.
func visibleSel(check *txn.VisibilityChecker, ch *storage.Chunk, buf []int) []int {
	var sel []int
	var lastX txn.XID
	lastVis := false
	for i, x := range ch.Xmins {
		vis := lastVis
		if ch.Xmaxs != nil && ch.Xmaxs[i] != txn.InvalidXID {
			vis = check.Visible(x, ch.Xmaxs[i])
		} else if x != lastX || i == 0 {
			vis = check.Visible(x, txn.InvalidXID)
			lastX, lastVis = x, vis
		}
		switch {
		case vis && sel != nil:
			sel = append(sel, i)
		case !vis && sel == nil:
			if cap(buf) < len(ch.Xmins) {
				buf = make([]int, 0, len(ch.Xmins))
			}
			sel = buf[:0]
			for j := 0; j < i; j++ {
				sel = append(sel, j)
			}
		}
	}
	return sel
}

// IndexLookup implements exec.StoreAccess. A heap version the probe meets
// that it cannot see, and that no snapshot ever will again, is pruned.
func (a *storeAccess) IndexLookup(ctx context.Context, t *catalog.Table, def *catalog.Index, key []types.Datum, mark exec.RowMark, fn func(row types.Row) (keep, cont bool, err error)) error {
	for _, leaf := range leafIDs(t) {
		st, err := a.markedLeaf(ctx, leaf, mark)
		if err != nil {
			return err
		}
		var ix *segIndex
		for _, cand := range st.indexes {
			if cand.def.Name == def.Name {
				ix = cand
				break
			}
		}
		if ix == nil {
			return fmt.Errorf("cluster: index %q missing on segment %d", def.Name, a.seg.id)
		}
		if err := a.seg.faults.Inject(fault.HeapAccess, a.seg.id); err != nil {
			return err
		}
		if cont, err := a.probe(ctx, st, ix, key, mark, fn); err != nil || !cont {
			return err
		}
	}
	return nil
}

// probe is IndexLookup in one leaf: it hands fn the visible versions under
// key and reports whether fn wants more. A version it cannot see that
// deadVersion condemns under the segment's published horizon is pruned
// where it is met, so a hot row's probe walks the versions younger than the
// last truncation round, not the row's history.
func (a *storeAccess) probe(ctx context.Context, st *segTable, ix *segIndex, key []types.Datum, mark exec.RowMark, fn func(row types.Row) (keep, cont bool, err error)) (bool, error) {
	heap, _ := st.engine.(*storage.Heap)
	horizon := dtm.DXID(a.seg.horizon.Load())
	var buf [32]storage.TupleID
	dead, deadRow := buf[:0], types.Row(nil)
	cont, err := true, error(nil)
	for _, tid := range ix.ix.Lookup(key) {
		h, row, ok := st.engine.Fetch(tid)
		if !ok || !ix.ix.Matches(row, key) {
			continue
		}
		if !a.check.Visible(h.Xmin, h.Xmax) {
			if heap != nil && a.seg.deadVersion(h, horizon) && a.seg.prune(st, heap, ix, tid, row) {
				dead, deadRow = append(dead, tid), row
			}
			continue
		}
		var keep bool
		if keep, cont, err = fn(row); err == nil && keep {
			err = a.applyMark(ctx, st, tid, mark)
		}
		if err != nil || !cont {
			break
		}
	}
	if len(dead) > 0 {
		ix.ix.Remove(deadRow, dead...)
	}
	return cont, err
}

// lockRowForUpdate implements SELECT ... FOR UPDATE row locking: wait out
// any uncommitted writer of the row (a solid transaction-lock edge), then
// hold the tuple lock until transaction end — said on the grant, so a writer
// queued behind it shows in the wait-for graph as a solid edge, unlike one
// queued behind writeTuple's short tuple lock. A row lock is a write, so the
// statement runs in the transaction's local transaction here, which
// dispatch (Cluster.Run) opened when it sent the statement here.
func (s *Segment) lockRowForUpdate(ctx context.Context, a *storeAccess, st *segTable, tid storage.TupleID) error {
	me := a.owner
	local, err := a.begin()
	if err != nil {
		return err
	}
	tag := lockmgr.TupleTag(uint64(st.leaf), uint64(tid))
	if err := s.mapLockErr(me.AcquireToEnd(ctx, tag, lockmgr.Exclusive)); err != nil {
		return err
	}
	for {
		h, _, ok := st.engine.Fetch(tid)
		if !ok {
			return nil
		}
		if h.Xmax == txn.InvalidXID || h.Xmax == local.local {
			return nil
		}
		switch s.txns.Status(h.Xmax) {
		case txn.StatusAborted:
			st.engine.ClearXmax(tid, h.Xmax)
			return nil
		case txn.StatusCommitted:
			// The row was deleted/updated under us; read-committed FOR
			// UPDATE follows to completion and simply accepts the row is
			// gone for this statement.
			return nil
		default:
			holderDist, okm := s.mapping.DistFor(h.Xmax)
			if !okm {
				return fmt.Errorf("cluster: no mapping for in-progress writer %d", h.Xmax)
			}
			if err := s.waitTxnLock(ctx, me, h.Xmax, holderDist); err != nil {
				return err
			}
		}
	}
}

// EngineForTest exposes a leaf's storage engine to internal diagnostics.
func (s *Segment) EngineForTest(leaf catalog.TableID) storage.Engine {
	st, err := s.table(leaf)
	if err != nil {
		return nil
	}
	return st.engine
}
