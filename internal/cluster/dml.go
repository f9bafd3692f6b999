package cluster

import (
	"context"
	"errors"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
)

// acquire wraps lockmgr.Acquire with the configured lock-wait safety net:
// with GDD disabled there is no global deadlock detection, so undetected
// cross-segment cycles are broken by timeout instead (Greenplum 5 prevented
// them by serializing writers; LOCK TABLE orderings could still hang).
func (s *Segment) acquire(ctx context.Context, who lockmgr.TxnID, tag lockmgr.Tag, mode lockmgr.Mode) error {
	if !s.cfg.GDD && s.cfg.LockTimeout > 0 {
		tctx, cancel := context.WithTimeout(ctx, s.cfg.LockTimeout)
		defer cancel()
		return s.mapLockErr(s.locks.Acquire(tctx, who, tag, mode))
	}
	return s.mapLockErr(s.locks.Acquire(ctx, who, tag, mode))
}

// ExecInsert stores rows on this segment, grouped by leaf table, as the
// writing transaction dxid. The rows were routed by the coordinator; an
// insert needs no snapshot, so the statement's is not consulted. The local
// transaction begins even when byLeaf is empty: a segment dispatched an
// INSERT is a participant of the transaction's commit.
func (s *Segment) ExecInsert(ctx context.Context, dxid dtm.DXID, _ *dtm.DistSnapshot, t *catalog.Table, byLeaf map[catalog.TableID][]types.Row) (int, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.netHop()
	s.stmtOverhead()
	owner, err := s.owner(dxid)
	if err != nil {
		return 0, err
	}
	if err := s.acquire(ctx, owner, lockmgr.RelationTag(uint64(t.ID)), lockmgr.RowExclusive); err != nil {
		return 0, err
	}
	local := s.beginLocal(dxid, owner).local
	n := 0
	for leaf, rows := range byLeaf {
		st, err := s.table(leaf)
		if err != nil {
			return n, err
		}
		for _, row := range rows {
			tid := st.engine.Insert(local, row)
			for _, ix := range st.indexes {
				ix.ix.Insert(row, tid)
			}
			n++
		}
	}
	return n, nil
}

// writeTuple serializes with concurrent writers of the logical tuple rooted
// at tid and stamps the latest version's xmax with our local xid. It
// returns the stamped version id and its row, or ok=false when the row was
// deleted by a committed transaction meanwhile (read-committed semantics:
// the row silently disappears from this statement).
//
// The lock dance is the paper's §4.2 DML behaviour: a short tuple lock
// (dotted wait-for edge) guards the stamping, and waiting for an
// uncommitted writer means share-locking the writer's transaction lock
// (solid edge) while still holding the tuple lock — exactly the mixed-edge
// structure of Figures 8 and 19.
func (s *Segment) writeTuple(ctx context.Context, a *storeAccess, st *segTable, tid storage.TupleID) (storage.TupleID, types.Row, bool, error) {
	me := a.owner
	tag := lockmgr.TupleTag(uint64(st.leaf), uint64(tid))
	if err := s.acquire(ctx, me, tag, lockmgr.Exclusive); err != nil {
		return 0, nil, false, err
	}
	defer s.locks.Release(me, tag) // released before txn end: dotted edge
	cur := tid
	for {
		h, row, ok := st.engine.Fetch(cur)
		if !ok {
			return 0, nil, false, nil
		}
		if h.Xmax == txn.InvalidXID || h.Xmax == a.st.local {
			if err := st.engine.SetXmax(cur, a.st.local); err != nil {
				var conc *storage.ErrConcurrentWrite
				if errors.As(err, &conc) {
					if werr := s.waitForWriter(ctx, a, conc.Holder); werr != nil {
						return 0, nil, false, werr
					}
					continue
				}
				return 0, nil, false, err
			}
			return cur, row, true, nil
		}
		switch s.txns.Status(h.Xmax) {
		case txn.StatusAborted:
			st.engine.ClearXmax(cur, h.Xmax)
		case txn.StatusCommitted:
			// Locally committed is not enough: wait until the stamper's
			// distributed commit fully acknowledges before building on its
			// version, or our commit could be ordered before it by a
			// concurrent distributed snapshot (two visible versions).
			if err := s.waitDistComplete(ctx, h.Xmax); err != nil {
				return 0, nil, false, err
			}
			if h.UpdatedTo != storage.InvalidTupleID {
				cur = h.UpdatedTo // follow the update chain (EvalPlanQual-style)
			} else {
				return 0, nil, false, nil // deleted under us
			}
		default:
			if err := s.waitForWriter(ctx, a, h.Xmax); err != nil {
				return 0, nil, false, err
			}
		}
	}
}

// waitDistComplete blocks until the distributed transaction that local xid
// implements has left the coordinator's in-progress set (its Commit-OK /
// commit-prepared acknowledgement arrived).
func (s *Segment) waitDistComplete(ctx context.Context, holder txn.XID) error {
	if s.distInProgress == nil {
		return nil
	}
	holderDist, ok := s.mapping.DistFor(holder)
	if !ok {
		return nil // truncated ⇒ completed long ago
	}
	for s.distInProgress(holderDist) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// waitForWriter blocks until the transaction owning local xid finishes, by
// share-locking its transaction lock (solid wait-for edge).
func (s *Segment) waitForWriter(ctx context.Context, a *storeAccess, holder txn.XID) error {
	holderDist, ok := s.mapping.DistFor(holder)
	if !ok {
		// Mapping truncated ⇒ the holder completed long ago; nothing to
		// wait for.
		return nil
	}
	if holderDist == a.dxid {
		return nil
	}
	tag := lockmgr.TransactionTag(lockmgr.TxnID(holderDist))
	if err := s.acquire(ctx, a.owner, tag, lockmgr.Share); err != nil {
		return err
	}
	s.locks.Release(a.owner, tag)
	return nil
}

// ExecModify runs an UPDATE or DELETE plan on this segment as the writing
// transaction dxid: under the statement's RowExclusive lock on t, the
// executor's write sink finds the rows the plan's access path selects and
// writes them through WriteRow, whose first write opens the local
// transaction — a segment where nothing matched stays out of the commit.
// Without direct dispatch every gang member joins the commit instead (paper
// §7.2), so the local transaction opens up front. ops, when armed (EXPLAIN
// ANALYZE), receives the access path's actuals. The target scan's block
// counters fold into the segment's totals (SHOW scan_stats) and, when set,
// into the statement's collector scan.
func (s *Segment) ExecModify(ctx context.Context, dxid dtm.DXID, snap *dtm.DistSnapshot, t *catalog.Table, root plan.Node, ops *plan.OpStats, scan *storage.ScanStats) (int, error) {
	if err := s.checkUp(); err != nil {
		return 0, err
	}
	s.netHop()
	s.stmtOverhead()
	owner, err := s.owner(dxid)
	if err != nil {
		return 0, err
	}
	a := s.newAccess(owner, dxid, snap)
	if err := s.acquire(ctx, owner, lockmgr.RelationTag(uint64(t.ID)), lockmgr.RowExclusive); err != nil {
		return 0, err
	}
	if !s.cfg.DirectDispatch {
		if _, err := a.begin(); err != nil {
			return 0, err
		}
	}
	n, err := exec.Modify(&exec.Context{Ctx: ctx, Store: a, SegID: s.id, Ops: ops}, root)
	a.stats.AddTo(&s.scanStats)
	if scan != nil {
		a.stats.AddTo(scan)
	}
	return n, err
}

// WriteRow implements exec.StoreAccess: writeTuple's locking and chain
// following, then — for an UPDATE — the new version in the same leaf, linked
// from the old one and entered in the leaf's indexes. The new version stays
// in the leaf because the planner refuses a SET of a partition-key column.
func (a *storeAccess) WriteRow(ctx context.Context, id exec.RowID, up *plan.UpdatePlan) (bool, error) {
	s := a.seg
	st, err := s.table(id.Leaf)
	if err != nil {
		return false, err
	}
	s.accessPenalty(st)
	local, err := a.begin()
	if err != nil {
		return false, err
	}
	old, oldRow, ok, err := s.writeTuple(ctx, a, st, id.TID)
	if !ok || err != nil {
		return false, err
	}
	if up == nil {
		return true, nil
	}
	row, err := up.NewVersion(oldRow)
	if err != nil {
		return false, err
	}
	tid := st.engine.Insert(local.local, row)
	st.engine.LinkUpdate(old, tid)
	for _, ix := range st.indexes {
		ix.ix.Insert(row, tid)
	}
	return true, nil
}

// LockRelation takes an explicit LOCK TABLE lock on this segment for the
// transaction with lock-owner id owner. A lock is not a write: no local
// transaction begins.
func (s *Segment) LockRelation(ctx context.Context, owner lockmgr.TxnID, t *catalog.Table, mode lockmgr.Mode) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	s.netHop()
	return s.acquire(ctx, owner, lockmgr.RelationTag(uint64(t.ID)), mode)
}

// Vacuum reclaims dead heap versions: versions deleted by a transaction no
// snapshot can still see, and versions created by aborted transactions.
// distHorizon is the coordinator's horizon: a deleter still in the xid
// mapping at or above it may be running to a live distributed snapshot,
// whatever the local clog says.
func (s *Segment) Vacuum(t *catalog.Table, distHorizon dtm.DXID) int {
	horizon := s.txns.OldestRunning()
	reclaimed := 0
	for _, leaf := range leafIDs(t) {
		st, err := s.table(leaf)
		if err != nil {
			continue
		}
		heap, ok := st.engine.(*storage.Heap)
		if !ok {
			continue
		}
		reclaimed += heap.Vacuum(func(h storage.Header) bool {
			if s.txns.Status(h.Xmin) == txn.StatusAborted {
				return true
			}
			if h.Xmax == txn.InvalidXID || h.Xmax >= horizon || s.txns.Status(h.Xmax) != txn.StatusCommitted {
				return false
			}
			d, mapped := s.mapping.DistFor(h.Xmax)
			return !mapped || d < distHorizon
		})
	}
	return reclaimed
}

// SegID implements dtm.Participant.
func (s *Segment) SegID() int { return s.id }

var _ interface {
	SegID() int
	Prepare(dtm.DXID) error
	CommitPrepared(dtm.DXID) error
	AbortPrepared(dtm.DXID) error
	CommitOnePhase(dtm.DXID) error
	Abort(dtm.DXID) error
} = (*Segment)(nil)
