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

// noGDDLockTimeout bounds each lock wait under GPDB 5 locking (GDD off), the
// coordinator's and the segments' alike: with no global deadlock detection,
// undetected cross-segment cycles are broken by timeout instead (Greenplum 5
// prevented them by serializing writers; LOCK TABLE orderings could still
// hang). With GDD on, a lock wait is bounded by the statement's context only.
const noGDDLockTimeout = 10 * time.Second

// acquire wraps lockmgr.Acquire with the GPDB 5 lock-wait safety net
// (noGDDLockTimeout).
func (s *Segment) acquire(ctx context.Context, who lockmgr.TxnID, tag lockmgr.Tag, mode lockmgr.Mode) error {
	if !s.cfg.GDD {
		tctx, cancel := context.WithTimeout(ctx, noGDDLockTimeout)
		defer cancel()
		return s.mapLockErr(s.locks.Acquire(tctx, who, tag, mode))
	}
	return s.mapLockErr(s.locks.Acquire(ctx, who, tag, mode))
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

// InsertRow implements exec.StoreAccess: the row stored in the leaf as the
// transaction's (its first write here opens the local transaction) and
// entered in the leaf's indexes.
func (a *storeAccess) InsertRow(leaf catalog.TableID, row types.Row) error {
	if a.ins == nil || a.ins.leaf != leaf {
		st, err := a.seg.table(leaf)
		if err != nil {
			return err
		}
		a.ins = st
	}
	local, err := a.begin()
	if err != nil {
		return err
	}
	tid := a.ins.engine.Insert(local.local, row)
	for _, ix := range a.ins.indexes {
		ix.ix.Insert(row, tid)
	}
	return nil
}

// LockRelation takes an explicit LOCK TABLE lock on this segment for the
// transaction with lock-owner id owner. A lock is not a write: no local
// transaction begins.
func (s *Segment) LockRelation(ctx context.Context, owner lockmgr.TxnID, t *catalog.Table, mode lockmgr.Mode) error {
	if err := s.checkUp(); err != nil {
		return err
	}
	return s.acquire(ctx, owner, lockmgr.RelationTag(uint64(t.ID)), mode)
}

// deadVersion is the one rule under which a version is reclaimed, by VACUUM
// and by the probes that meet it: no live or future snapshot can see it.
// That holds when its inserter aborted, or when its deleter committed before
// every running local transaction began and — whatever the local clog says —
// is below distHorizon, the coordinator's horizon: a deleter still in the
// xid mapping at or above it may be running to a live distributed snapshot
// (paper §5.1), while one whose entry is gone was truncated below an earlier
// horizon.
func (s *Segment) deadVersion(h storage.Header, distHorizon dtm.DXID) bool {
	if s.txns.Status(h.Xmin) == txn.StatusAborted {
		return true
	}
	if h.Xmax == txn.InvalidXID || h.Xmax >= s.txns.OldestRunning() || s.txns.Status(h.Xmax) != txn.StatusCommitted {
		return false
	}
	d, mapped := s.mapping.DistFor(h.Xmax)
	return !mapped || d < distHorizon
}

// prune reclaims version tid of st, which deadVersion condemned where the
// probe through index probed met it: its heap slot is marked dead and its
// postings leave the leaf's other indexes — the caller takes the probed
// index's out in one batch. It reports whether this call reclaimed the
// version (a concurrent probe may have first). Like VACUUM, pruning is not
// logged: a mirror or a recovered segment prunes again on access.
func (s *Segment) prune(st *segTable, heap *storage.Heap, probed *segIndex, tid storage.TupleID, row types.Row) bool {
	if !heap.Prune(tid) {
		return false
	}
	for _, ix := range st.indexes {
		if ix != probed {
			ix.ix.Remove(row, tid)
		}
	}
	s.reclaimed.Add(1)
	return true
}

// Vacuum reclaims every dead heap version of t under the coordinator's
// current horizon — marking the slots dead, then dropping their postings
// from each index in one sweep — and returns how many it reclaimed.
func (s *Segment) Vacuum(t *catalog.Table, distHorizon dtm.DXID) int {
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
		var dead []storage.TupleID // ascending: the scan runs in tuple-id order
		_ = heap.Scan(nil, 0, func(ch *storage.Chunk) bool {
			for i := range ch.Xmins {
				if h := ch.Header(i); s.deadVersion(h, distHorizon) && heap.Prune(h.TID) {
					dead = append(dead, h.TID)
				}
			}
			return true
		})
		for _, ix := range st.indexes {
			ix.ix.Drop(dead)
		}
		s.reclaimed.Add(int64(len(dead)))
		reclaimed += len(dead)
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
