package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

func replicatedCluster(t *testing.T, nseg int, mode ReplicaMode) *Cluster {
	t.Helper()
	cfg := GPDB6(nseg)
	cfg.ReplicaMode = mode
	cfg.FTSInterval = time.Hour // promotion driven manually in these tests
	return testCluster(t, cfg)
}

// TestInDoubtCommitRecordWins: a primary dies after PREPARE; the promoted
// mirror resolves the prepared transaction by the coordinator's durable
// commit record — present → commit, absent (protocol over) → abort.
func TestInDoubtCommitRecordWins(t *testing.T) {
	ctx := context.Background()
	c := replicatedCluster(t, 2, ReplicaSync)
	tab := mkTable(t, c, "t")

	run := func(withRecord bool) (dxid uint64, rows int) {
		lt := c.BeginTxn(nil)
		snap := c.Snapshot()
		s1 := c.seg(1)
		if _, _, err := c.Run(ctx, lt, snap, &plan.Planned{Root: insertPlan(tab,
			types.Row{types.NewInt(int64(100 * boolInt(withRecord))), types.NewInt(1)}).Root, DirectSegment: 1}, nil); err != nil {
			t.Fatal(err)
		}
		// Phase one reaches the segment; then the primary dies before the
		// COMMIT PREPARED wave.
		if err := s1.Prepare(lt.DXID()); err != nil {
			t.Fatal(err)
		}
		if withRecord {
			c.coordCommitRecord(lt.DXID())
		}
		// The coordinator's protocol for this transaction is over (decision
		// known or presumed abort) — clear the in-progress entry the way
		// the protocol would.
		if withRecord {
			c.coord.MarkCommitted(lt.DXID())
		} else {
			c.coord.MarkAborted(lt.DXID())
		}
		c.forget(lt)
		if err := c.KillSegment(1); err != nil {
			t.Fatal(err)
		}
		if err := c.promote(1); err != nil {
			t.Fatal(err)
		}
		ns := c.seg(1)
		local, ok := ns.mapping.LocalFor(lt.DXID())
		if !ok {
			t.Fatal("promoted segment lost the xid mapping")
		}
		status := ns.txns.Status(local)
		if withRecord && status != txn.StatusCommitted {
			t.Fatalf("commit record present but status = %v", status)
		}
		if !withRecord && status != txn.StatusAborted {
			t.Fatalf("no commit record but status = %v", status)
		}
		// Rebuild redundancy for the next round.
		if err := c.Recover(1); err != nil {
			t.Fatal(err)
		}
		return uint64(lt.DXID()), ns.RowCount(tab)
	}

	run(true)
	run(false)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestCommitPreparedIdempotentAfterPromotion: the commit protocol retries
// COMMIT PREPARED against the promoted mirror and must succeed even though
// the new primary has no live (open) transaction state.
func TestCommitPreparedIdempotentAfterPromotion(t *testing.T) {
	ctx := context.Background()
	c := replicatedCluster(t, 2, ReplicaSync)
	tab := mkTable(t, c, "t")

	lt := c.BeginTxn(nil)
	snap := c.Snapshot()
	s1 := c.seg(1)
	if _, _, err := c.Run(ctx, lt, snap, &plan.Planned{Root: insertPlan(tab,
		types.Row{types.NewInt(7), types.NewInt(70)}).Root, DirectSegment: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s1.Prepare(lt.DXID()); err != nil {
		t.Fatal(err)
	}
	c.coordCommitRecord(lt.DXID())
	if err := c.KillSegment(1); err != nil {
		t.Fatal(err)
	}
	if err := c.promote(1); err != nil {
		t.Fatal(err)
	}
	// The protocol's retry path: segRef resolves the promoted primary; the
	// call is answered from the replayed clog (in-doubt resolution already
	// committed it) and reports success.
	ref := segRef{c: c, id: 1}
	if err := ref.CommitPrepared(lt.DXID()); err != nil {
		t.Fatalf("commit-prepared after promotion: %v", err)
	}
	// Idempotent: a duplicate ack is still success.
	if err := ref.CommitPrepared(lt.DXID()); err != nil {
		t.Fatalf("duplicate commit-prepared: %v", err)
	}
	c.coord.MarkCommitted(lt.DXID())
	c.forget(lt)
	if got := c.seg(1).RowCount(tab); got != 1 {
		t.Fatalf("committed row count on promoted segment = %d", got)
	}
}

// TestMirrorLagAndSyncWait: async mirrors may trail but promotion drains
// the backlog; sync flushes wait so the mirror is never behind a durable
// commit.
func TestMirrorLagAndSyncWait(t *testing.T) {
	c := replicatedCluster(t, 1, ReplicaSync)
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 300; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i)})
	}
	insertRows(t, c, tab, rows)
	s := c.seg(0)
	c.topoMu.Lock()
	m := c.mirrors[0]
	c.topoMu.Unlock()
	if m == nil {
		t.Fatal("no mirror")
	}
	// Sync mode: after the commit's flush the mirror has applied every
	// durable record.
	if m.AppliedLSN() < s.log.FlushedLSN() {
		t.Fatalf("sync mirror behind durable log: applied %d < flushed %d", m.AppliedLSN(), s.log.FlushedLSN())
	}
	if err := c.KillSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.promote(0); err != nil {
		t.Fatal(err)
	}
	if got := c.seg(0).RowCount(tab); got != 300 {
		t.Fatalf("promoted segment rows = %d", got)
	}
	if c.seg(0).Gen() != 1 {
		t.Fatalf("generation = %d", c.seg(0).Gen())
	}
	failovers, _ := c.Metrics().Value("fts.failovers")
	replayLSN, _ := c.Metrics().Value("wal.replay_lsn")
	if failovers != 1 || replayLSN == 0 {
		t.Fatalf("after promotion: fts.failovers = %d, wal.replay_lsn = %d", failovers, replayLSN)
	}
}

// TestAbortedTxnsDoNotLeakOnMirror: every logged begin must be closed by a
// commit or abort record, or the replica clog accumulates in-progress
// entries forever under rollback-heavy load.
func TestAbortedTxnsDoNotLeakOnMirror(t *testing.T) {
	ctx := context.Background()
	c := replicatedCluster(t, 1, ReplicaSync)
	tab := mkTable(t, c, "t")
	for i := 0; i < 25; i++ {
		lt := c.BeginTxn(nil)
		if _, _, err := c.Run(ctx, lt, c.Snapshot(), insertPlan(tab, types.Row{types.NewInt(int64(i)), types.NewInt(0)}), nil); err != nil {
			t.Fatal(err)
		}
		c.AbortTxn(lt)
	}
	c.topoMu.Lock()
	m := c.mirrors[0]
	c.topoMu.Unlock()
	m.WaitApplied(c.seg(0).log.LastLSN())
	if n := m.txns.RunningCount(); n != 0 {
		t.Fatalf("mirror clog holds %d in-progress transactions after aborts", n)
	}
}

// TestCommitLogTruncation: the coordinator's durable commit records are
// discarded below the oldest-in-progress horizon (maybeTruncateMappings).
func TestCommitLogTruncation(t *testing.T) {
	c := replicatedCluster(t, 1, ReplicaSync)
	coord := c.coord
	var dxids []dtm.DXID
	for i := 0; i < 10; i++ {
		d := coord.Begin()
		coord.LogCommitRecord(d)
		coord.MarkCommitted(d)
		dxids = append(dxids, d)
	}
	if !coord.HasCommitRecord(dxids[0]) {
		t.Fatal("commit record missing before truncation")
	}
	if n := coord.TruncateCommitLog(coord.Horizon()); n != 10 {
		t.Fatalf("truncated %d records, want 10", n)
	}
	if coord.HasCommitRecord(dxids[9]) {
		t.Fatal("commit record survives truncation below horizon")
	}
}

// TestPromotionRebuildsIndexes: secondary indexes are not WAL-logged; the
// promoted primary rebuilds them and index probes keep working.
func TestPromotionRebuildsIndexes(t *testing.T) {
	c := replicatedCluster(t, 1, ReplicaSync)
	tab := mkTable(t, c, "t")
	lt := c.BeginTxn(nil)
	idx := &catalog.Index{Name: "t_a", Columns: []int{0}}
	if err := c.ApplyCreateIndex(context.Background(), lt, "t", idx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	var rows []types.Row
	for i := int64(0); i < 50; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 2)})
	}
	insertRows(t, c, tab, rows)
	if err := c.KillSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.promote(0); err != nil {
		t.Fatal(err)
	}
	ns := c.seg(0)
	st, err := ns.table(tab.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.indexes) != 1 {
		t.Fatalf("promoted segment has %d indexes, want 1", len(st.indexes))
	}
	if hits := st.indexes[0].ix.Lookup([]types.Datum{types.NewInt(7)}); len(hits) != 1 {
		t.Fatalf("index lookup after promotion returned %d tids", len(hits))
	}
}
