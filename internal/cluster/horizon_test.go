package cluster

import (
	"context"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

// scanUnder reads every visible row of tab under snap, as a transaction that
// only reads.
func scanUnder(t *testing.T, c *Cluster, tab *catalog.Table, snap *dtm.DistSnapshot) []types.Row {
	t.Helper()
	lt := c.BeginTxn()
	defer c.AbortTxn(lt)
	root := &plan.Motion{Child: plan.NewScan(tab, []catalog.TableID{tab.ID}, nil), Type: plan.MotionGather}
	rows, _, err := c.Run(context.Background(), lt, snap, plan.NewPlanned(root), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// nextXIDs returns every segment's local xid counter.
func nextXIDs(c *Cluster) []txn.XID {
	var out []txn.XID
	for _, s := range c.Segments() {
		out = append(out, s.txns.NextXID())
	}
	return out
}

// TestHorizonHoldsForLiveSnapshot: a statement's snapshot lists writer W as
// running; W commits, and a truncation round runs. The mapping entry for W
// must survive it, or the statement falls back to local visibility — where
// W is committed — and returns W's row.
func TestHorizonHoldsForLiveSnapshot(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(1))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(0), types.NewInt(0)}}) // an older writer

	w := c.BeginTxn()
	wsnap := c.Snapshot()
	if _, _, err := c.Run(ctx, w, wsnap, insertPlan(tab, types.Row{types.NewInt(1), types.NewInt(1)}), nil); err != nil {
		t.Fatal(err)
	}
	c.ReleaseSnapshot(wsnap)
	snap := c.Snapshot() // lists W as running
	defer c.ReleaseSnapshot(snap)
	if _, err := c.CommitTxn(w); err != nil {
		t.Fatal(err)
	}
	_, removedBefore := c.seg(0).mapping.Stats()
	for i := 0; i < 256; i++ { // exactly one truncation round
		c.maybeTruncateMappings()
	}
	if _, removed := c.seg(0).mapping.Stats(); removed == removedBefore {
		t.Fatal("the truncation round removed nothing: the older writer's entry should go")
	}
	if rows := scanUnder(t, c, tab, snap); len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Fatalf("a snapshot taken while W ran reads %v, want only the older row", rows)
	}
}

// TestLongReaderHoldsHorizon: a reader with no xid holds the horizon while a
// concurrent updater commits 512 times (two truncation rounds), and every
// read under its snapshot sees exactly the snapshot: the row's first value.
func TestLongReaderHoldsHorizon(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}})

	reader := c.BeginTxn()
	snap := c.Snapshot()
	xids := nextXIDs(c)
	up := planTemplate(t, c, "UPDATE t SET b = b + 1 WHERE a = 1")
	const updates = 512
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			lt := c.BeginTxn()
			usnap := c.Snapshot()
			_, _, err := c.Run(ctx, lt, usnap, up, nil)
			c.ReleaseSnapshot(usnap)
			if err != nil {
				c.AbortTxn(lt)
				t.Error(err)
				return
			}
			if _, err := c.CommitTxn(lt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	read := func() {
		t.Helper()
		root := &plan.Motion{Child: plan.NewScan(tab, []catalog.TableID{tab.ID}, nil), Type: plan.MotionGather}
		rows, _, err := c.Run(ctx, reader, snap, plan.NewPlanned(root), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0][1].Int() != 0 {
			t.Fatalf("the long reader's snapshot reads %v, want the one row with b = 0", rows)
		}
	}
	for i := 0; i < 20; i++ {
		read()
	}
	wg.Wait()
	read()
	if reader.dxid != dtm.InvalidDXID {
		t.Fatalf("the reader drew dxid %d", reader.dxid)
	}
	// The updater's 512 local transactions are the only xids drawn.
	var drawn txn.XID
	for i, x := range nextXIDs(c) {
		drawn += x - xids[i]
	}
	if drawn != updates {
		t.Fatalf("%d local xids drawn, want %d (one per update)", drawn, updates)
	}
	if _, err := c.CommitTxn(reader); err != nil {
		t.Fatal(err)
	}
	c.ReleaseSnapshot(snap)
	// With the snapshot gone the next round truncates what it pinned.
	for i := 0; i < 256; i++ {
		c.maybeTruncateMappings()
	}
	for _, s := range c.Segments() {
		if n := s.mapping.Len(); n != 0 {
			t.Fatalf("segment %d keeps %d mapping entries after the reader left", s.id, n)
		}
	}
	if got := scanAll(t, c, tab); len(got) != 1 || got[0][1].Int() != updates {
		t.Fatalf("after the updates: %v", got)
	}
}

// TestFirstWriteTakesFreshXid: a transaction begins and reads, then a
// snapshot S is taken, then the transaction writes and commits. S must not
// see the write: the transaction's xid is drawn at the write, after S, not
// at BEGIN.
func TestFirstWriteTakesFreshXid(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(1)}})

	w := c.BeginTxn()
	if got := scanAllTxn(t, c, tab, w); len(got) != 1 {
		t.Fatalf("read %v", got)
	}
	s := c.Snapshot()
	defer c.ReleaseSnapshot(s)
	wsnap := c.Snapshot()
	if _, _, err := c.Run(ctx, w, wsnap, insertPlan(tab, types.Row{types.NewInt(2), types.NewInt(2)}), nil); err != nil {
		t.Fatal(err)
	}
	c.ReleaseSnapshot(wsnap)
	dxid := w.DXID()
	if _, err := c.CommitTxn(w); err != nil {
		t.Fatal(err)
	}
	if rows := scanUnder(t, c, tab, s); len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("a snapshot taken before the first write reads %v, want only the row committed before it", rows)
	}
	if dxid < s.Xmax {
		t.Fatalf("the write's dxid %d is older than the snapshot taken before it (xmax %d)", dxid, s.Xmax)
	}
	if rows := scanAll(t, c, tab); len(rows) != 2 {
		t.Fatalf("a fresh snapshot reads %v, want both rows", rows)
	}
}

// TestMirrorMappingTruncated: a mirror registers every logged begin, so it
// must truncate its xid mapping at the primary's horizon too — a promoted
// mirror would otherwise inherit every entry ever made.
func TestMirrorMappingTruncated(t *testing.T) {
	c := replicatedCluster(t, 1, ReplicaSync)
	tab := mkTable(t, c, "t")
	for i := int64(0); i < 1024; i++ {
		insertRows(t, c, tab, []types.Row{{types.NewInt(i), types.NewInt(i)}})
	}
	c.topoMu.Lock()
	m := c.mirrors[0]
	c.topoMu.Unlock()
	if p, n := c.seg(0).mapping.Len(), m.mapping.Len(); p > 256 || n > 256 {
		t.Fatalf("after 1024 commits the primary's mapping holds %d entries and the mirror's %d, want <= 256 each", p, n)
	}
}
