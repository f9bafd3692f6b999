package cluster

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// indexedTable creates t(a, b) distributed by a with the hash index t_a on a.
func indexedTable(t *testing.T, c *Cluster) *catalog.Table {
	t.Helper()
	tab := mkTable(t, c, "t")
	lt := c.BeginTxn(nil)
	if err := c.ApplyCreateIndex(context.Background(), lt, "t", &catalog.Index{Name: "t_a", Table: "t", Columns: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	return tab
}

// versionsOf counts, over every segment, the postings under key a = k and
// the stored versions of that key not marked dead.
func versionsOf(t *testing.T, c *Cluster, tab *catalog.Table, k int64) (postings, versions int) {
	t.Helper()
	key := []types.Datum{types.NewInt(k)}
	for _, s := range c.Segments() {
		st, err := s.table(tab.ID)
		if err != nil {
			t.Fatal(err)
		}
		postings += len(st.indexes[0].ix.Lookup(key))
		_ = st.engine.Scan(nil, 0, func(ch *storage.Chunk) bool {
			for _, r := range ch.Rows {
				if r[0].Int() == k {
					versions++
				}
			}
			return true
		})
	}
	return postings, versions
}

// truncationRound runs exactly one round of mapping truncation, which also
// publishes the horizon the probes prune under.
func truncationRound(c *Cluster) {
	for i := 0; i < 256; i++ {
		c.maybeTruncateMappings()
	}
}

// commitUpdate runs one autocommit statement that writes.
func commitUpdate(t *testing.T, c *Cluster, up *plan.Planned) {
	t.Helper()
	lt := c.BeginTxn(nil)
	snap := c.Snapshot()
	_, _, err := c.Run(context.Background(), lt, snap, up, nil)
	c.ReleaseSnapshot(snap)
	if err != nil {
		c.AbortTxn(lt)
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
}

// readB reads b of the row a = 1 through the index under snap, as the
// transaction lt.
func readB(t *testing.T, c *Cluster, lt *LiveTxn, snap *dtm.DistSnapshot, sel *plan.Planned) []types.Row {
	t.Helper()
	rows, _, err := c.Run(context.Background(), lt, snap, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestProbeKeepsWhatALiveSnapshotSees: a reader holding a snapshot reads
// one row through its index 20 times while an updater commits 512 updates
// of it, whose own index probes prune as they go. Every read sees the row's
// first value: the horizon the reader holds keeps its version.
func TestProbeKeepsWhatALiveSnapshotSees(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(2))
	tab := indexedTable(t, c)
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}})
	sel := planTemplate(t, c, "SELECT b FROM t WHERE a = 1")
	if ex := plan.Explain(sel.Root); !strings.Contains(ex, "Index Scan using t_a") {
		t.Fatalf("the read is not an index probe:\n%s", ex)
	}
	up := planTemplate(t, c, "UPDATE t SET b = b + 1 WHERE a = 1")

	reader := c.BeginTxn(nil)
	snap := c.Snapshot()
	const updates = 512
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			lt := c.BeginTxn(nil)
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
		if rows := readB(t, c, reader, snap, sel); len(rows) != 1 || rows[0][0].Int() != 0 {
			t.Fatalf("the reader's snapshot reads %v through the index, want the one row with b = 0", rows)
		}
	}
	for i := 0; i < 20; i++ {
		read()
	}
	wg.Wait()
	read()
	c.ReleaseSnapshot(snap)
	if _, err := c.CommitTxn(reader); err != nil {
		t.Fatal(err)
	}
	fresh := c.Snapshot()
	defer c.ReleaseSnapshot(fresh)
	lt := c.BeginTxn(nil)
	defer c.AbortTxn(lt)
	if rows := readB(t, c, lt, fresh, sel); len(rows) != 1 || rows[0][0].Int() != updates {
		t.Fatalf("after the updates the row reads %v, want b = %d", rows, updates)
	}
}

// TestHotRowKeepsAHandfulOfVersions: 2 000 committed updates of one indexed
// row with no other snapshot. Each update's probe prunes below the horizon
// the last truncation round published, so the row never keeps more than a
// round's versions, and once the horizon catches up the next probe leaves at
// most 8 postings under its key and 8 versions not marked dead.
func TestHotRowKeepsAHandfulOfVersions(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := indexedTable(t, c)
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}})
	up := planTemplate(t, c, "UPDATE t SET b = b + 1 WHERE a = 1")
	const updates = 2000
	for i := 0; i < updates; i++ {
		commitUpdate(t, c, up)
	}
	if p, v := versionsOf(t, c, tab, 1); p > 256+8 || v > 256+8 {
		t.Fatalf("after %d updates the row keeps %d postings and %d versions, want at most a truncation round's", updates, p, v)
	}
	truncationRound(c)
	commitUpdate(t, c, up)
	if p, v := versionsOf(t, c, tab, 1); p > 8 || v > 8 {
		t.Fatalf("the probe after a truncation round leaves %d postings and %d versions, want at most 8 each", p, v)
	}
	if got := scanAll(t, c, tab); len(got) != 1 || got[0][1].Int() != updates+1 {
		t.Fatalf("the row reads %v, want b = %d", got, updates+1)
	}
	if n, _ := c.Metrics().Value("storage.versions_reclaimed"); n < updates-8 {
		t.Fatalf("storage.versions_reclaimed = %d, want at least %d", n, updates-8)
	}
}

// TestPreparedDeleterHoldsItsVersion: a version whose deleter is prepared is
// never pruned: the rule refuses it under any horizon, since the local clog
// still lists the deleter as running, and probes meanwhile leave it alone.
// Once commit-prepared lands and a truncation round publishes a horizon past
// the deleter, the next probe prunes it.
func TestPreparedDeleterHoldsItsVersion(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(1))
	tab := indexedTable(t, c)
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(0)}})
	sel := planTemplate(t, c, "SELECT b FROM t WHERE a = 1")
	read := func() []types.Row {
		t.Helper()
		lt := c.BeginTxn(nil)
		defer c.AbortTxn(lt)
		snap := c.Snapshot()
		defer c.ReleaseSnapshot(snap)
		return readB(t, c, lt, snap, sel)
	}

	w := c.BeginTxn(nil)
	wsnap := c.Snapshot()
	_, _, err := c.Run(ctx, w, wsnap, planTemplate(t, c, "UPDATE t SET b = 1 WHERE a = 1"), nil)
	c.ReleaseSnapshot(wsnap)
	if err != nil {
		t.Fatal(err)
	}
	s := c.seg(0)
	if err := s.Prepare(w.dxid); err != nil {
		t.Fatal(err)
	}
	st, err := s.table(tab.ID)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, ok := st.engine.Fetch(1); !ok || h.Xmax == 0 || s.deadVersion(h, dtm.DXID(math.MaxUint64)) {
		t.Fatalf("the version the prepared transaction deleted (%+v, stored %v) is dead under the rule", h, ok)
	}
	truncationRound(c)
	for i := 0; i < 3; i++ {
		if rows := read(); len(rows) != 1 || rows[0][0].Int() != 0 {
			t.Fatalf("with the deleter prepared the row reads %v, want b = 0", rows)
		}
	}
	if p, v := versionsOf(t, c, tab, 1); p != 2 || v != 2 {
		t.Fatalf("with the deleter prepared: %d postings, %d versions; want 2, 2", p, v)
	}
	if n, _ := c.Metrics().Value("storage.versions_reclaimed"); n != 0 {
		t.Fatalf("with the deleter prepared: %d reclaimed; want 0", n)
	}

	if err := s.CommitPrepared(w.dxid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(w); err != nil { // the coordinator's side
		t.Fatal(err)
	}
	truncationRound(c)
	if rows := read(); len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("after commit-prepared the row reads %v, want b = 1", rows)
	}
	if p, v := versionsOf(t, c, tab, 1); p != 1 || v != 1 {
		t.Fatalf("after commit-prepared and a probe: %d postings, %d versions; want 1, 1", p, v)
	}
	if n, _ := c.Metrics().Value("storage.versions_reclaimed"); n != 1 {
		t.Fatalf("after commit-prepared and a probe: %d reclaimed; want 1", n)
	}
}

// TestVacuumDropsPostings: VACUUM takes the postings of the versions it
// reclaims out of the index, so afterwards the index holds one posting per
// live version; a deleted key's emptied run takes the key again when it is
// reinserted.
func TestVacuumDropsPostings(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := indexedTable(t, c)
	var rows []types.Row
	for i := int64(0); i < 20; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i)})
	}
	insertRows(t, c, tab, rows)
	for _, q := range []string{"UPDATE t SET b = b + 1", "UPDATE t SET b = b + 1", "DELETE FROM t WHERE a < 5"} {
		commitUpdate(t, c, planTemplate(t, c, q))
	}
	n, err := c.Vacuum("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*20+5 {
		t.Fatalf("vacuum reclaimed %d, want %d", n, 2*20+5)
	}
	live, postings := len(scanAll(t, c, tab)), 0
	for _, s := range c.Segments() {
		st, err := s.table(tab.ID)
		if err != nil {
			t.Fatal(err)
		}
		postings += st.indexes[0].ix.Len()
	}
	if live != 15 || postings != live {
		t.Fatalf("after VACUUM: %d live versions, %d postings; want 15 of each", live, postings)
	}
	if got, ok := c.Metrics().Value("storage.versions_reclaimed"); !ok || got != int64(n) {
		t.Fatalf("storage.versions_reclaimed = %d (%v), want %d", got, ok, n)
	}
	insertRows(t, c, tab, []types.Row{{types.NewInt(3), types.NewInt(9)}})
	if p, v := versionsOf(t, c, tab, 3); p != 1 || v != 1 {
		t.Fatalf("the reinserted key has %d postings and %d versions, want 1 each", p, v)
	}
}
