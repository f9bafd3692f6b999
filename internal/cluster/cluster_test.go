package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/types"
)

func testCluster(t *testing.T, cfg *Config) *Cluster {
	t.Helper()
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func mkTable(t *testing.T, c *Cluster, name string) *catalog.Table {
	t.Helper()
	tab := &catalog.Table{
		Name: name,
		Schema: types.NewSchema(
			types.Column{Name: "a", Kind: types.KindInt},
			types.Column{Name: "b", Kind: types.KindInt},
		),
		Distribution: catalog.DistHash,
		DistKeyCols:  []int{0},
		PartitionCol: -1,
	}
	if err := c.ApplyCreateTable(tab); err != nil {
		t.Fatal(err)
	}
	return tab
}

func insertRows(t *testing.T, c *Cluster, tab *catalog.Table, rows []types.Row) {
	t.Helper()
	lt := c.BeginTxn()
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	if _, _, err := c.Run(context.Background(), lt, snap, insertPlan(tab, rows...), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
}

// insertPlan is an INSERT of rows into tab under its current placement: an
// InsertPlan over VALUES.
func insertPlan(tab *catalog.Table, rows ...types.Row) *plan.Planned {
	_, ver := tab.Placement()
	ip := &plan.InsertPlan{Table: tab, Child: &plan.Values{Out: tab.Schema, Rows: rows}, MapVersion: ver}
	return &plan.Planned{Root: ip, DirectSegment: -1}
}

func scanAll(t *testing.T, c *Cluster, tab *catalog.Table) []types.Row {
	t.Helper()
	lt := c.BeginTxn()
	defer c.AbortTxn(lt)
	scan := plan.NewScan(tab, []catalog.TableID{tab.ID}, nil)
	root := &plan.Motion{Child: scan, Type: plan.MotionGather}
	pl := plan.NewPlanned(root)
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	rows, _, err := c.Run(context.Background(), lt, snap, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestInsertRoutesByDistributionKey(t *testing.T) {
	c := testCluster(t, GPDB6(4))
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 64; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 10)})
	}
	insertRows(t, c, tab, rows)

	// Every row must be on exactly the segment its key hashes to.
	for i, seg := range c.Segments() {
		want := 0
		for k := int64(0); k < 64; k++ {
			if types.Bucket(types.Row{types.NewInt(k)}.HashKey(), 4) == i {
				want++
			}
		}
		if got := seg.RowCount(tab); got != want {
			t.Errorf("segment %d rows = %d, want %d", i, got, want)
		}
	}
	if got := len(scanAll(t, c, tab)); got != 64 {
		t.Fatalf("scan returned %d rows", got)
	}
}

func TestReplicatedTableOnEverySegment(t *testing.T) {
	c := testCluster(t, GPDB6(3))
	tab := &catalog.Table{
		Name:         "r",
		Schema:       types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}),
		Distribution: catalog.DistReplicated,
		PartitionCol: -1,
	}
	if err := c.ApplyCreateTable(tab); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tab, []types.Row{{types.NewInt(1)}, {types.NewInt(2)}})
	for i, seg := range c.Segments() {
		if got := seg.RowCount(tab); got != 2 {
			t.Errorf("segment %d rows = %d, want full copy (2)", i, got)
		}
	}
}

func TestVacuumReclaimsDeadVersions(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 10; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(0)})
	}
	insertRows(t, c, tab, rows)

	// Update everything twice: each update adds a version and deadens one.
	for pass := 0; pass < 2; pass++ {
		lt := c.BeginTxn()
		up := planTemplate(t, c, "UPDATE t SET b = b + 1")
		snap := c.Snapshot()
		if _, _, err := c.Run(context.Background(), lt, snap, up, nil); err != nil {
			t.Fatal(err)
		}
		c.ReleaseSnapshot(snap)
		if _, err := c.CommitTxn(lt); err != nil {
			t.Fatal(err)
		}
	}
	before := c.RowCount("t")
	if before != 30 { // 10 live + 20 dead versions
		t.Fatalf("version count before vacuum = %d", before)
	}
	n, err := c.Vacuum("t")
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("vacuum reclaimed %d, want 20", n)
	}
	if got := len(scanAll(t, c, tab)); got != 10 {
		t.Fatalf("rows after vacuum = %d", got)
	}
}

func TestTruncateTable(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(1)}})
	lt := c.BeginTxn()
	if err := c.ApplyTruncate(context.Background(), lt, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	if got := c.RowCount("t"); got != 0 {
		t.Fatalf("rows after truncate = %d", got)
	}
}

func TestDeleteAndReadOnlyCommit(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(2), types.NewInt(20)},
	})
	lt := c.BeginTxn()
	_, n, err := c.Run(context.Background(), lt, c.Snapshot(), planTemplate(t, c, "DELETE FROM t WHERE a = 1"), nil)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	if got := len(scanAll(t, c, tab)); got != 1 {
		t.Fatalf("rows after delete = %d", got)
	}
	// A pure read commits via the read-only path.
	ro0, _ := c.Metrics().Value("txn.commits_readonly")
	lt2 := c.BeginTxn()
	_ = scanAllTxn(t, c, tab, lt2)
	if _, err := c.CommitTxn(lt2); err != nil {
		t.Fatal(err)
	}
	ro1, _ := c.Metrics().Value("txn.commits_readonly")
	if ro1 != ro0+1 {
		t.Fatalf("read-only commits: %d -> %d", ro0, ro1)
	}
}

func scanAllTxn(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn) []types.Row {
	t.Helper()
	scan := plan.NewScan(tab, []catalog.TableID{tab.ID}, nil)
	root := &plan.Motion{Child: scan, Type: plan.MotionGather}
	pl := plan.NewPlanned(root)
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	rows, _, err := c.Run(context.Background(), lt, snap, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestDirectDispatchTouchesOneSegment(t *testing.T) {
	c := testCluster(t, GPDB6(4))
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 16; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(0)})
	}
	insertRows(t, c, tab, rows)

	key := int64(5)
	target := types.Bucket(types.Row{types.NewInt(key)}.HashKey(), 4)
	lt := c.BeginTxn()
	up := planTemplate(t, c, "UPDATE t SET b = 99 WHERE a = 5")
	if up.DirectSegment != target {
		t.Fatalf("UPDATE of key %d routed to segment %d, its row lives on %d", key, up.DirectSegment, target)
	}
	_, n, err := c.Run(context.Background(), lt, c.Snapshot(), up, nil)
	if err != nil || n != 1 {
		t.Fatalf("update: %d %v", n, err)
	}
	st, err := c.CommitTxn(lt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != "one-phase" {
		t.Fatalf("direct-dispatched single-segment write committed via %s", st.Protocol)
	}
}

func TestLockTableEverywhereConflictsWithDML(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(1)}})

	lt := c.BeginTxn()
	if err := c.LockTableEverywhere(context.Background(), lt, "t", lockmgr.AccessExclusive); err != nil {
		t.Fatal(err)
	}
	// Another txn's coordinator lock must block.
	lt2 := c.BeginTxn()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := c.LockCoordinator(ctx, lt2, "t", lockmgr.RowExclusive)
	if err == nil {
		t.Fatal("LOCK TABLE did not block a writer")
	}
	c.AbortTxn(lt2)
	c.AbortTxn(lt)
}

// planTemplate plans a statement against the cluster's catalog at its
// current width — with $N parameters, the way a session's plan cache would
// hold it.
func planTemplate(t *testing.T, c *Cluster, q string, params ...types.Datum) *plan.Planned {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := (&plan.Planner{Catalog: c.Catalog(), NumSegments: c.SegCount(), Params: params}).Plan(st, true)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestDirectReadTouchesOneSegment: a read pinned to one segment involves
// that segment alone — its transaction touched nothing else and commits
// read-only there — except the one in gangSampleEvery that samples the gang;
// with Config.DirectDispatch off every read is a gang read.
func TestDirectReadTouchesOneSegment(t *testing.T) {
	for _, direct := range []bool{true, false} {
		cfg := GPDB6(4)
		cfg.DirectDispatch = direct
		c := testCluster(t, cfg)
		tab := mkTable(t, c, "t")
		var rows []types.Row
		for i := int64(0); i < 100; i++ {
			rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 10)})
		}
		insertRows(t, c, tab, rows)
		tmpl := planTemplate(t, c, "SELECT b FROM t WHERE a = $1", types.NewInt(0))
		gang := 0
		for k := int64(0); k < 2*gangSampleEvery; k++ {
			pl, err := tmpl.Bind([]types.Datum{types.NewInt(k)})
			if err != nil {
				t.Fatal(err)
			}
			lt := c.BeginTxn()
			got, _, err := c.Run(context.Background(), lt, c.Snapshot(), pl, nil)
			if err != nil || len(got) != 1 || got[0][0].Int() != k*10 {
				t.Fatalf("key %d: %v %v", k, got, err)
			}
			var touched []int
			for seg, on := range lt.touched {
				if on {
					touched = append(touched, seg)
				}
			}
			c.AbortTxn(lt)
			want := types.Bucket(types.Row{types.NewInt(k)}.HashKey(), 4)
			switch {
			case len(touched) == 4:
				gang++
			case len(touched) != 1 || touched[0] != want:
				t.Fatalf("key %d touched segments %v, its rows live on %d", k, touched, want)
			}
		}
		if want := map[bool]int{true: 2, false: 2 * gangSampleEvery}[direct]; gang != want {
			t.Fatalf("direct dispatch %v: %d of %d reads ran on the gang, want %d", direct, gang, 2*gangSampleEvery, want)
		}
	}
}

// TestCorruptColumnBlockFailsStatement: a sealed AO-column block whose bytes
// no longer decode fails the statement that reads it — it used to shorten the
// answer and report success; a statement that never asks for the damaged
// column is unaffected.
func TestCorruptColumnBlockFailsStatement(t *testing.T) {
	c := testCluster(t, GPDB6(1))
	tab := &catalog.Table{
		Name:         "t",
		Schema:       types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindInt}),
		Storage:      catalog.AOColumn,
		Distribution: catalog.DistHash,
		DistKeyCols:  []int{0},
		PartitionCol: -1,
	}
	if err := c.ApplyCreateTable(tab); err != nil {
		t.Fatal(err)
	}
	const n = 4*4096 + 100
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10))}
	}
	insertRows(t, c, tab, rows)
	run := func(q string) ([]types.Row, error) {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := (&plan.Planner{Catalog: c.Catalog(), NumSegments: 1}).Plan(st, true)
		if err != nil {
			t.Fatal(err)
		}
		lt := c.BeginTxn()
		defer c.AbortTxn(lt)
		got, _, err := c.Run(context.Background(), lt, c.Snapshot(), pl, nil)
		return got, err
	}
	if got, err := run("SELECT count(*), sum(b) FROM t"); err != nil || got[0][0].Int() != n {
		t.Fatalf("intact table: %v %v", got, err)
	}
	st, err := c.Segments()[0].table(tab.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.engine.(*storage.AOColumn).CorruptBlockForTest(2, 1)
	if got, err := run("SELECT count(*), sum(b) FROM t"); err == nil || !strings.Contains(err.Error(), "block 2 column 1") {
		t.Fatalf("a corrupt block answered %v, error %v", got, err)
	}
	if got, err := run("SELECT count(*), sum(a) FROM t"); err != nil || got[0][0].Int() != n {
		t.Fatalf("intact column: %v %v", got, err)
	}
}
