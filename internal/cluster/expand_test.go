package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/types"
)

func waitExpand(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.WaitExpand(context.Background()); err != nil {
		t.Fatalf("WaitExpand: %v", err)
	}
}

// TestExpandRebalancesHashTable expands 2→4 and checks that a hash table's
// rows land spread across all four segments, that nothing is lost or
// duplicated, and that new inserts route by the widened placement.
func TestExpandRebalancesHashTable(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 256; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 3)})
	}
	insertRows(t, c, tab, rows)

	n, err := c.AddSegments(2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || c.SegCount() != 4 {
		t.Fatalf("AddSegments: got %d segments, SegCount %d", n, c.SegCount())
	}
	waitExpand(t, c)

	// The flip replaced the catalog object; route against the live one.
	moved, err := c.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if w, ver := moved.Placement(); w != 4 || ver == 0 {
		t.Fatalf("placement after expand = (%d segs, v%d), want (4, >0)", w, ver)
	}
	got := scanAll(t, c, moved)
	if len(got) != 256 {
		t.Fatalf("scan after expand returned %d rows, want 256", len(got))
	}
	seen := map[int64]bool{}
	for _, r := range got {
		k := r[0].Int()
		if seen[k] {
			t.Fatalf("row %d duplicated after expand", k)
		}
		seen[k] = true
	}
	// Every row must now live on the segment the widened hash picks.
	for i, seg := range c.Segments() {
		want := 0
		for _, r := range rows {
			if plan.RouteRow(moved, r, 4) == i {
				want++
			}
		}
		if got := seg.RowCount(moved); got != want {
			t.Errorf("segment %d rows = %d, want %d (hash mod 4)", i, got, want)
		}
		if want == 0 {
			t.Errorf("hash spread never targets segment %d", i)
		}
	}
	// New inserts route across the widened placement too.
	insertRows(t, c, moved, []types.Row{{types.NewInt(1000), types.NewInt(1)}})
	if len(scanAll(t, c, moved)) != 257 {
		t.Fatal("insert after expand lost")
	}
}

// TestExpandMovesReplicatedAndFlipsRandom checks the two non-hash paths:
// replicated tables get full copies on the new segments, randomly
// distributed tables keep their rows and only widen routing.
func TestExpandMovesReplicatedAndFlipsRandom(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	rep := &catalog.Table{
		Name:         "rep",
		Schema:       types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}),
		Distribution: catalog.DistReplicated,
		PartitionCol: -1,
	}
	rnd := &catalog.Table{
		Name:         "rnd",
		Schema:       types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}),
		Distribution: catalog.DistRandom,
		PartitionCol: -1,
	}
	for _, tab := range []*catalog.Table{rep, rnd} {
		if err := c.ApplyCreateTable(tab); err != nil {
			t.Fatal(err)
		}
		var rows []types.Row
		for i := int64(0); i < 40; i++ {
			rows = append(rows, types.Row{types.NewInt(i)})
		}
		insertRows(t, c, tab, rows)
	}

	if _, err := c.AddSegments(2); err != nil {
		t.Fatal(err)
	}
	waitExpand(t, c)

	// The replicated table moved by stage and flip: its name now belongs to
	// the staging clone.
	rep, err := c.Catalog().Table("rep")
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range c.Segments() {
		if got := seg.RowCount(rep); got != 40 {
			t.Errorf("replicated: segment %d has %d rows, want full copy (40)", i, got)
		}
	}
	if w, _ := rep.Placement(); w != 4 {
		t.Errorf("replicated placement width = %d, want 4", w)
	}
	if w, _ := rnd.Placement(); w != 4 {
		t.Errorf("random placement width = %d, want 4", w)
	}
	if got := len(scanAll(t, c, rnd)); got != 40 {
		t.Errorf("random table scan = %d rows, want 40", got)
	}
}

// TestStaleDistMapVersionRejected pins the dispatch contract for every DML
// shape: a plan carrying a distribution-map version older than the table's
// current one is rejected with a retryable StaleDistMapError before any
// segment work happens.
func TestStaleDistMapVersionRejected(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn, staleVer uint64) error
	}{
		{"insert", func(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn, v uint64) error {
			ins := insertPlan(tab, types.Row{types.NewInt(1), types.NewInt(1)})
			ins.Root.(*plan.InsertPlan).MapVersion = v
			_, _, err := c.Run(ctx, lt, c.Snapshot(), ins, nil)
			return err
		}},
		{"update", func(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn, v uint64) error {
			up := planTemplate(t, c, "UPDATE t SET b = 9")
			up.Root.(*plan.UpdatePlan).MapVersion = v
			_, _, err := c.Run(ctx, lt, c.Snapshot(), up, nil)
			return err
		}},
		{"delete", func(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn, v uint64) error {
			dp := planTemplate(t, c, "DELETE FROM t")
			dp.Root.(*plan.DeletePlan).MapVersion = v
			_, _, err := c.Run(ctx, lt, c.Snapshot(), dp, nil)
			return err
		}},
		{"select", func(t *testing.T, c *Cluster, tab *catalog.Table, lt *LiveTxn, v uint64) error {
			scan := plan.NewScan(tab, []catalog.TableID{tab.ID}, nil)
			root := &plan.Motion{Child: scan, Type: plan.MotionGather}
			pl := plan.NewPlanned(root)
			pl.MapVersions = map[string]uint64{tab.Name: v}
			_, _, err := c.Run(ctx, lt, c.Snapshot(), pl, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, GPDB6(2))
			tab := mkTable(t, c, "t")
			insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(2)}})
			w, ver := tab.Placement()
			// Simulate an online expansion flipping the map under the plan.
			tab.SetPlacement(w, ver+1)
			lt := c.BeginTxn(nil)
			defer c.AbortTxn(lt)
			err := tc.run(t, c, tab, lt, ver)
			var stale *StaleDistMapError
			if !errors.As(err, &stale) {
				t.Fatalf("stale-version %s: err = %v, want StaleDistMapError", tc.name, err)
			}
			if stale.Planned != ver || stale.Current != ver+1 {
				t.Fatalf("error versions = (v%d -> v%d), want (v%d -> v%d)",
					stale.Planned, stale.Current, ver, ver+1)
			}
			if !IsRetryableDispatch(err) {
				t.Fatalf("%s: StaleDistMapError must be retryable (re-plan and re-run)", tc.name)
			}
		})
	}
}

// TestTxnLostWritesOnMapFlip pins the write-fence: a transaction that wrote
// a table whose distribution map then flipped must fail its commit with
// ErrTxnLostWrites (its writes targeted the retired placement), exactly as
// writes lost to a segment failover do.
func TestTxnLostWritesOnMapFlip(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	lt := c.BeginTxn(nil)
	w, ver := tab.Placement()
	if _, _, err := c.Run(context.Background(), lt, c.Snapshot(), insertPlan(tab, types.Row{types.NewInt(1), types.NewInt(2)}), nil); err != nil {
		t.Fatal(err)
	}
	tab.SetPlacement(w, ver+1) // the flip lands while the txn is in flight
	_, err := c.CommitTxn(lt)
	if !errors.Is(err, ErrTxnLostWrites) {
		t.Fatalf("commit after map flip: err = %v, want ErrTxnLostWrites", err)
	}
	// The transaction aborted whole: nothing of it is visible.
	if got := len(scanAll(t, c, tab)); got != 0 {
		t.Fatalf("fenced transaction left %d rows behind", got)
	}
}

// TestLateSegmentFaultAndBreakerCoverage is the regression test for fault
// coverage of segments registered after arming: a spec targeting a segment
// id that does not exist yet must fire once expansion brings that segment
// up, and the new segment must have its own circuit breaker.
func TestLateSegmentFaultAndBreakerCoverage(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	mkTable(t, c, "t")

	// Armed before segment 3 exists.
	if err := c.InjectFault(fault.Spec{
		Point: fault.DispatchSend, Seg: 3, Action: fault.ActError, Count: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(c.BreakerStatuses()); got != 2 {
		t.Fatalf("breakers before expand = %d, want 2", got)
	}

	if _, err := c.AddSegments(2); err != nil {
		t.Fatal(err)
	}
	waitExpand(t, c)

	if got := len(c.BreakerStatuses()); got != 4 {
		t.Fatalf("breakers after expand = %d, want one per segment (4)", got)
	}

	// Find keys that the widened placement routes to segment 3 and write
	// them: dispatch to the late segment must hit the armed spec (and retry
	// transparently — ActError at dispatch_send is pre-send).
	moved, err := c.Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := c.Metrics().Value("fault.triggers")
	var rows []types.Row
	for i := int64(0); len(rows) < 4; i++ {
		row := types.Row{types.NewInt(i), types.NewInt(0)}
		if plan.RouteRow(moved, row, 4) == 3 {
			rows = append(rows, row)
		}
	}
	insertRows(t, c, moved, rows)
	if after, _ := c.Metrics().Value("fault.triggers"); after <= before {
		t.Fatalf("fault spec armed before segment 3 existed never fired (triggers %d -> %d)", before, after)
	}
	if got := len(scanAll(t, c, moved)); got != 4 {
		t.Fatalf("rows after faulted dispatch = %d, want 4 (retries must recover)", got)
	}
}

// TestExpandStatusLifecycle checks SHOW expand_status's underlying API
// through a full run.
func TestExpandStatusLifecycle(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	p := c.ExpandStatus()
	if p.Active || !p.Done {
		t.Fatalf("idle cluster reports %+v", p)
	}
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 64; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i)})
	}
	insertRows(t, c, tab, rows)
	if err := c.StartExpand(4); err != nil {
		t.Fatal(err)
	}
	if err := c.StartExpand(5); err == nil {
		t.Fatal("second concurrent expansion must be rejected")
	}
	waitExpand(t, c)
	p = c.ExpandStatus()
	if p.Active || !p.Done || p.Err != "" {
		t.Fatalf("finished run reports %+v", p)
	}
	if p.From != 2 || p.Target != 4 {
		t.Fatalf("run bounds = %d -> %d, want 2 -> 4", p.From, p.Target)
	}
	if p.TablesDone != p.TablesTotal || p.TablesTotal == 0 {
		t.Fatalf("tables done = %d/%d", p.TablesDone, p.TablesTotal)
	}
	if p.RowsMoved < 64 {
		t.Fatalf("rows moved = %d, want >= 64", p.RowsMoved)
	}
	if err := c.StartExpand(4); err == nil {
		t.Fatal("EXPAND TO current width must be rejected")
	}
	_ = fmt.Sprintf("%v", p)
}

// TestExpandStaleTemplateFenced: a plan template built before an online
// expansion and instantiated after it routes by the old width, so dispatch
// must refuse it with the retryable stale-map error — for a direct read, an
// UPDATE and a DELETE alike — and a template planned at the new width must
// find every key where it now lives.
func TestExpandStaleTemplateFenced(t *testing.T) {
	c := testCluster(t, GPDB6(2))
	tab := mkTable(t, c, "t")
	var rows []types.Row
	for i := int64(0); i < 200; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(i * 10)})
	}
	insertRows(t, c, tab, rows)
	ctx := context.Background()
	one := types.NewInt(1)
	sel := planTemplate(t, c, "SELECT b FROM t WHERE a = $1", one)
	upd := planTemplate(t, c, "UPDATE t SET b = b WHERE a = $1", one)
	if err := c.StartExpand(4); err != nil {
		t.Fatal(err)
	}
	waitExpand(t, c)
	fresh := planTemplate(t, c, "SELECT b FROM t WHERE a = $1", one)
	for k := int64(0); k < 200; k++ {
		params := []types.Datum{types.NewInt(k)}
		lt := c.BeginTxn(nil)
		var stale *StaleDistMapError
		pl, err := sel.Bind(params)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Run(ctx, lt, c.Snapshot(), pl, nil); !errors.As(err, &stale) {
			t.Fatalf("key %d: stale SELECT template: %v, want StaleDistMapError", k, err)
		}
		if pl, err = upd.Bind(params); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Run(ctx, lt, c.Snapshot(), pl, nil); !errors.As(err, &stale) {
			t.Fatalf("key %d: stale UPDATE template: %v, want StaleDistMapError", k, err)
		}
		if pl, err = fresh.Bind(params); err != nil {
			t.Fatal(err)
		}
		got, _, err := c.Run(ctx, lt, c.Snapshot(), pl, nil)
		if err != nil || len(got) != 1 || got[0][0].Int() != k*10 {
			t.Fatalf("key %d at the new width: %v %v", k, got, err)
		}
		c.AbortTxn(lt)
	}
}

// TestInsertSelectIntoNarrowTable: mid-expansion a table the mover has not
// reached still hashes across its old placement width, narrower than the
// cluster. An INSERT … SELECT into it stores every row on the segment its
// key hashes to at that width, where the mover's catch-up reads it, and on
// no segment beyond it.
func TestInsertSelectIntoNarrowTable(t *testing.T) {
	ctx := context.Background()
	c := testCluster(t, GPDB6(4))
	src, dst := mkTable(t, c, "src"), mkTable(t, c, "dst")
	_, ver := dst.Placement()
	dst.SetPlacement(2, ver)
	var rows []types.Row
	for i := int64(0); i < 64; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewInt(-i)})
	}
	insertRows(t, c, src, rows)
	lt := c.BeginTxn(nil)
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	if _, n, err := c.Run(ctx, lt, snap, planTemplate(t, c, "INSERT INTO dst SELECT a, b FROM src"), nil); err != nil || n != len(rows) {
		t.Fatalf("INSERT … SELECT wrote %d rows: %v", n, err)
	}
	if _, err := c.CommitTxn(lt); err != nil {
		t.Fatal(err)
	}
	for i, seg := range c.Segments() {
		want := 0
		for _, r := range rows {
			if plan.RouteRow(dst, r, 2) == i {
				want++
			}
		}
		if got := seg.RowCount(dst); got != want {
			t.Errorf("segment %d holds %d rows of the 2-wide table, want %d", i, got, want)
		}
	}
}
