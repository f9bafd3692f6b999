package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/types"
)

const directSchema = `
CREATE TABLE kv (id int, val int, pad text) DISTRIBUTED BY (id);
CREATE INDEX kv_pkey ON kv (id);
CREATE TABLE two (a int, b int, v int) DISTRIBUTED BY (a, b);
CREATE TABLE sales (id int, d int, amt float) DISTRIBUTED BY (id)
	PARTITION BY RANGE (d) (PARTITION p0 START (0) END (100), PARTITION p1 START (100) END (200));
CREATE TABLE fl (x float, v int) DISTRIBUTED BY (x);
CREATE TABLE rep (id int, v int) DISTRIBUTED REPLICATED;
CREATE TABLE rnd (id int, v int) DISTRIBUTED RANDOMLY;
`

// directEngine boots a 4-segment engine with the direct-dispatch schema
// loaded: 60 keys in every table.
func directEngine(t testing.TB, direct bool) (*Engine, *Session) {
	t.Helper()
	cfg := cluster.GPDB6(4)
	cfg.GDDPeriod = 5 * time.Millisecond
	cfg.DirectDispatch = direct
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.ExecScript(ctx, directSchema); err != nil {
		t.Fatal(err)
	}
	var kv, two, sales, fl, small []string
	for i := 1; i <= 60; i++ {
		kv = append(kv, fmt.Sprintf("(%d,%d,'pad')", i, i*10))
		two = append(two, fmt.Sprintf("(%d,%d,%d)", i%6, i%5, i))
		sales = append(sales, fmt.Sprintf("(%d,%d,%d.5)", i%20, (i*7)%200, i))
		fl = append(fl, fmt.Sprintf("(%d.0,%d)", i, i))
		small = append(small, fmt.Sprintf("(%d,%d)", i, i))
	}
	for tab, rows := range map[string][]string{"kv": kv, "two": two, "sales": sales, "fl": fl, "rep": small, "rnd": small} {
		if _, err := s.Exec(ctx, "INSERT INTO "+tab+" VALUES "+strings.Join(rows, ",")); err != nil {
			t.Fatal(err)
		}
	}
	return e, s
}

// sortedRows renders a result with its rows sorted (kind-tagged, so 5 and
// 5.0 differ).
func sortedRows(res *Result) string {
	lines := strings.Split(strings.TrimSuffix(rowsText(res), "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// sliceSegments runs q traced and returns the segments its slices ran on.
// One direct-dispatchable read in fifty runs on the whole gang by design
// (cluster.gangSampleEvery), so a statement that did is run once more.
func sliceSegments(t *testing.T, e *Engine, s *Session, q string, params ...types.Datum) []int {
	t.Helper()
	var segs []int
	for attempt := 0; attempt < 2 && len(segs) != 1; attempt++ {
		mustExec(t, s, "SET trace_queries = on")
		mustExec(t, s, q, params...)
		mustExec(t, s, "SET trace_queries = off")
		segs = nil
		for _, tr := range e.Activity().Traces().Recent(2) {
			if tr.SQL != q {
				continue
			}
			for _, sp := range tr.Spans() {
				if strings.HasPrefix(sp.Name, "slice ") {
					segs = append(segs, sp.Seg)
				}
			}
		}
	}
	sort.Ints(segs)
	return segs
}

// TestDirectDispatchReadEquality is the on/off battery: every read returns
// the same rows with Config.DirectDispatch on and off, whether its key is
// pinned (one segment) or not (the gang).
func TestDirectDispatchReadEquality(t *testing.T) {
	_, on := directEngine(t, true)
	_, off := directEngine(t, false)
	i := func(v int64) types.Datum { return types.NewInt(v) }
	cases := []struct {
		q      string
		params []types.Datum
	}{
		{"SELECT val FROM kv WHERE id = 7", nil},
		{"SELECT val FROM kv WHERE 7 = id", nil},
		{"SELECT val FROM kv WHERE id = 7.0", nil},
		{"SELECT val FROM kv WHERE id = 7.5", nil},
		{"SELECT val FROM kv WHERE id = NULL", nil},
		{"SELECT val FROM kv WHERE id = 999", nil},
		{"SELECT val, pad FROM kv WHERE id = $1", []types.Datum{i(8)}},
		{"SELECT val FROM kv WHERE id = $1", []types.Datum{types.NewFloat(8)}},
		{"SELECT val FROM kv WHERE id = $1", []types.Datum{types.NewText("8")}},
		{"SELECT val FROM kv WHERE id = $1", []types.Datum{types.Null}},
		{"SELECT v FROM fl WHERE x = 9", nil},
		{"SELECT v FROM fl WHERE x = $1", []types.Datum{i(9)}},
		{"SELECT v FROM two WHERE a = 3 AND b = 2", nil},
		{"SELECT v FROM two WHERE a = $1 AND b = $2", []types.Datum{i(3), i(2)}},
		{"SELECT v FROM two WHERE a = 3", nil},
		{"SELECT v FROM two WHERE b = $1", []types.Datum{i(2)}},
		{"SELECT val FROM kv WHERE id IN (3, 4, 5)", nil},
		{"SELECT val FROM kv WHERE id IN ($1, $2)", []types.Datum{i(3), i(4)}},
		{"SELECT val FROM kv WHERE id >= 10 AND id < 14", nil},
		{"SELECT val FROM kv WHERE id BETWEEN $1 AND $2", []types.Datum{i(10), i(13)}},
		{"SELECT amt FROM sales WHERE id = 5", nil},
		{"SELECT amt FROM sales WHERE id = 5 AND d = 35", nil},
		{"SELECT amt FROM sales WHERE id = $1 AND d >= $2", []types.Datum{i(5), i(100)}},
		{"SELECT v FROM rep WHERE id = 5", nil},
		{"SELECT v FROM rep WHERE id = $1", []types.Datum{i(5)}},
		{"SELECT v FROM rnd WHERE id = 5", nil},
		{"SELECT v FROM rnd WHERE id = $1", []types.Datum{i(5)}},
		{"SELECT count(*), sum(val), min(pad) FROM kv WHERE id = 7", nil},
		{"SELECT count(*), sum(val) FROM kv WHERE id = 999", nil},
		{"SELECT a, count(*), sum(v) FROM two WHERE a = $1 AND b = $2 GROUP BY a", []types.Datum{i(3), i(2)}},
		{"SELECT v FROM two WHERE a = 3 AND b = 2 ORDER BY v DESC LIMIT 1", nil},
		{"SELECT v FROM two WHERE a = $1 AND b = $2 ORDER BY v LIMIT $3 OFFSET $4", []types.Datum{i(3), i(2), i(1), i(1)}},
		{"SELECT DISTINCT a FROM two WHERE a = 3 AND b = 2", nil},
		{"SELECT val FROM kv WHERE id = 7 FOR UPDATE", nil},
		{"SELECT k.val, t.v FROM kv k JOIN two t ON k.id = t.v WHERE k.id = $1", []types.Datum{i(7)}},
	}
	for _, tc := range cases {
		want := sortedRows(mustExec(t, off, tc.q, tc.params...))
		// Twice: the second run instantiates the cached plan.
		for run := 0; run < 2; run++ {
			if got := sortedRows(mustExec(t, on, tc.q, tc.params...)); got != want {
				t.Errorf("%s %v run %d: direct dispatch on:\n%s\noff:\n%s", tc.q, tc.params, run, got, want)
			}
		}
	}
}

// TestDirectReadForUpdateLocks: a FOR UPDATE read dispatched to one segment
// still takes its row lock there — a conflicting UPDATE from another session
// blocks until the reader commits, and while it waits the wait-for graph the
// global deadlock detector collects holds the edge on that segment.
func TestDirectReadForUpdateLocks(t *testing.T) {
	e, _ := directEngine(t, true)
	k0 := keyOnSegment(4, 0) // among the loaded keys
	forUpdate := fmt.Sprintf("SELECT val FROM kv WHERE id = %d FOR UPDATE", k0)
	sa, _ := e.NewSession("")
	sb, _ := e.NewSession("")
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	if segs := sliceSegments(t, e, sa, forUpdate); len(segs) != 1 || segs[0] != 0 {
		t.Fatalf("FOR UPDATE read of a segment-0 key ran on segments %v", segs)
	}
	mustExec(t, sa, "BEGIN")
	mustExec(t, sb, "BEGIN")
	mustExec(t, sa, forUpdate)
	holder, waiter := sa.txn.Owner(), sb.txn.Owner()
	stB := goExec(sb, fmt.Sprintf("UPDATE kv SET val = val + 1 WHERE id = %d", k0))
	if !stB.blocked(t, 50*time.Millisecond) {
		t.Fatal("UPDATE of a row locked by a direct-dispatched FOR UPDATE read did not block")
	}
	found := false
	for _, lg := range e.Cluster().CollectWaitGraphs().Locals {
		for _, edge := range lg.Edges {
			found = found || (lg.Segment == 0 && edge.Waiter == waiter && edge.Holder == holder)
		}
	}
	if !found {
		t.Fatal("the wait-for graph has no edge from the blocked UPDATE to the FOR UPDATE reader on segment 0")
	}
	mustExec(t, sa, "COMMIT")
	if err := stB.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mustExec(t, sb, "COMMIT")
}

// TestParamPlanReuse: one parameterised text is planned once, every later
// execution is a plan hit that returns its own key's rows from its own
// key's segment, and anything that changes the right plan re-plans.
func TestParamPlanReuse(t *testing.T) {
	e, s := directEngine(t, true)
	const q = "SELECT val FROM kv WHERE id = $1"
	delta := func(f func()) (hits, misses int64) {
		before := e.Metrics().Snapshot()
		f()
		d := e.Metrics().Snapshot().Delta(before)
		return d["plancache.plan_hits"], d["plancache.plan_misses"]
	}
	read := func(k int64) {
		t.Helper()
		res := mustExec(t, s, q, types.NewInt(k))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != k*10 {
			t.Fatalf("key %d read %v", k, res.Rows)
		}
	}
	if hits, misses := delta(func() { read(1) }); hits != 0 || misses != 1 {
		t.Fatalf("cold: %d hits/%d misses, want 0/1", hits, misses)
	}
	for k := int64(2); k <= 30; k++ {
		if hits, misses := delta(func() { read(k) }); hits != 1 || misses != 0 {
			t.Fatalf("key %d: %d hits/%d misses, want 1/0", k, hits, misses)
		}
	}
	for k := 31; k <= 36; k++ {
		want := types.Bucket(types.Row{types.NewInt(int64(k))}.HashKey(), 4)
		if segs := sliceSegments(t, e, s, q, types.NewInt(int64(k))); len(segs) != 1 || segs[0] != want {
			t.Fatalf("key %d ran on segments %v, its rows live on %d", k, segs, want)
		}
	}
	// UPDATE and DELETE share the mechanism.
	const upd = "UPDATE kv SET val = val + $1 WHERE id = $2"
	mustExec(t, s, upd, types.NewInt(0), types.NewInt(1))
	if hits, misses := delta(func() { mustExec(t, s, upd, types.NewInt(5), types.NewInt(2)) }); hits != 1 || misses != 0 {
		t.Fatalf("second UPDATE: %d hits/%d misses, want 1/0", hits, misses)
	}
	if got := mustExec(t, s, q, types.NewInt(2)).Rows[0][0].Int(); got != 25 {
		t.Fatalf("key 2 after UPDATE = %d, want 25", got)
	}
	mustExec(t, s, upd, types.NewInt(-5), types.NewInt(2))

	// A parameter of another kind must not reuse the int plan (and its
	// kind-dependent binding): text never equals an int key.
	if hits, misses := delta(func() {
		if res := mustExec(t, s, q, types.NewText("3")); len(res.Rows) != 0 {
			t.Fatalf("text parameter matched int keys: %v", res.Rows)
		}
	}); hits != 0 || misses != 1 {
		t.Fatalf("kind change: %d hits/%d misses, want 0/1", hits, misses)
	}
	const byDay = "SELECT count(*) FROM kv WHERE pad = $1"
	mustExec(t, s, byDay, types.NewText("pad"))
	if _, misses := delta(func() { mustExec(t, s, byDay, types.NewInt(1)) }); misses != 1 {
		t.Fatalf("int after text parameter: %d misses, want 1", misses)
	}
	read(3) // the int plan is still cached beside the text one
	for _, invalidate := range []string{
		"CREATE TABLE unrelated (x int) DISTRIBUTED BY (x)",
		"ANALYZE",
		"SET optimizer = orca",
	} {
		mustExec(t, s, invalidate)
		if hits, misses := delta(func() { read(4) }); hits != 0 || misses != 1 {
			t.Fatalf("after %s: %d hits/%d misses, want a re-plan", invalidate, hits, misses)
		}
	}
	// Under the cost-based optimizer the values shape the plan: every
	// execution of a parameterised statement plans afresh.
	if hits, _ := delta(func() { read(5); read(6) }); hits != 0 {
		t.Fatalf("cost-based parameterised statement took %d plan hits", hits)
	}
	res := mustExec(t, s, "SHOW plan_cache")
	shown := map[string]int64{}
	for _, r := range res.Rows {
		shown[r[0].String()] = r[1].Int()
	}
	st := e.Metrics().Snapshot().Values
	if hits := st["plancache.plan_hits"]; shown["plan_hits"] != hits || shown["plan_misses"] != st["plancache.plan_misses"] || hits < 30 {
		t.Fatalf("SHOW plan_cache %v vs plan_hits %d, plan_misses %d", shown, hits, st["plancache.plan_misses"])
	}
}

// TestExpandCachedTemplateFence: a template cached before an online
// expansion never routes by the old width — after the flip the statement
// either re-plans at the new width or fails with the retryable stale-map
// error; every read that succeeds returns its key's row, and every row an
// INSERT template stores is found by a point read of its key.
func TestExpandCachedTemplateFence(t *testing.T) {
	e, s := newTestEngine(t, 2)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE ek (id int, val int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE INDEX ek_id ON ek (id)")
	var rows []string
	for i := 1; i <= 400; i++ {
		rows = append(rows, fmt.Sprintf("(%d,%d)", i, i*10))
	}
	mustExec(t, s, "INSERT INTO ek VALUES "+strings.Join(rows, ","))
	const q = "SELECT val FROM ek WHERE id = $1"
	const upd = "UPDATE ek SET val = val WHERE id = $1"
	const ins = "INSERT INTO ek VALUES ($1, $2)"
	mustExec(t, s, q, types.NewInt(1)) // cache the templates at width 2
	mustExec(t, s, upd, types.NewInt(1))
	next := int64(1000) // the last key inserted
	mustExec(t, s, ins, types.NewInt(next), types.NewInt(next*10))
	inserted := []int64{next}
	mustExec(t, s, "ALTER SYSTEM EXPAND TO 4")
	stale := 0
	for round := 0; round < 4; round++ {
		if round == 2 {
			if err := e.Cluster().WaitExpand(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(1); k <= 400; k++ {
			for _, text := range []string{q, upd, ins} {
				params := []types.Datum{types.NewInt(k)}
				if text == ins {
					next++
					params = []types.Datum{types.NewInt(next), types.NewInt(next * 10)}
				}
				res, err := s.Exec(ctx, text, params...)
				var sde *cluster.StaleDistMapError
				switch {
				case errors.As(err, &sde):
					stale++
				case err != nil:
					t.Fatalf("round %d key %d %s: %v", round, k, text, err)
				case text == q && (len(res.Rows) != 1 || res.Rows[0][0].Int() != k*10):
					t.Fatalf("round %d key %d read %v: routed by a stale width", round, k, res.Rows)
				case text == upd && res.RowsAffected != 1:
					t.Fatalf("round %d key %d updated %d rows: routed by a stale width", round, k, res.RowsAffected)
				case text == ins && res.RowsAffected != 1:
					t.Fatalf("round %d key %d inserted %d rows", round, next, res.RowsAffected)
				case text == ins:
					inserted = append(inserted, next)
				}
			}
		}
	}
	if n := e.Cluster().SegCount(); n != 4 {
		t.Fatalf("cluster has %d segments after expansion", n)
	}
	// A row the cached INSERT stored is where a point read of its key looks.
	for _, k := range inserted {
		if res := mustExec(t, s, q, types.NewInt(k)); len(res.Rows) != 1 || res.Rows[0][0].Int() != k*10 {
			t.Fatalf("inserted key %d reads %v: routed by a stale width", k, res.Rows)
		}
	}
	if n := mustExec(t, s, "SELECT count(*) FROM ek WHERE id >= 1000").Rows[0][0].Int(); n != int64(len(inserted)) {
		t.Fatalf("%d inserted rows stored, want %d", n, len(inserted))
	}
	t.Logf("%d statements hit the stale-map fence", stale)
}

// TestDirectReadFailover: a direct-dispatched read whose segment's primary
// is dead waits for the mirror's promotion and succeeds; inside a
// transaction that had written that segment it fails with ErrTxnLostWrites.
func TestDirectReadFailover(t *testing.T) {
	e, s := newReplicatedEngine(t, 4, cluster.ReplicaSync)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE fk (id int, val int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE INDEX fk_id ON fk (id)")
	for i := 1; i <= 80; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO fk VALUES (%d, %d)", i, i*10))
	}
	const q = "SELECT val FROM fk WHERE id = $1"
	victim := 2
	k := int64(keyOnSegment(4, victim))
	mustExec(t, s, q, types.NewInt(k)) // cached
	if segs := sliceSegments(t, e, s, q, types.NewInt(k)); len(segs) != 1 || segs[0] != victim {
		t.Fatalf("key %d ran on segments %v, want only %d", k, segs, victim)
	}
	if err := e.Cluster().KillSegment(victim); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, s, q, types.NewInt(k))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != k*10 {
		t.Fatalf("read across the failover returned %v", res.Rows)
	}
	if n := metric(e.Metrics(), "fts.failovers"); n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
	if err := e.Cluster().Recover(victim); err != nil {
		t.Fatal(err)
	}

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE fk SET val = 0 WHERE id = $1", types.NewInt(k))
	if err := e.Cluster().KillSegment(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, q, types.NewInt(k)); !errors.Is(err, cluster.ErrTxnLostWrites) {
		t.Fatalf("read after the transaction's writes died: %v, want ErrTxnLostWrites", err)
	}
	mustExec(t, s, "ROLLBACK")
	if got := mustExec(t, s, q, types.NewInt(k)).Rows[0][0].Int(); got != k*10 {
		t.Fatalf("after rollback key %d = %d, want %d", k, got, k*10)
	}
}

// TestPointSelectAllocations is the allocation gate: cached point statements
// on a 4-segment engine stay one-segment statements — no gang, no
// interconnect, no batch-size containers for one row, and a write runs
// inline in the session's goroutine — and run through the session's plan
// instance, so they re-bind, re-build and re-allocate none of their plan,
// operators, dispatch state or storage access, nor of their transaction,
// which the session reuses with its lock owners. What is left is the
// result and its rows, and a write's bookkeeping.
func TestPointSelectAllocations(t *testing.T) {
	_, s := directEngine(t, true)
	ctx := context.Background()
	var doomed []string // keys the DELETE gate removes, one per run
	for i := 1001; i <= 1500; i++ {
		doomed = append(doomed, fmt.Sprintf("(%d,%d,'pad')", i, i))
	}
	mustExec(t, s, "INSERT INTO kv VALUES "+strings.Join(doomed, ","))
	k, d := int64(0), int64(1000)
	perRun := func(q string, params func() []types.Datum) float64 {
		run := func() {
			k = k%60 + 1
			if res, err := s.Exec(ctx, q, params()...); err != nil || !strings.HasPrefix(q, "SELECT") && res.RowsAffected != 1 {
				t.Fatal(q, err)
			}
		}
		run()
		return testing.AllocsPerRun(400, run)
	}
	sel := perRun("SELECT val FROM kv WHERE id = $1", func() []types.Datum { return []types.Datum{types.NewInt(k)} })
	upd := perRun("UPDATE kv SET val = val + $1 WHERE id = $2", func() []types.Datum { return []types.Datum{types.NewInt(1), types.NewInt(k)} })
	del := perRun("DELETE FROM kv WHERE id = $1", func() []types.Datum { d++; return []types.Datum{types.NewInt(d)} })
	ins := perRun("INSERT INTO kv VALUES ($1, $2, 'pad')", func() []types.Datum { d++; return []types.Datum{types.NewInt(d), types.NewInt(d)} })
	t.Logf("allocations per statement: SELECT %.1f, UPDATE %.1f, DELETE %.1f, INSERT %.1f", sel, upd, del, ins)
	if sel > 9 || sel > 1.5*upd {
		t.Fatalf("point SELECT allocates %.1f times per statement (UPDATE %.1f): want <= 9 and <= 1.5x the UPDATE", sel, upd)
	}
	if upd > 8 || del > 7 || ins > 7 {
		t.Fatalf("point UPDATE allocates %.1f, DELETE %.1f and INSERT %.1f times per statement: want <= 8, <= 7 and <= 7", upd, del, ins)
	}
}
