package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT 1", "select 1"},
		{"  SELECT\n\t1  ;  ", "select 1"},
		{"select A, B from T where A = 1", "select a, b from t where a = 1"},
		// Literals keep their exact bytes — including case and whitespace.
		{"SELECT 'It''s  UPPER'", "select 'It''s  UPPER'"},
		{"SELECT 'a'  ||  'B'", "select 'a' || 'B'"},
		{"SELECT\r\n1", "select 1"},
	}
	for _, c := range cases {
		if got := normalizeSQL(c.in); got != c.want {
			t.Errorf("normalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Equivalent spellings share a cache key; different literals do not.
	if normalizeSQL("SELECT a FROM t") != normalizeSQL("select   a\nfrom T;") {
		t.Error("equivalent statements got different keys")
	}
	if normalizeSQL("SELECT 'x'") == normalizeSQL("SELECT 'X'") {
		t.Error("distinct literals collided")
	}
}

func TestStmtCacheParseReuse(t *testing.T) {
	e, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE pc (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO pc VALUES (1, 10), (2, 20)")

	reg := e.Metrics()
	base := metric(reg, "plancache.hits")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "SELECT b FROM pc WHERE a = 1")
	}
	if hits := metric(reg, "plancache.hits") - base; hits != 9 {
		t.Fatalf("10 identical statements: %d parse hits, want 9", hits)
	}
	// A second session shares the same cache.
	s2, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec2 := func(q string) {
		if _, err := s2.Exec(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	pre := metric(reg, "plancache.hits")
	mustExec2("SELECT b FROM pc WHERE a = 1")
	if metric(reg, "plancache.hits") != pre+1 {
		t.Fatal("cache not shared across sessions")
	}
	// Case/whitespace variants of the same statement share the entry.
	pre = metric(reg, "plancache.hits")
	mustExec2("select   B from PC where a = 1")
	if metric(reg, "plancache.hits") != pre+1 {
		t.Fatal("normalized variant missed the cache")
	}
}

// TestBulkInsertNotCached: a literal INSERT … VALUES is parsed (a parse
// miss) and run but not cached, so a bulk load does not pin its statements'
// ASTs; a parameterised INSERT and a repeated literal SELECT still are.
func TestBulkInsertNotCached(t *testing.T) {
	e, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE bl (a int, b int) DISTRIBUTED BY (a)")
	reg := e.Metrics()
	base := reg.Snapshot()
	for i := 0; i < 20; i++ {
		var rows []string
		for j := 0; j < 50; j++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", i*50+j, j))
		}
		mustExec(t, s, "INSERT INTO bl VALUES "+strings.Join(rows, ", "))
	}
	mustExec(t, s, "INSERT INTO bl VALUES (7, 7)") // the same text twice
	mustExec(t, s, "INSERT INTO bl VALUES (7, 7)")
	st := reg.Snapshot()
	if d := st.Delta(base); d["plancache.entries"] != 0 || d["plancache.misses"] != 22 || d["plancache.hits"] != 0 {
		t.Fatalf("literal INSERTs: entries %+d, misses %+d, hits %+d: want 22 more misses and no new entry",
			d["plancache.entries"], d["plancache.misses"], d["plancache.hits"])
	}
	for i := int64(0); i < 3; i++ {
		mustExec(t, s, "INSERT INTO bl VALUES ($1, $2)", types.NewInt(2000+i), types.NewInt(i))
		if got := mustExec(t, s, "SELECT b FROM bl WHERE a = 49").Rows; len(got) != 1 || got[0][0].Int() != 49 {
			t.Fatalf("SELECT: %v", got)
		}
	}
	if d := reg.Snapshot().Delta(st); d["plancache.entries"] != 2 || d["plancache.hits"] != 4 {
		t.Fatalf("parameterised INSERT and literal SELECT: entries %+d, hits %+d: want 2 new entries and 4 hits",
			d["plancache.entries"], d["plancache.hits"])
	}
	if n := mustExec(t, s, "SELECT count(*) FROM bl").Rows[0][0].Int(); n != 1005 {
		t.Fatalf("count = %d, want 1005", n)
	}
}

// TestPlanCacheInvalidation is the correctness satellite: cached plans must
// be dropped by ANALYZE, by DDL, and by planner-setting changes — each of
// which can change the right plan for the same SQL text.
func TestPlanCacheInvalidation(t *testing.T) {
	e, s := newTestEngine(t, 2)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE big (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s, "CREATE TABLE small (a int, c int) DISTRIBUTED BY (a)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i))
	}
	mustExec(t, s, "INSERT INTO small VALUES (1, 100), (2, 200)")

	const q = "SELECT count(*) FROM big, small WHERE big.a = small.a"
	planDelta := func(f func()) (hits, misses int64) {
		before := e.Metrics().Snapshot()
		f()
		d := e.Metrics().Snapshot().Delta(before)
		return d["plancache.plan_hits"], d["plancache.plan_misses"]
	}

	// Cold: one plan miss. Warm: pure plan hits.
	if _, misses := planDelta(func() { mustExec(t, s, q) }); misses != 1 {
		t.Fatalf("cold run: %d plan misses, want 1", misses)
	}
	if hits, misses := planDelta(func() { mustExec(t, s, q); mustExec(t, s, q) }); hits != 2 || misses != 0 {
		t.Fatalf("warm runs: %d hits/%d misses, want 2/0", hits, misses)
	}

	// ANALYZE bumps the epoch: the next execution must re-plan.
	mustExec(t, s, "ANALYZE")
	if hits, misses := planDelta(func() { mustExec(t, s, q) }); hits != 0 || misses != 1 {
		t.Fatalf("after ANALYZE: %d hits/%d misses, want 0/1", hits, misses)
	}

	// DDL bumps it too — via CREATE TABLE...
	mustExec(t, s, "CREATE TABLE unrelated (x int) DISTRIBUTED BY (x)")
	if _, misses := planDelta(func() { mustExec(t, s, q) }); misses != 1 {
		t.Fatalf("after CREATE TABLE: want a re-plan, got %d misses", misses)
	}
	// ...and DROP TABLE.
	mustExec(t, s, "DROP TABLE unrelated")
	if _, misses := planDelta(func() { mustExec(t, s, q) }); misses != 1 {
		t.Fatalf("after DROP TABLE: want a re-plan, got %d misses", misses)
	}

	// Planner settings are part of the key: flipping one re-plans, flipping
	// it back reuses the still-cached plan for the old fingerprint.
	mustExec(t, s, q) // warm current fingerprint
	mustExec(t, s, "SET optimizer = orca")
	if _, misses := planDelta(func() { mustExec(t, s, q) }); misses != 1 {
		t.Fatalf("after SET optimizer: want a re-plan, got %d misses", misses)
	}
	mustExec(t, s, "SET optimizer = postgres")
	if hits, _ := planDelta(func() { mustExec(t, s, q) }); hits != 1 {
		t.Fatal("flipping the setting back should hit the cached plan again")
	}

	// A parameterised INSERT is a cached template too: its second run hits,
	// and ANALYZE and DDL each cost it one re-plan.
	const ins = "INSERT INTO big VALUES ($1, $2)"
	insert := func(i int64) func() {
		return func() { mustExec(t, s, ins, types.NewInt(1000+i), types.NewInt(i)) }
	}
	if hits, misses := planDelta(insert(0)); hits != 0 || misses != 1 {
		t.Fatalf("cold INSERT: %d hits/%d misses, want 0/1", hits, misses)
	}
	if hits, misses := planDelta(insert(1)); hits != 1 || misses != 0 {
		t.Fatalf("warm INSERT: %d hits/%d misses, want 1/0", hits, misses)
	}
	mustExec(t, s, "ANALYZE")
	if hits, misses := planDelta(insert(2)); hits != 0 || misses != 1 {
		t.Fatalf("INSERT after ANALYZE: %d hits/%d misses, want 0/1", hits, misses)
	}
	mustExec(t, s, "CREATE TABLE unrelated (x int) DISTRIBUTED BY (x)")
	if hits, misses := planDelta(insert(3)); hits != 0 || misses != 1 {
		t.Fatalf("INSERT after CREATE TABLE: %d hits/%d misses, want 0/1", hits, misses)
	}
	if n := mustExec(t, s, "SELECT count(*) FROM big WHERE a >= 1000").Rows[0][0].Int(); n != 4 {
		t.Fatalf("%d rows from the cached INSERT, want 4", n)
	}

	// Correctness under DDL churn: drop and recreate a referenced table
	// with different contents — the cached plan must not resurrect stale
	// catalog state.
	res := mustExec(t, s, "SELECT count(*) FROM small")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("precondition: %v", res.Rows)
	}
	mustExec(t, s, "DROP TABLE small")
	mustExec(t, s, "CREATE TABLE small (a int, c int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO small VALUES (9, 900)")
	res = mustExec(t, s, "SELECT count(*) FROM small")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("stale plan after DROP/CREATE: %v", res.Rows)
	}
	if _, err := s.Exec(ctx, "SELECT c FROM dropped_table"); err == nil {
		t.Fatal("nonexistent table accepted")
	}
}

func TestPlanCacheEvictionAndDisable(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.PlanCacheSize = 4
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE TABLE ev (a int) DISTRIBUTED BY (a)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("SELECT a FROM ev WHERE a = %d", i))
	}
	st := e.Metrics().Snapshot().Values
	if n := st["plancache.entries"]; n > 4 {
		t.Fatalf("cache grew past capacity: %d entries", n)
	}
	if st["plancache.evictions"] == 0 {
		t.Fatal("no evictions despite overflow")
	}
}

func TestShowPlanCache(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE sh (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "SELECT a FROM sh")
	mustExec(t, s, "SELECT a FROM sh")
	res := mustExec(t, s, "SHOW plan_cache")
	if len(res.Rows) == 0 || len(res.Columns) == 0 {
		t.Fatal("SHOW plan_cache returned nothing")
	}
	found := false
	for _, row := range res.Rows {
		if row[0].String() == "hits" && row[1].Int() >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("SHOW plan_cache missing hit counter: %v", res.Rows)
	}
}
