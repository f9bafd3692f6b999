package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/types"
)

// metric reads one registry series by its dotted name (0 when absent).
func metric(r *obs.Registry, name string) int64 {
	v, _ := r.Value(name)
	return v
}

func newTestEngine(t *testing.T, nseg int) (*Engine, *Session) {
	t.Helper()
	cfg := cluster.GPDB6(nseg)
	cfg.GDDPeriod = 5e6 // 5ms
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return e, s
}

func mustExec(t *testing.T, s *Session, q string, params ...types.Datum) *Result {
	t.Helper()
	res, err := s.Exec(context.Background(), q, params...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func TestBasicCRUD(t *testing.T) {
	_, s := newTestEngine(t, 3)
	ctx := context.Background()

	mustExec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")

	res := mustExec(t, s, "SELECT c1, c2 FROM t ORDER BY c1")
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4: %v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].Int() != 1 || res.Rows[3][1].Int() != 40 {
		t.Fatalf("bad rows: %v", res.Rows)
	}

	res = mustExec(t, s, "UPDATE t SET c2 = c2 + 1 WHERE c1 = 2")
	if res.RowsAffected != 1 {
		t.Fatalf("update affected %d, want 1", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT c2 FROM t WHERE c1 = 2")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 21 {
		t.Fatalf("after update: %v", res.Rows)
	}

	res = mustExec(t, s, "DELETE FROM t WHERE c1 >= 3")
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count after delete: %v", res.Rows)
	}
	_ = ctx
}

func TestJoinAcrossSegments(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE student (id int, name text) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE class (id int, name text) DISTRIBUTED RANDOMLY")
	for i := 1; i <= 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO student VALUES (%d, 's%d')", i, i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO class VALUES (%d, 'c%d')", i, i))
	}
	res := mustExec(t, s, "SELECT s.id, s.name, c.name FROM student s JOIN class c ON s.id = c.id ORDER BY s.id")
	if len(res.Rows) != 20 {
		t.Fatalf("join rows = %d, want 20", len(res.Rows))
	}
	if res.Rows[4][1].Text() != "s5" || res.Rows[4][2].Text() != "c5" {
		t.Fatalf("bad join row: %v", res.Rows[4])
	}
}

func TestAggregation(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE sales (id int, region text, amt float) DISTRIBUTED BY (id)")
	regions := []string{"east", "west"}
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO sales VALUES (%d, '%s', %d.5)", i, regions[i%2], i))
	}
	res := mustExec(t, s, "SELECT region, count(*), sum(amt), avg(amt), min(amt), max(amt) FROM sales GROUP BY region ORDER BY region")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	east := res.Rows[0]
	if east[0].Text() != "east" || east[1].Int() != 15 {
		t.Fatalf("east row: %v", east)
	}
	// east amts: 0.5, 2.5, ..., 28.5 → sum = 15*0.5 + 2*(0+1+..14) = 7.5+210 = 217.5
	if east[2].Float() != 217.5 {
		t.Fatalf("east sum = %v, want 217.5", east[2])
	}
	if east[4].Float() != 0.5 || east[5].Float() != 28.5 {
		t.Fatalf("east min/max: %v", east)
	}
}

func TestExplicitTransactionRollback(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 1)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE t SET c2 = 99 WHERE c1 = 1")
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT c2 FROM t WHERE c1 = 1")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("rollback did not undo update: %v", res.Rows)
	}
}

func TestSnapshotIsolationBetweenSessions(t *testing.T) {
	e, s1 := newTestEngine(t, 2)
	s2, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustExec(t, s1, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, s1, "INSERT INTO t VALUES (1, 1)")

	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE t SET c2 = 42 WHERE c1 = 1")

	// Uncommitted change must be invisible to session 2.
	res, err := s2.Exec(ctx, "SELECT c2 FROM t WHERE c1 = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("dirty read: %v", res.Rows)
	}

	mustExec(t, s1, "COMMIT")
	res, err = s2.Exec(ctx, "SELECT c2 FROM t WHERE c1 = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("committed change invisible: %v", res.Rows)
	}
}

func TestInsertSelect(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE a (c1 int, c2 int) DISTRIBUTED BY (c1)")
	mustExec(t, s, "CREATE TABLE b (c1 int, c2 int) DISTRIBUTED BY (c1)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO a VALUES (%d, %d)", i, i*i))
	}
	res := mustExec(t, s, "INSERT INTO b SELECT c1, c2 FROM a WHERE c1 < 5")
	if res.RowsAffected != 5 {
		t.Fatalf("insert-select affected %d, want 5", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT count(*) FROM b")
	if res.Rows[0][0].Int() != 5 {
		t.Fatalf("b count: %v", res.Rows)
	}
}

func TestParams(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (c1 int, c2 text) DISTRIBUTED BY (c1)")
	mustExec(t, s, "INSERT INTO t VALUES ($1, $2)", types.NewInt(7), types.NewText("seven"))
	res := mustExec(t, s, "SELECT c2 FROM t WHERE c1 = $1", types.NewInt(7))
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "seven" {
		t.Fatalf("param roundtrip: %v", res.Rows)
	}
}

func TestExplain(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)")
	res := mustExec(t, s, "EXPLAIN SELECT * FROM t WHERE c2 > 5")
	if len(res.Rows) == 0 {
		t.Fatal("empty explain")
	}
	found := false
	for _, r := range res.Rows {
		if containsStr(r[0].Text(), "Gather Motion") {
			found = true
		}
	}
	if !found {
		t.Fatalf("explain lacks gather motion: %v", res.Rows)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
