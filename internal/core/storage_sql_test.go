package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

func TestAppendOptimizedTablesViaSQL(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE ao (a int, b text) WITH (appendonly=true) DISTRIBUTED BY (a)")
	mustExec(t, s, "CREATE TABLE aoc (a int, b text) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ao VALUES (%d, 'r%d')", i, i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO aoc VALUES (%d, 'r%d')", i, i))
	}
	for _, tbl := range []string{"ao", "aoc"} {
		res := mustExec(t, s, "SELECT count(*), min(a), max(a) FROM "+tbl)
		r := res.Rows[0]
		if r[0].Int() != 50 || r[1].Int() != 0 || r[2].Int() != 49 {
			t.Fatalf("%s aggregates: %v", tbl, r)
		}
	}
	// AO tables support DELETE via the visibility map and UPDATE as
	// delete+insert.
	res := mustExec(t, s, "DELETE FROM ao WHERE a < 10")
	if res.RowsAffected != 10 {
		t.Fatalf("ao delete: %d", res.RowsAffected)
	}
	res = mustExec(t, s, "UPDATE aoc SET b = 'updated' WHERE a = 20")
	if res.RowsAffected != 1 {
		t.Fatalf("aoc update: %d", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT b FROM aoc WHERE a = 20")
	if res.Rows[0][0].Text() != "updated" {
		t.Fatalf("aoc row after update: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT count(*) FROM ao")
	if res.Rows[0][0].Int() != 40 {
		t.Fatalf("ao count after delete: %v", res.Rows)
	}
}

func TestSelectForUpdateBlocksWriters(t *testing.T) {
	e, s1 := newTestEngine(t, 2)
	s2, _ := e.NewSession("")
	mustExec(t, s1, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s1, "INSERT INTO t VALUES (1, 1), (2, 2)")

	mustExec(t, s1, "BEGIN")
	res := mustExec(t, s1, "SELECT * FROM t WHERE a = 1 FOR UPDATE")
	if len(res.Rows) != 1 {
		t.Fatalf("for update rows: %v", res.Rows)
	}
	// A concurrent update of the locked row must block until commit.
	st := goExec(s2, "UPDATE t SET b = 99 WHERE a = 1")
	if !st.blocked(t, 80*time.Millisecond) {
		t.Fatal("FOR UPDATE did not block the writer")
	}
	mustExec(t, s1, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// A different row is never blocked.
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "SELECT * FROM t WHERE a = 1 FOR UPDATE")
	st2 := goExec(s2, "UPDATE t SET b = 5 WHERE a = 2")
	if err := st2.wait(t, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s1, "COMMIT")
}

func TestReadCommittedSeesNewDataPerStatement(t *testing.T) {
	e, s1 := newTestEngine(t, 2)
	s2, _ := e.NewSession("")
	mustExec(t, s1, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s1, "INSERT INTO t VALUES (1, 1)")

	mustExec(t, s1, "BEGIN")
	res := mustExec(t, s1, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("initial count")
	}
	// Another session commits a row mid-transaction.
	mustExec(t, s2, "INSERT INTO t VALUES (2, 2)")
	// Read committed: the next statement takes a fresh snapshot and sees it.
	res = mustExec(t, s1, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("read-committed statement did not see the new commit: %v", res.Rows)
	}
	mustExec(t, s1, "COMMIT")
}

func TestVacuumViaSQL(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 0), (2, 0)")
	for i := 0; i < 3; i++ {
		mustExec(t, s, "UPDATE t SET b = b + 1")
	}
	res := mustExec(t, s, "VACUUM t")
	if res.RowsAffected != 6 { // 2 rows × 3 superseded versions
		t.Fatalf("vacuum reclaimed %d, want 6", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT sum(b) FROM t")
	if res.Rows[0][0].Int() != 6 {
		t.Fatalf("data after vacuum: %v", res.Rows)
	}
}

func TestErrTxnAbortedStateMachine(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "BEGIN")
	// A failing statement poisons the block.
	if _, err := s.Exec(context.Background(), "SELECT * FROM missing"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := s.Exec(context.Background(), "SELECT 1"); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("poisoned txn error: %v", err)
	}
	// COMMIT of a failed block is a rollback; afterwards all is well.
	res := mustExec(t, s, "COMMIT")
	if res.Tag != "ROLLBACK" {
		t.Fatalf("commit tag: %s", res.Tag)
	}
	mustExec(t, s, "SELECT 1")
}

func TestResourceGroupAdmissionViaSQL(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	mustExec(t, admin, "CREATE RESOURCE GROUP tiny WITH (CONCURRENCY=1, MEMORY_LIMIT=10, CPU_RATE_LIMIT=10)")
	mustExec(t, admin, "CREATE ROLE worker RESOURCE GROUP tiny")
	mustExec(t, admin, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")

	s1, _ := e.NewSession("worker")
	s2, _ := e.NewSession("worker")
	s1.UseResourceGroup(true, 0)
	s2.UseResourceGroup(true, 0)

	mustExec(t, s1, "BEGIN")
	// The second worker session cannot be admitted while the first holds
	// the group's only concurrency slot.
	st := goExec(s2, "SELECT 1")
	if !st.blocked(t, 80*time.Millisecond) {
		t.Fatal("CONCURRENCY=1 did not gate the second session")
	}
	mustExec(t, s1, "COMMIT")
	if err := st.wait(t, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctAndHaving(t *testing.T) {
	_, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	for i := 0; i < 30; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%3))
	}
	res := mustExec(t, s, "SELECT DISTINCT b FROM t ORDER BY b")
	if len(res.Rows) != 3 {
		t.Fatalf("distinct: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT b, count(*) FROM t GROUP BY b HAVING count(*) > 9 ORDER BY b")
	if len(res.Rows) != 3 {
		t.Fatalf("having (all groups have 10): %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT b, count(DISTINCT a) FROM t GROUP BY b ORDER BY b")
	if len(res.Rows) != 3 || res.Rows[0][1].Int() != 10 {
		t.Fatalf("count distinct: %v", res.Rows)
	}
}

func TestLeftJoinViaSQL(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE l (id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE r (id int, w int) DISTRIBUTED BY (id)")
	mustExec(t, s, "INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, s, "INSERT INTO r VALUES (1, 100), (3, 300)")
	res := mustExec(t, s, "SELECT l.id, r.w FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.id")
	if len(res.Rows) != 3 {
		t.Fatalf("left join rows: %v", res.Rows)
	}
	if !res.Rows[1][1].IsNull() {
		t.Fatalf("unmatched row not null-extended: %v", res.Rows[1])
	}
}

func TestCaseExpressionViaSQL(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO t VALUES (-5), (0), (7)")
	res := mustExec(t, s, `
SELECT a, CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END AS sign
FROM t ORDER BY a`)
	want := []string{"neg", "zero", "pos"}
	for i, r := range res.Rows {
		if r[1].Text() != want[i] {
			t.Fatalf("case row %d: %v", i, r)
		}
	}
	// An int branch beside a float one comes back as a float.
	res = mustExec(t, s, "SELECT a, CASE WHEN a > 5 THEN 1 ELSE a * 0.5 END FROM t ORDER BY a")
	for i, f := range []float64{-2.5, 0, 1} {
		if r := res.Rows[i]; r[1].Kind() != types.KindFloat || r[1].Float() != f {
			t.Fatalf("mixed case row %d: %v, want float %v", i, r, f)
		}
	}
}
