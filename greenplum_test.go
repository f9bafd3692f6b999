package greenplum

import (
	"context"
	"testing"
	"time"

	"repro/internal/types"
)

func openTest(t *testing.T, opts Options) (*DB, *Conn) {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	conn, err := db.Connect("")
	if err != nil {
		t.Fatal(err)
	}
	return db, conn
}

func TestPublicAPIQuickstart(t *testing.T) {
	db, conn := openTest(t, Options{Segments: 4})
	ctx := context.Background()

	steps := []string{
		`CREATE TABLE t (a int, b text) DISTRIBUTED BY (a)`,
		`INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`,
	}
	for _, q := range steps {
		if _, err := conn.Exec(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	res, err := conn.Query(ctx, `SELECT a, b FROM t WHERE a >= $1 ORDER BY a`, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Text() != "two" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Fatalf("columns: %v", res.Columns)
	}

	v, err := conn.QueryScalar(ctx, `SELECT count(*) FROM t`)
	if err != nil || v.Int() != 3 {
		t.Fatalf("scalar: %v %v", v, err)
	}

	if err := conn.Begin(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx, `DELETE FROM t WHERE a = 1`); err != nil {
		t.Fatal(err)
	}
	if err := conn.Rollback(ctx); err != nil {
		t.Fatal(err)
	}
	v, _ = conn.QueryScalar(ctx, `SELECT count(*) FROM t`)
	if v.Int() != 3 {
		t.Fatalf("rollback lost rows: %v", v)
	}

	if n := db.MetricValue("txn.commits_readonly"); n == 0 {
		t.Fatalf("txn.commits_readonly = %d after read-only statements", n)
	}
}

func TestPublicAPIModes(t *testing.T) {
	db5, _ := openTest(t, Options{Segments: 2, Mode: ModeGPDB5})
	db6, _ := openTest(t, Options{Segments: 2, Mode: ModeGPDB6})
	if db5.Engine().Cluster().Config().GDD {
		t.Fatal("GPDB5 preset must disable GDD")
	}
	if !db6.Engine().Cluster().Config().GDD {
		t.Fatal("GPDB6 preset must enable GDD")
	}
}

func TestPublicAPIResourceGroups(t *testing.T) {
	_, conn := openTest(t, Options{Segments: 2, Cores: 4})
	ctx := context.Background()
	script := `
CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=10, MEMORY_LIMIT=35, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=20);
CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, MEMORY_SHARED_QUOTA=20, CPU_RATE_LIMIT=60);
CREATE ROLE dev1 RESOURCE GROUP olap_group;
ALTER ROLE dev1 RESOURCE GROUP oltp_group;
`
	if err := conn.ExecScript(ctx, script); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExplainAndOptimizer(t *testing.T) {
	_, conn := openTest(t, Options{Segments: 2})
	ctx := context.Background()
	if _, err := conn.Exec(ctx, `CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)`); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query(ctx, `EXPLAIN SELECT * FROM t WHERE b > 1`)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("explain: %v %v", res, err)
	}
	if err := conn.SetOptimizer("bogus"); err == nil {
		t.Fatal("bogus optimizer accepted")
	}
}

func TestPublicAPIPolymorphicPartitions(t *testing.T) {
	_, conn := openTest(t, Options{Segments: 3})
	ctx := context.Background()
	// The paper's Figure 5 table: recent partitions heap, older AO-column.
	ddl := `
CREATE TABLE sales (id int, sdate date, amt float)
DISTRIBUTED BY (id)
PARTITION BY RANGE (sdate) (
	PARTITION recent START ('2021-06-01') END ('2021-09-01'),
	PARTITION older  START ('2021-01-01') END ('2021-06-01') WITH (appendonly=true, orientation=column)
)`
	if _, err := conn.Exec(ctx, ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec(ctx,
		`INSERT INTO sales VALUES (1, '2021-07-15', 10.5), (2, '2021-02-03', 20.25), (3, '2021-08-01', 5.0)`); err != nil {
		t.Fatal(err)
	}
	v, err := conn.QueryScalar(ctx, `SELECT sum(amt) FROM sales WHERE sdate >= '2021-06-01'`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 15.5 {
		t.Fatalf("partition-pruned sum = %v", v)
	}
	// Out-of-range insert fails cleanly.
	if _, err := conn.Exec(ctx, `INSERT INTO sales VALUES (4, '2022-01-01', 1.0)`); err == nil {
		t.Fatal("insert outside partitions accepted")
	}
}

func TestPublicAPIDeadlockSurface(t *testing.T) {
	db, admin := openTest(t, Options{Segments: 2, GDDPeriod: 5 * time.Millisecond})
	ctx := context.Background()
	if _, err := admin.Exec(ctx, `CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)`); err != nil {
		t.Fatal(err)
	}
	// Find keys on different segments.
	k := []int{-1, -1}
	for i := 1; i < 1000 && (k[0] < 0 || k[1] < 0); i++ {
		seg := types.Bucket(types.Row{Int(int64(i))}.HashKey(), 2)
		if k[seg] < 0 {
			k[seg] = i
		}
	}
	if _, err := admin.Exec(ctx, `INSERT INTO t VALUES ($1, 0), ($2, 0)`, Int(int64(k[0])), Int(int64(k[1]))); err != nil {
		t.Fatal(err)
	}
	c1, _ := db.Connect("")
	c2, _ := db.Connect("")
	_ = c1.Begin(ctx)
	_ = c2.Begin(ctx)
	if _, err := c1.Exec(ctx, `UPDATE t SET b = 1 WHERE a = $1`, Int(int64(k[0]))); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec(ctx, `UPDATE t SET b = 2 WHERE a = $1`, Int(int64(k[1]))); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		_, err := c2.Exec(ctx, `UPDATE t SET b = 2 WHERE a = $1`, Int(int64(k[0])))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	go func() {
		_, err := c1.Exec(ctx, `UPDATE t SET b = 1 WHERE a = $1`, Int(int64(k[1])))
		done <- err
	}()
	var failures int
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				failures++
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if failures != 1 {
		t.Fatalf("expected exactly one deadlock victim, got %d failures", failures)
	}
	if n := db.MetricValue("txn.deadlock_victims"); n != 1 {
		t.Fatalf("txn.deadlock_victims = %d, want 1", n)
	}
	_ = c1.Rollback(ctx)
	_ = c2.Rollback(ctx)
}
