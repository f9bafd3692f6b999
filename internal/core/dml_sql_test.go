package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/types"
)

// dmlEngines are the storage clauses the DML suites run every table over.
var dmlEngines = []struct{ name, with string }{
	{"heap", ""},
	{"aorow", " WITH (appendonly=true)"},
	{"aocol", " WITH (appendonly=true, orientation=column)"},
}

// TestDMLHalloween: a write finds every row it will write before it writes
// one, so an UPDATE without a WHERE, and one whose new versions still match
// its WHERE, change every row exactly once — on every engine, with and
// without an index on the table's key (which the new versions must enter).
func TestDMLHalloween(t *testing.T) {
	_, s := newTestEngine(t, 4)
	const n = 50
	for _, eng := range dmlEngines {
		for _, indexed := range []bool{false, true} {
			tab := fmt.Sprintf("hw_%s_%v", eng.name, indexed)
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k int, v int)%s DISTRIBUTED BY (k)", tab, eng.with))
			if indexed {
				mustExec(t, s, fmt.Sprintf("CREATE INDEX %s_k ON %s (k)", tab, tab))
			}
			var vals []string
			for k := 1; k <= n; k++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", k, k))
			}
			mustExec(t, s, "INSERT INTO "+tab+" VALUES "+strings.Join(vals, ", "))
			for i, q := range []string{"UPDATE %s SET v = v + 1", "UPDATE %s SET v = v + 1 WHERE v < 1000"} {
				q = fmt.Sprintf(q, tab)
				if got := mustExec(t, s, q).RowsAffected; got != n {
					t.Fatalf("%s: %d rows affected, want %d", q, got, n)
				}
				moved := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM %s WHERE v = k + %d", tab, i+1)).Rows[0][0].Int()
				total := mustExec(t, s, "SELECT count(*) FROM "+tab).Rows[0][0].Int()
				if moved != n || total != n {
					t.Fatalf("%s: %d of %d rows moved by exactly one step, want %d of %d", q, moved, total, n, n)
				}
			}
			// A point write finds its row through the new versions' index
			// entries when there is an index.
			if got := mustExec(t, s, "UPDATE "+tab+" SET v = v + 1 WHERE k = 7").RowsAffected; got != 1 {
				t.Fatalf("%s: point UPDATE affected %d rows", tab, got)
			}
			if got := mustExec(t, s, "SELECT v FROM "+tab+" WHERE k = 7").Rows[0][0].Int(); got != 10 {
				t.Fatalf("%s: key 7 holds v = %d after three updates, want 10", tab, got)
			}
		}
	}
}

// TestDMLRejectsKeyColumnUpdate: a new row version is stored where its old
// version lives, so a SET of a distribution-key or partition-key column —
// which would leave the row where its new key no longer routes — is
// refused at plan time, naming the column. Columns no key routes by stay
// writable.
func TestDMLRejectsKeyColumnUpdate(t *testing.T) {
	_, s := directEngine(t, true)
	ctx := context.Background()
	for q, col := range map[string]string{
		"UPDATE kv SET id = id + 1000 WHERE id = 5": `distribution key column "id"`,
		"UPDATE two SET b = 1":                      `distribution key column "b"`,
		"UPDATE sales SET d = 150 WHERE d = 7":      `partition key column "d"`,
		"UPDATE sales SET d = 999 WHERE id = 3":     `partition key column "d"`,
	} {
		if _, err := s.Exec(ctx, q); err == nil || !strings.Contains(err.Error(), col) {
			t.Errorf("%s: err = %v, want a refusal naming %s", q, err, col)
		}
	}
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"SELECT count(*) FROM kv WHERE id = 5", 1},
		{"SELECT count(*) FROM kv WHERE id = 1005", 0},
		{"SELECT count(*) FROM sales WHERE d + 0 = 7", 1},
		{"UPDATE rep SET id = id + 100 WHERE id = 5", 1}, // one copy counted
		{"UPDATE rnd SET id = id + 100 WHERE id = 5", 1},
		{"SELECT count(*) FROM rep WHERE id = 105", 1},
		{"SELECT count(*) FROM rnd WHERE id = 105", 1},
		{"UPDATE sales SET amt = amt + 1 WHERE d = 7", 1},
		{"SELECT count(*) FROM sales WHERE d = 7 AND amt = 2.5", 1},
	} {
		res := mustExec(t, s, tc.q)
		got := int64(res.RowsAffected)
		if strings.HasPrefix(tc.q, "SELECT") {
			got = res.Rows[0][0].Int()
		}
		if got != tc.want {
			t.Errorf("%s: %d, want %d", tc.q, got, tc.want)
		}
	}
}

// TestDMLExplainAccessPath: an UPDATE or DELETE finds its rows through the
// access path a SELECT with the same WHERE gets — an index probe where one
// applies, partitioned tables included, a scan that skips the blocks its
// pushed predicate rules out — and EXPLAIN ANALYZE shows that path's actual
// rows per segment and its blocks scanned and skipped.
func TestDMLExplainAccessPath(t *testing.T) {
	_, s := directEngine(t, true)
	mustExec(t, s, "CREATE INDEX sales_id ON sales (id)")
	for _, tc := range []struct{ q, want string }{
		{"UPDATE kv SET val = 1 WHERE id = 3", "Update on kv\n  -> Index Scan using kv_pkey on kv\n"},
		{"DELETE FROM kv WHERE val = 30", "Delete on kv\n  -> Seq Scan on kv Filter: (val = 30) Pushdown: val = 30\n"},
		{"SELECT * FROM sales WHERE id = 3", "Index Scan using sales_id on sales"},
		{"UPDATE sales SET amt = 1 WHERE id = 3", "Update on sales\n  -> Index Scan using sales_id on sales\n"},
		{"DELETE FROM sales WHERE d >= 100", "Delete on sales\n  -> Seq Scan on sales (1 of 2 partitions) Filter: (d >= 100) Pushdown: d >= 100\n"},
	} {
		if got := explainText(t, s, tc.q); !strings.Contains(got, tc.want) {
			t.Errorf("EXPLAIN %s:\n%s\nwant it to contain:\n%s", tc.q, got, tc.want)
		}
	}
	want := mustExec(t, s, "SELECT count(*) FROM sales WHERE id + 0 = 3").Rows[0][0].Int()
	if got := mustExec(t, s, "SELECT count(*) FROM sales WHERE id = 3").Rows[0][0].Int(); got != want || want == 0 {
		t.Fatalf("index probe of a partitioned table counts %d rows, the scan %d", got, want)
	}
	lines := planText(mustExec(t, s, "EXPLAIN ANALYZE UPDATE sales SET amt = amt + 1 WHERE id = 3"))
	if !containsLine(lines, fmt.Sprintf("Index Scan using sales_id on sales  (actual rows=%d", want)) ||
		!containsLine(lines, fmt.Sprintf("rows affected: %d", want)) {
		t.Fatalf("EXPLAIN ANALYZE UPDATE lacks the access path's %d actual rows:\n%s", want, strings.Join(lines, "\n"))
	}
	// Loaded in key order, every segment's second sealed block holds only
	// keys past the DELETE's range: zone maps skip it, and the rows deleted
	// are those a scan that pushes nothing (k + 0) deletes.
	loadClusteredTable(t, s, "zd", 40000)
	for _, key := range []string{"k", "k + 0"} {
		mustExec(t, s, "BEGIN")
		lines := planText(mustExec(t, s, "EXPLAIN ANALYZE DELETE FROM zd WHERE "+key+" < 2000"))
		mustExec(t, s, "ROLLBACK")
		var scanned, skipped int
		for _, l := range lines {
			fmt.Sscanf(l, "blocks: scanned=%d skipped=%d", &scanned, &skipped)
		}
		if !containsLine(lines, "rows affected: 2000") || scanned == 0 || (skipped > 0) != (key == "k") {
			t.Fatalf("EXPLAIN ANALYZE DELETE FROM zd WHERE %s < 2000:\n%s", key, strings.Join(lines, "\n"))
		}
	}
}

// TestDMLOverCorruptBlockFails: a DELETE, an UPDATE, a FOR UPDATE read and an
// index build over an AO-column block that does not decode each fail the
// statement, naming the block, and leave the table as it was: every row
// unchanged (read through the intact columns) and no index.
func TestDMLOverCorruptBlockFails(t *testing.T) {
	e, s := newTestEngine(t, 1)
	mustExec(t, s, "CREATE TABLE t (a int, b int, c int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)")
	const n = 16484 // four sealed blocks and a tail
	bulkInsert(t, s, "t", n, 0, func(i int) string { return fmt.Sprintf("(%d, %d, 0)", i, i) })
	tab, err := e.Cluster().Catalog().Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ao := e.Cluster().Segments()[0].EngineForTest(tab.ID).(*storage.AOColumn)
	ao.Seal()
	ao.CorruptBlockForTest(2, 1)
	for _, stmts := range [][]string{
		{"DELETE FROM t WHERE b >= 0"},
		{"UPDATE t SET c = c + 1 WHERE b >= 0"},
		{"BEGIN", "SELECT a FROM t WHERE b >= 0 FOR UPDATE", "ROLLBACK"},
		{"CREATE INDEX t_b ON t (b)"},
	} {
		q := stmts[0]
		if len(stmts) > 1 {
			mustExec(t, s, stmts[0])
			q = stmts[1]
		}
		if _, err := s.Exec(context.Background(), q); err == nil || !strings.Contains(err.Error(), "block 2 column 1") {
			t.Errorf("%s over a corrupt block: err %v", q, err)
		}
		if len(stmts) > 1 {
			mustExec(t, s, stmts[2])
		}
		if got := mustExec(t, s, "SELECT count(*) FROM t WHERE c = 0").Rows[0][0].Int(); got != n || len(tab.Indexes) != 0 {
			t.Fatalf("after %s: %d of %d rows unchanged, %d indexes", q, got, n, len(tab.Indexes))
		}
	}
}

// dmlRow is the oracle's copy of one row of a TestDMLMatchesOracle table.
type dmlRow struct{ k, p, v int64 }

// TestDMLMatchesOracle runs seeded batches of INSERT, UPDATE and DELETE —
// point writes through $N templates, multi-row VALUES, an INSERT … SELECT
// of the table into itself, ranges, partition-key and whole-table writes —
// against a Go oracle over every engine × distribution (hash, replicated,
// random, partitioned) × index (on the key, none) × direct dispatch (on,
// off), checking each statement's rows affected and the table's rows.
func TestDMLMatchesOracle(t *testing.T) {
	dists := []struct{ name, clause string }{
		{"hash", " DISTRIBUTED BY (k)"},
		{"repl", " DISTRIBUTED REPLICATED"},
		{"rand", " DISTRIBUTED RANDOMLY"},
		{"part", " DISTRIBUTED BY (k) PARTITION BY RANGE (p) (PARTITION lo START (0) END (100)%[1]s, PARTITION hi START (100) END (200)%[1]s)"},
	}
	const nseg = 4
	for _, direct := range []bool{true, false} {
		cfg := cluster.GPDB6(nseg)
		cfg.GDDPeriod = 5 * time.Millisecond
		cfg.DirectDispatch = direct
		e := NewEngine(cfg)
		t.Cleanup(e.Close)
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		loadInsertSelectSources(t, s)
		seed := int64(1)
		for _, eng := range dmlEngines {
			for _, dist := range dists {
				for _, indexed := range []bool{false, true} {
					tab := fmt.Sprintf("o_%s_%s_%v", eng.name, dist.name, indexed)
					ddl := "CREATE TABLE " + tab + " (k int, p int, v int)"
					if dist.name == "part" {
						ddl += fmt.Sprintf(dist.clause, eng.with)
					} else {
						ddl += eng.with + dist.clause
					}
					mustExec(t, s, ddl)
					if indexed {
						mustExec(t, s, "CREATE INDEX "+tab+"_k ON "+tab+" (k)")
					}
					seed++
					runDMLOracle(t, s, tab, rand.New(rand.NewSource(seed)), fmt.Sprintf("direct=%v", direct))
					runInsertSelectOracle(t, s, tab, fmt.Sprintf("direct=%v", direct))
				}
			}
		}
	}
}

// runDMLOracle loads tab and drives one seeded batch of writes against it,
// comparing every step with the oracle.
func runDMLOracle(t *testing.T, s *Session, tab string, rng *rand.Rand, label string) {
	t.Helper()
	ctx := context.Background()
	var oracle []*dmlRow
	next := int64(1) // the next new key
	newRows := func(n int) []*dmlRow {
		var rows []*dmlRow
		for ; n > 0; n-- {
			rows = append(rows, &dmlRow{k: next, p: rng.Int63n(200), v: rng.Int63n(50)})
			next++
		}
		return rows
	}
	valuesOf := func(rows []*dmlRow) string {
		var vals []string
		for _, r := range rows {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", r.k, r.p, r.v))
		}
		return strings.Join(vals, ", ")
	}
	oracle = newRows(40)
	mustExec(t, s, "INSERT INTO "+tab+" VALUES "+valuesOf(oracle))
	for step := 0; step < 30; step++ {
		var q string
		var params []types.Datum
		var match func(r *dmlRow) bool
		var set func(r *dmlRow) // nil = DELETE
		var insert []*dmlRow    // an INSERT's rows: match and set are nil
		key, lo := rng.Int63n(45), rng.Int63n(60)
		switch rng.Intn(10) {
		case 7:
			insert = newRows(1)
			r := insert[0]
			q, params = "INSERT INTO "+tab+" VALUES ($1, $2, $3)", []types.Datum{types.NewInt(r.k), types.NewInt(r.p), types.NewInt(r.v)}
		case 8:
			insert = newRows(2 + rng.Intn(4))
			q = "INSERT INTO " + tab + " VALUES " + valuesOf(insert)
		case 9:
			// The SELECT reads the table the statement writes: it must not
			// see the rows the statement adds.
			q = fmt.Sprintf("INSERT INTO %[1]s (v, p, k) SELECT v, p, k + 1000 FROM %[1]s WHERE v >= %d AND v < %d", tab, lo, lo+10)
			for _, r := range oracle {
				if r.v >= lo && r.v < lo+10 {
					insert = append(insert, &dmlRow{k: r.k + 1000, p: r.p, v: r.v})
				}
			}
		case 0:
			d := rng.Int63n(9) - 4
			q, params = "UPDATE "+tab+" SET v = v + $1 WHERE k = $2", []types.Datum{types.NewInt(d), types.NewInt(key)}
			match, set = func(r *dmlRow) bool { return r.k == key }, func(r *dmlRow) { r.v += d }
		case 1:
			q = fmt.Sprintf("UPDATE %s SET v = v * 2 WHERE v >= %d AND v < %d", tab, lo, lo+15)
			match, set = func(r *dmlRow) bool { return r.v >= lo && r.v < lo+15 }, func(r *dmlRow) { r.v *= 2 }
		case 2:
			q, params = "DELETE FROM "+tab+" WHERE k = $1", []types.Datum{types.NewInt(key)}
			match = func(r *dmlRow) bool { return r.k == key }
		case 3:
			q = fmt.Sprintf("DELETE FROM %s WHERE v > %d AND v < %d", tab, lo, lo+4)
			match = func(r *dmlRow) bool { return r.v > lo && r.v < lo+4 }
		case 4:
			plo := rng.Int63n(150)
			q = fmt.Sprintf("UPDATE %s SET v = v - 1 WHERE p >= %d AND p < %d", tab, plo, plo+50)
			match, set = func(r *dmlRow) bool { return r.p >= plo && r.p < plo+50 }, func(r *dmlRow) { r.v-- }
		case 5:
			q = fmt.Sprintf("UPDATE %s SET v = k + p WHERE k = %d", tab, key)
			match, set = func(r *dmlRow) bool { return r.k == key }, func(r *dmlRow) { r.v = r.k + r.p }
		default:
			q = "UPDATE " + tab + " SET v = v + 1"
			match, set = func(*dmlRow) bool { return true }, func(r *dmlRow) { r.v++ }
		}
		want := int64(len(insert))
		if match != nil {
			kept := oracle[:0]
			for _, r := range oracle {
				switch {
				case !match(r):
				case set == nil:
					want++
					continue
				default:
					want++
					set(r)
				}
				kept = append(kept, r)
			}
			oracle = kept
		}
		oracle = append(oracle, insert...)
		res, err := s.Exec(ctx, q, params...)
		if err != nil {
			t.Fatalf("%s %s %v: %v", label, q, params, err)
		}
		if int64(res.RowsAffected) != want {
			t.Fatalf("%s %s %v: %d rows affected, the oracle says %d", label, q, params, res.RowsAffected, want)
		}
		var got, exp []string
		for _, r := range mustExec(t, s, "SELECT k, p, v FROM "+tab).Rows {
			got = append(got, fmt.Sprintf("%d/%d/%d", r[0].Int(), r[1].Int(), r[2].Int()))
		}
		for _, r := range oracle {
			exp = append(exp, fmt.Sprintf("%d/%d/%d", r.k, r.p, r.v))
		}
		sort.Strings(got)
		sort.Strings(exp)
		if !slices.Equal(got, exp) {
			t.Fatalf("%s after %s %v:\n got %v\nwant %v", label, q, params, got, exp)
		}
	}
}

// insertSelectSources are the rows of the second tables TestDMLMatchesOracle
// inserts from, one of each distribution its targets do not share: hashed
// on another column, replicated and random.
var insertSelectSources = func() (rows []dmlRow) {
	for k := int64(1); k <= 20; k++ {
		rows = append(rows, dmlRow{k: k, p: k * 37 % 200, v: k % 13})
	}
	return rows
}()

// loadInsertSelectSources creates and loads src_hash, src_repl and src_rand.
func loadInsertSelectSources(t *testing.T, s *Session) {
	var vals []string
	for _, r := range insertSelectSources {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", r.k, r.p, r.v))
	}
	for tab, clause := range map[string]string{"src_hash": "DISTRIBUTED BY (v)", "src_repl": "DISTRIBUTED REPLICATED", "src_rand": "DISTRIBUTED RANDOMLY"} {
		mustExec(t, s, "CREATE TABLE "+tab+" (k int, p int, v int) "+clause)
		mustExec(t, s, "INSERT INTO "+tab+" VALUES "+strings.Join(vals, ", "))
	}
}

// runInsertSelectOracle inserts into tab from each source table, and from two
// SELECTs that end on the coordinator (ORDER BY … LIMIT, a scalar
// aggregate), checking each statement's rows affected and the table's rows
// against what it held before plus the oracle's rows.
func runInsertSelectOracle(t *testing.T, s *Session, tab string, label string) {
	t.Helper()
	var ordered, sum int64
	for _, r := range insertSelectSources {
		sum += r.v
	}
	for _, c := range []struct {
		q    string
		keep func(r dmlRow) bool
		add  int64
	}{
		{"INSERT INTO %s SELECT k + 2000, p, v FROM src_hash WHERE v < 7", func(r dmlRow) bool { return r.v < 7 }, 2000},
		{"INSERT INTO %s (k, p, v) SELECT k + 3000, p, v FROM src_repl", func(dmlRow) bool { return true }, 3000},
		{"INSERT INTO %s SELECT k + 4000, p, v FROM src_rand WHERE p >= 100", func(r dmlRow) bool { return r.p >= 100 }, 4000},
		{"INSERT INTO %s SELECT k + 5000, p, v FROM src_hash ORDER BY k LIMIT 5", func(dmlRow) bool { ordered++; return ordered <= 5 }, 5000},
		{"INSERT INTO %s SELECT count(*) + 6000, 7, sum(v) FROM src_rand", nil, 0},
	} {
		q := fmt.Sprintf(c.q, tab)
		want := mustSelectRows(t, s, "SELECT k, p, v FROM "+tab)
		added := int64(0)
		if c.keep == nil {
			want = append(want, fmt.Sprintf("%d/7/%d", 6000+len(insertSelectSources), sum))
			added = 1
		}
		for _, r := range insertSelectSources {
			if c.keep != nil && c.keep(r) {
				want = append(want, fmt.Sprintf("%d/%d/%d", r.k+c.add, r.p, r.v))
				added++
			}
		}
		res := mustExec(t, s, q)
		if int64(res.RowsAffected) != added {
			t.Fatalf("%s %s: %d rows affected, the oracle says %d", label, q, res.RowsAffected, added)
		}
		got := mustSelectRows(t, s, "SELECT k, p, v FROM "+tab)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s after %s:\n got %v\nwant %v", label, q, got, want)
		}
	}
}

// mustSelectRows runs a SELECT of three int columns and returns its rows as
// sorted k/p/v strings.
func mustSelectRows(t *testing.T, s *Session, q string) []string {
	t.Helper()
	var out []string
	for _, r := range mustExec(t, s, q).Rows {
		out = append(out, fmt.Sprintf("%d/%d/%d", r[0].Int(), r[1].Int(), r[2].Int()))
	}
	sort.Strings(out)
	return out
}

// TestInsertSelectPlanShape: an INSERT … SELECT runs its SELECT on the
// segments under the motion that brings each row to the segment storing it —
// none when the loci match, a Redistribute by the target's key when they do
// not, a Broadcast into a replicated table — and a SELECT that ends on the
// coordinator feeds that motion from the coordinator's slice. VALUES keep
// their plan. Columns are told apart by position, not by name: a join's
// result hashed on fact.id is not hashed on dim.id, and rows keyed by dim.id
// are redistributed, so a point read on the key finds every one.
func TestInsertSelectPlanShape(t *testing.T) {
	_, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE src (x int, y int) DISTRIBUTED BY (x)")
	mustExec(t, s, "CREATE TABLE dst (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s, "CREATE TABLE rep (a int, b int) DISTRIBUTED REPLICATED")
	mustExec(t, s, "CREATE TABLE fact (id int, dim_id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE TABLE dim (id int, w int) DISTRIBUTED REPLICATED")
	const byDimID = "INSERT INTO dst SELECT d.id, f.v FROM fact f JOIN dim d ON f.dim_id = d.id"
	for _, c := range []struct{ q, under string }{
		{"INSERT INTO dst SELECT x, y FROM src", ""},
		{"INSERT INTO dst SELECT y, x FROM src", "Redistribute Motion (slice1)"},
		{"INSERT INTO dst SELECT f.id, d.id FROM fact f JOIN dim d ON f.dim_id = d.id", ""},
		{byDimID, "Redistribute Motion (slice1)"},
		{"INSERT INTO rep SELECT x, y FROM src", "Broadcast Motion (slice1)"},
		{"INSERT INTO dst SELECT count(*), 1 FROM src", "Redistribute Motion (slice1; from coordinator)"},
		{"INSERT INTO dst SELECT x, y FROM src ORDER BY y LIMIT 3", "Redistribute Motion (slice1; from coordinator)"},
	} {
		lines := strings.Split(strings.TrimSpace(explainText(t, s, c.q)), "\n")
		motions := 0
		for _, l := range lines {
			if strings.Contains(l, "Motion") {
				motions++
			}
		}
		switch {
		case c.under == "" && motions > 0:
			t.Errorf("%s: the loci match, yet the plan moves rows:\n%s", c.q, strings.Join(lines, "\n"))
		case c.under != "" && (len(lines) < 2 || strings.Split(lines[1], "  (cost=")[0] != "  -> "+c.under):
			t.Errorf("%s: want %s directly under the Insert:\n%s", c.q, c.under, strings.Join(lines, "\n"))
		case strings.HasSuffix(c.under, "from coordinator)") && !strings.Contains(strings.Join(lines[2:], "\n"), "Gather Motion"):
			t.Errorf("%s: the coordinator's slice should gather what it sends:\n%s", c.q, strings.Join(lines, "\n"))
		}
	}
	if got := explainText(t, s, "INSERT INTO dst VALUES (1, 2), (3, 4)"); got != "Insert on dst\n  -> Result\n" {
		t.Errorf("EXPLAIN INSERT … VALUES:\n%s", got)
	}
	const n = 40
	bulkInsert(t, s, "dim", n, 0, func(i int) string { return fmt.Sprintf("(%d, 0)", 1000+i) })
	bulkInsert(t, s, "fact", n, 0, func(i int) string { return fmt.Sprintf("(%d, %d, %d)", i, 1000+(i*7)%n, i) })
	mustExec(t, s, byDimID)
	for i := 0; i < n; i++ {
		k := 1000 + (i*7)%n
		if got := mustExec(t, s, fmt.Sprintf("SELECT b FROM dst WHERE a = %d", k)).Rows; len(got) != 1 || got[0][0].Int() != int64(i) {
			t.Errorf("point read of a = %d returned %v, want the row with b = %d", k, got, i)
		}
	}
}

// TestInsertSelectShapesInOneProject: an INSERT … SELECT casts its items to
// the target's kinds in the SELECT's own Project, not in a second one stacked
// on it, and casts even an item whose static kind is the column's already: a
// CASE takes its first branch's kind whatever the others return.
func TestInsertSelectShapesInOneProject(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE src (a int, f float) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO src VALUES (1, 2.5), (7, 3.5)")
	mustExec(t, s, "CREATE TABLE dst (a int, b int) DISTRIBUTED BY (a)")
	const q = "INSERT INTO dst SELECT a, CASE WHEN a > 5 THEN 1 ELSE f END FROM src"
	if plan := explainText(t, s, q); strings.Count(plan, "Project") != 1 {
		t.Errorf("want one Project under the Insert:\n%s", plan)
	}
	mustExec(t, s, q)
	if got, want := rowsText(mustExec(t, s, "SELECT a, b FROM dst ORDER BY a")), "int:1|int:2\nint:7|int:1\n"; got != want {
		t.Fatalf("stored rows:\n%swant:\n%s", got, want)
	}
}

// TestInsertSelectRowsStayOnSegments: 10 000 rows moved between two tables
// hashed on different keys go from the segments that read them to the
// segments that store them — every node below the Insert reports all its
// rows at segments, none at the coordinator — and all are written.
func TestInsertSelectRowsStayOnSegments(t *testing.T) {
	_, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE src (x int, y int) DISTRIBUTED BY (x)")
	mustExec(t, s, "CREATE TABLE dst (a int, b int) DISTRIBUTED BY (b)")
	const n = 10000
	bulkInsert(t, s, "src", n, 0, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i*7%n) })
	lines := planText(mustExec(t, s, "EXPLAIN ANALYZE INSERT INTO dst SELECT x, y FROM src"))
	if !containsLine(lines, fmt.Sprintf("rows affected: %d", n)) {
		t.Fatalf("want %d rows affected:\n%s", n, strings.Join(lines, "\n"))
	}
	// A node's actual rows are its rows at every location; its per-segment
	// lines follow it. Rows at the coordinator are what the two differ by.
	total, segs, node, indent := int64(-1), int64(0), "", 0
	check := func() {
		if total >= 0 && total != segs {
			t.Errorf("%s: %d rows in all, %d of them at segments:\n%s", node, total, segs, strings.Join(lines, "\n"))
		}
	}
	for _, l := range lines {
		var seg int
		var rows int64
		depth := len(l) - len(strings.TrimLeft(l, " "))
		if _, err := fmt.Sscanf(strings.TrimSpace(l), "seg%d: rows=%d", &seg, &rows); err == nil && depth > indent {
			segs += rows
			continue
		}
		if i := strings.Index(l, "(actual rows="); i >= 0 {
			check()
			node, segs, indent = strings.TrimSpace(l[:i]), 0, depth
			fmt.Sscanf(l[i:], "(actual rows=%d", &total)
		}
	}
	check()
	if node == "" {
		t.Fatalf("no node reports its actual rows:\n%s", strings.Join(lines, "\n"))
	}
	if got := mustExec(t, s, "SELECT count(*), sum(b) FROM dst").Rows[0]; got[0].Int() != n || got[1].Int() != int64(n*(n-1)/2) {
		t.Fatalf("dst holds count, sum(b) = %v, want %d, %d", got, n, n*(n-1)/2)
	}
}

// TestRandomPlacementSpreadsStatements: one-row INSERTs into a randomly
// distributed table continue round-robin from where the last statement
// stopped, so they spread over every segment instead of all landing on the
// first.
func TestRandomPlacementSpreadsStatements(t *testing.T) {
	e, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE r (a int) DISTRIBUTED RANDOMLY")
	for i := 0; i < 400; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO r VALUES (%d)", i))
	}
	tab, err := e.Cluster().Catalog().Table("r")
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range e.Cluster().Segments() {
		if n := seg.RowCount(tab); n < 50 {
			t.Errorf("segment %d holds %d of 400 rows, want at least 50", i, n)
		}
	}
}

// TestCancelledWriteFails: a write on several segments that its caller
// cancels (a plain cancel, which records no cause) while one segment waits
// for a row lock fails, and none of its rows stay written — not even those
// the other segments wrote before the cancel.
func TestCancelledWriteFails(t *testing.T) {
	e, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE cw (k int, v int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "cw", 40, 0, func(i int) string { return fmt.Sprintf("(%d, 0)", i) })
	holder, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, holder, "BEGIN")
	mustExec(t, holder, "UPDATE cw SET v = 1 WHERE k = 7")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.Exec(ctx, "UPDATE cw SET v = v + 10")
		done <- err
	}()
	waitForLockWait(t, e)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("an UPDATE cancelled while it waited for a row lock succeeded")
	}
	mustExec(t, holder, "ROLLBACK")
	if got := mustExec(t, s, "SELECT sum(v) FROM cw").Rows[0][0]; got.Int() != 0 {
		t.Fatalf("sum(v) = %v after the cancelled UPDATE, want 0", got)
	}
}

// TestCancelledContextFailsStatement: a statement given an already-cancelled
// context fails with context.Canceled and writes nothing — an indexed point
// SELECT, a point UPDATE and a one-row INSERT, none of which reaches a
// scan's own cancellation check — and inside an explicit block it fails the
// block like any other failed statement.
func TestCancelledContextFailsStatement(t *testing.T) {
	_, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE cc (id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, s, "CREATE INDEX cc_id ON cc (id)")
	mustExec(t, s, "INSERT INTO cc VALUES (1, 10), (2, 20)")
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	stmts := []string{"SELECT v FROM cc WHERE id = 1", "UPDATE cc SET v = v + 1 WHERE id = 1", "INSERT INTO cc VALUES (3, 30)"}
	for _, q := range stmts { // a live run first, so the SELECT and UPDATE plans are cached
		mustExec(t, s, q)
	}
	for _, q := range stmts {
		if _, err := s.Exec(dead, q); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a cancelled context: err %v, want context.Canceled", q, err)
		}
	}
	if got := mustExec(t, s, "SELECT count(*), sum(v) FROM cc").Rows[0]; got[0].Int() != 3 || got[1].Int() != 61 {
		t.Fatalf("count, sum(v) = %v after the cancelled statements, want 3, 61", got)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE cc SET v = 0 WHERE id = 2")
	if _, err := s.Exec(dead, stmts[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled UPDATE in a block: err %v, want context.Canceled", err)
	}
	if _, err := s.Exec(context.Background(), stmts[0]); !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("statement after the cancelled one: err %v, want %v", err, ErrTxnAborted)
	}
	mustExec(t, s, "ROLLBACK")
	if got := mustExec(t, s, "SELECT sum(v) FROM cc").Rows[0][0].Int(); got != 61 {
		t.Fatalf("sum(v) = %d after the failed block, want 61", got)
	}
}

// TestInsertOutsidePartitionsFails: an INSERT with a row no partition
// accepts fails, and none of its rows is visible afterwards — not those the
// other leaves and segments accepted, not a one-row INSERT's pinned to its
// segment, not those of the transaction block it failed.
func TestInsertOutsidePartitionsFails(t *testing.T) {
	_, s := newTestEngine(t, 4)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE pt (k int, p int) DISTRIBUTED BY (k) PARTITION BY RANGE (p) (PARTITION lo START (0) END (100), PARTITION hi START (100) END (200))")
	count := func() int64 { return mustExec(t, s, "SELECT count(*) FROM pt").Rows[0][0].Int() }
	fails := func(q string, params ...types.Datum) {
		t.Helper()
		if _, err := s.Exec(ctx, q, params...); err == nil || !strings.Contains(err.Error(), "no partition") {
			t.Fatalf("%s %v: err %v, want no partition accepts the row", q, params, err)
		}
	}
	fails("INSERT INTO pt VALUES (1, 10), (2, 150), (3, 250), (4, 50), (5, 199)")
	fails("INSERT INTO pt VALUES ($1, $2)", types.NewInt(6), types.NewInt(-1))
	if n := count(); n != 0 {
		t.Fatalf("%d rows visible after failed INSERTs", n)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO pt VALUES (7, 20), (8, 120)")
	fails("INSERT INTO pt SELECT k + 10, p + 100 FROM pt")
	mustExec(t, s, "COMMIT") // of a failed block: a rollback
	if n := count(); n != 0 {
		t.Fatalf("%d rows visible after a failed block", n)
	}
	mustExec(t, s, "INSERT INTO pt VALUES (7, 20), (8, 120)")
	if n := count(); n != 2 {
		t.Fatalf("%d rows after a good INSERT, want 2", n)
	}
}

// TestInsertSelectColumnList: INSERT … SELECT maps its SELECT's columns
// through the column list like VALUES does, NULL-filling what it omits and
// casting to each column's kind.
func TestInsertSelectColumnList(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE src (x int, y int) DISTRIBUTED BY (x)")
	mustExec(t, s, "CREATE TABLE dst (a int, b float) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO src VALUES (1, 2)")
	for _, c := range []struct{ q, want string }{
		{"INSERT INTO dst (b, a) VALUES (1, 2)", "2/1"},
		{"INSERT INTO dst (b, a) SELECT x, y FROM src", "2/1"},
		{"INSERT INTO dst (b) SELECT x FROM src", "NULL/1"},
		{"INSERT INTO dst SELECT y, x FROM src", "2/1"},
	} {
		mustExec(t, s, "TRUNCATE dst")
		mustExec(t, s, c.q)
		rows := mustExec(t, s, "SELECT a, b FROM dst").Rows
		if len(rows) != 1 || rows[0][0].String()+"/"+rows[0][1].String() != c.want || !rows[0][1].IsNull() && rows[0][1].Kind() != types.KindFloat {
			t.Fatalf("%s: stored %v, want a/b = %s with b a float", c.q, rows, c.want)
		}
	}
}

// TestReplicatedWriteCountsOneCopy: a write to a replicated table stores a
// copy on every segment, and its command tag counts the rows once.
func TestReplicatedWriteCountsOneCopy(t *testing.T) {
	_, s := newTestEngine(t, 4)
	mustExec(t, s, "CREATE TABLE rep (a int, b int) DISTRIBUTED REPLICATED")
	mustExec(t, s, "CREATE TABLE src (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s, "INSERT INTO src VALUES (4, 4), (5, 5)")
	for _, c := range []struct{ q, tag string }{
		{"INSERT INTO rep VALUES (1, 1), (2, 2), (3, 3)", "INSERT 0 3"},
		{"UPDATE rep SET b = 9 WHERE a = 1", "UPDATE 1"},
		{"DELETE FROM rep WHERE a = 2", "DELETE 1"},
		{"INSERT INTO rep SELECT a, b FROM src", "INSERT 0 2"},
	} {
		if tag := mustExec(t, s, c.q).Tag; tag != c.tag {
			t.Errorf("%s: tagged %q, want %q", c.q, tag, c.tag)
		}
	}
	if n := mustExec(t, s, "SELECT count(*) FROM rep").Rows[0][0].Int(); n != 4 {
		t.Errorf("rep holds %d rows, want 4", n)
	}
}
