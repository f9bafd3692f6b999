package core

import (
	"context"
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
		{"UPDATE rep SET id = id + 100 WHERE id = 5", 4}, // every copy
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
	// are those a scan without zone maps deletes.
	loadClusteredTable(t, s, "zd", 40000)
	for _, zonemaps := range []string{"on", "off"} {
		mustExec(t, s, "SET enable_zonemaps = "+zonemaps)
		mustExec(t, s, "BEGIN")
		lines := planText(mustExec(t, s, "EXPLAIN ANALYZE DELETE FROM zd WHERE k < 2000"))
		mustExec(t, s, "ROLLBACK")
		var scanned, skipped int
		for _, l := range lines {
			fmt.Sscanf(l, "blocks: scanned=%d skipped=%d", &scanned, &skipped)
		}
		if !containsLine(lines, "rows affected: 2000") || scanned == 0 || (skipped > 0) != (zonemaps == "on") {
			t.Fatalf("EXPLAIN ANALYZE DELETE with enable_zonemaps = %s:\n%s", zonemaps, strings.Join(lines, "\n"))
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

// TestDMLMatchesOracle runs seeded batches of UPDATE and DELETE — point
// writes through $N templates, ranges, partition-key and whole-table writes
// — against a Go oracle over every engine × distribution (hash, replicated,
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
					copies := int64(1)
					if dist.name == "repl" {
						copies = nseg // a replicated table reports every copy written
					}
					seed++
					runDMLOracle(t, s, tab, copies, rand.New(rand.NewSource(seed)), fmt.Sprintf("direct=%v", direct))
				}
			}
		}
	}
}

// runDMLOracle loads tab and drives one seeded batch of writes against it,
// comparing every step with the oracle.
func runDMLOracle(t *testing.T, s *Session, tab string, copies int64, rng *rand.Rand, label string) {
	t.Helper()
	ctx := context.Background()
	oracle := map[int64]*dmlRow{}
	var vals []string
	for k := int64(1); k <= 40; k++ {
		r := &dmlRow{k: k, p: rng.Int63n(200), v: rng.Int63n(50)}
		oracle[k] = r
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", r.k, r.p, r.v))
	}
	mustExec(t, s, "INSERT INTO "+tab+" VALUES "+strings.Join(vals, ", "))
	for step := 0; step < 25; step++ {
		var q string
		var params []types.Datum
		var match func(r *dmlRow) bool
		var set func(r *dmlRow) // nil = DELETE
		key, lo := rng.Int63n(45), rng.Int63n(60)
		switch rng.Intn(7) {
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
		var want int64
		for k, r := range oracle {
			if !match(r) {
				continue
			}
			want++
			if set == nil {
				delete(oracle, k)
			} else {
				set(r)
			}
		}
		res, err := s.Exec(ctx, q, params...)
		if err != nil {
			t.Fatalf("%s %s %v: %v", label, q, params, err)
		}
		if int64(res.RowsAffected) != want*copies {
			t.Fatalf("%s %s %v: %d rows affected, the oracle says %d", label, q, params, res.RowsAffected, want*copies)
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
