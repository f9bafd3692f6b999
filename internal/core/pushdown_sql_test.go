package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// loadClusteredTable creates an AO-column table whose key column k is
// clustered (inserted in ascending order), so selective key predicates can
// skip most sealed blocks, plus an unclustered noise column.
func loadClusteredTable(t *testing.T, s *Session, name string, nRows int) {
	t.Helper()
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE "+name+" (k int, v int, w text) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)")
	for off := 0; off < nRows; off += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + name + " VALUES ")
		for i := off; i < off+1000 && i < nRows; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,'w%d')", i, i%97, i%5)
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// blocksSkipped reads the session's blocks_skipped counter from SHOW
// scan_stats.
func blocksSkipped(t *testing.T, s *Session) int64 {
	t.Helper()
	for _, r := range mustExec(t, s, "SHOW scan_stats").Rows {
		if r[0].Text() == "blocks_skipped" {
			return r[1].Int()
		}
	}
	t.Fatal("SHOW scan_stats has no blocks_skipped row")
	return 0
}

// TestPushdownOnOffResultEquality: each query returns byte-identical results
// spelled sargably (col op const, pushed to the zone maps) and spelled so
// nothing is pushed (k + 0 op const) — the acceptance property of predicate
// pushdown. The sargable spellings of the clustered-key ranges skip blocks;
// the other spellings skip none.
func TestPushdownOnOffResultEquality(t *testing.T) {
	const nRows = 20000
	queries := []struct {
		sargable, opaque string
		skips            bool
	}{
		{"SELECT count(*), sum(v) FROM p WHERE k >= 5000 AND k < 5200", "SELECT count(*), sum(v) FROM p WHERE k + 0 >= 5000 AND k + 0 < 5200", true},
		{"SELECT k, v FROM p WHERE k BETWEEN 9990 AND 10010 ORDER BY k", "SELECT k, v FROM p WHERE k + 0 BETWEEN 9990 AND 10010 ORDER BY k", true},
		{"SELECT count(*) FROM p WHERE k IN (1, 4097, 12000, 99999)", "SELECT count(*) FROM p WHERE k + 0 IN (1, 4097, 12000, 99999)", false},
		{"SELECT count(*) FROM p WHERE k < 0", "SELECT count(*) FROM p WHERE k + 0 < 0", true},
		{"SELECT count(*) FROM p WHERE v = 11", "SELECT count(*) FROM p WHERE v + 0 = 11", false},     // unclustered: skips nothing
		{"SELECT count(*) FROM p WHERE k <> 123", "SELECT count(*) FROM p WHERE k + 0 <> 123", false}, // almost everything survives
		{"SELECT v, count(*) FROM p WHERE k > 18000 GROUP BY v ORDER BY v", "SELECT v, count(*) FROM p WHERE k + 0 > 18000 GROUP BY v ORDER BY v", true},
	}
	_, s := newTestEngine(t, 2)
	loadClusteredTable(t, s, "p", nRows)
	run := func(q string) ([]types.Row, int64) {
		t.Helper()
		before := blocksSkipped(t, s)
		rows := mustExec(t, s, q).Rows
		return rows, blocksSkipped(t, s) - before
	}
	for _, tc := range queries {
		want, skipped := run(tc.sargable)
		if tc.skips && skipped == 0 {
			t.Errorf("%s: skipped no blocks", tc.sargable)
		}
		got, opaqueSkipped := run(tc.opaque)
		if opaqueSkipped != 0 {
			t.Errorf("%s: skipped %d blocks with nothing pushed", tc.opaque, opaqueSkipped)
		}
		sameRows(t, tc.sargable, want, got)
	}

	// A partitioned table prunes its leaves by the same conjuncts.
	mustExec(t, s, "CREATE TABLE ps (id int, d int) DISTRIBUTED BY (id) PARTITION BY RANGE (d) (PARTITION p0 START (0) END (100), PARTITION p1 START (100) END (200), PARTITION p2 START (200) END (300))")
	bulkInsert(t, s, "ps", 900, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%300) })
	for _, f := range [][2]string{
		{"150 = d", "150 = d + 0"},
		{"d IN (150)", "d + 0 IN (150)"},
		{"d IN (50, 150)", "d + 0 IN (50, 150)"},
		{"250 < d", "250 < d + 0"},
		{"d > 250 AND d > 100", "d + 0 > 250 AND d + 0 > 100"},
	} {
		q := "SELECT id, d FROM ps WHERE %s ORDER BY id"
		sameRows(t, f[0], mustExec(t, s, fmt.Sprintf(q, f[0])).Rows, mustExec(t, s, fmt.Sprintf(q, f[1])).Rows)
	}
	// Each Bind of the session's instance prunes from the full leaf list:
	// after 150 kept only p1, NULL and then 50 must not start from it.
	for _, v := range []types.Datum{types.NewInt(150), types.Null, types.NewInt(50), types.NewInt(150)} {
		pushed := mustExec(t, s, "SELECT id, d FROM ps WHERE d = $1 ORDER BY id", v).Rows
		if n := len(pushed); n != 3 && !v.IsNull() {
			t.Fatalf("d = %v: %d rows, want 3", v, n)
		}
		sameRows(t, "d = "+v.String(), pushed, mustExec(t, s, "SELECT id, d FROM ps WHERE d + 0 = $1 ORDER BY id", v).Rows)
	}
}

// sameRows fails unless the rows of the pushed spelling q equal those of its
// unpushed spelling.
func sameRows(t *testing.T, q string, want, got []types.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, unpushed %d", q, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s row %d: %v, unpushed %v", q, i, want[i], got[i])
		}
	}
}

// TestPushdownSkipsBlocksAndShowsStats: a selective clustered-key query
// skips most sealed blocks, the counters surface through SHOW scan_stats and
// EXPLAIN ANALYZE, and the same range spelled k + 0 pushes nothing and skips
// nothing.
func TestPushdownSkipsBlocksAndShowsStats(t *testing.T) {
	_, s := newTestEngine(t, 1)
	loadClusteredTable(t, s, "p", 20000)

	before := blocksSkipped(t, s)
	mustExec(t, s, "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	if got := blocksSkipped(t, s); got <= before {
		t.Fatalf("selective scan skipped no blocks: %d -> %d", before, got)
	}

	// EXPLAIN shows the pushed predicate.
	txt := explainText(t, s, "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	if !strings.Contains(txt, "Pushdown: k >= 5000 AND k < 5100") {
		t.Fatalf("EXPLAIN lacks pushdown annotation:\n%s", txt)
	}

	// EXPLAIN ANALYZE executes and reports block counters.
	res := mustExec(t, s, "EXPLAIN ANALYZE SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	var blocksLine string
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].Text(), "blocks:") {
			blocksLine = r[0].Text()
		}
	}
	if blocksLine == "" || strings.Contains(blocksLine, "skipped=0") {
		t.Fatalf("EXPLAIN ANALYZE blocks line: %q (rows: %v)", blocksLine, res.Rows)
	}

	// A non-sargable spelling: no pushdown annotation, no new skips.
	const opaque = "SELECT count(*) FROM p WHERE k + 0 >= 5000 AND k + 0 < 5100"
	if txt := explainText(t, s, opaque); strings.Contains(txt, "Pushdown:") {
		t.Fatalf("k + 0 pushed:\n%s", txt)
	}
	skippedBefore := blocksSkipped(t, s)
	mustExec(t, s, opaque)
	if got := blocksSkipped(t, s); got != skippedBefore {
		t.Fatalf("unpushed scan skipped blocks: %d -> %d", skippedBefore, got)
	}

	// Heap tables skip via lazy page zones too.
	mustExec(t, s, "CREATE TABLE hp (k int, v int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "hp", 4096, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%7) })
	before = blocksSkipped(t, s)
	mustExec(t, s, "SELECT count(*) FROM hp WHERE k < 100")
	if got := blocksSkipped(t, s); got <= before {
		t.Fatalf("heap page zones skipped nothing: %d -> %d", before, got)
	}
}

// TestPushdownNullsAndUpdatesStayCorrect: NULL-bearing data, deletes and
// updates keep pushdown results identical to a filtered full scan, which the
// same predicate over k + 0 and v + 0 gets.
func TestPushdownNullsAndUpdatesStayCorrect(t *testing.T) {
	_, s := newTestEngine(t, 1)
	mustExec(t, s, "CREATE TABLE n (k int, v int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "n", 9000, 0, func(i int) string {
		if i%3 == 0 {
			return fmt.Sprintf("(%d,NULL)", i)
		}
		return fmt.Sprintf("(%d,%d)", i, i)
	})
	mustExec(t, s, "DELETE FROM n WHERE k >= 5000 AND k < 5050")
	mustExec(t, s, "UPDATE n SET v = 1 WHERE k = 4100")

	check := func(q, opaque string) {
		t.Helper()
		before := blocksSkipped(t, s)
		full := mustExec(t, s, opaque).Rows
		if got := blocksSkipped(t, s); got != before {
			t.Fatalf("%s skipped %d blocks with nothing pushed", opaque, got-before)
		}
		pushed := mustExec(t, s, q).Rows
		if len(pushed) != len(full) {
			t.Fatalf("%s: %d vs %d rows", q, len(pushed), len(full))
		}
		for i := range pushed {
			if !pushed[i].Equal(full[i]) {
				t.Fatalf("%s row %d: %v vs %v", q, i, pushed[i], full[i])
			}
		}
	}
	check("SELECT count(*) FROM n WHERE k >= 4090 AND k <= 5100",
		"SELECT count(*) FROM n WHERE k + 0 >= 4090 AND k + 0 <= 5100")
	check("SELECT count(*), sum(v) FROM n WHERE v >= 4000 AND v < 4200",
		"SELECT count(*), sum(v) FROM n WHERE v + 0 >= 4000 AND v + 0 < 4200")
	check("SELECT count(*) FROM n WHERE v = 4100", "SELECT count(*) FROM n WHERE v + 0 = 4100") // updated row moved
	check("SELECT count(*) FROM n WHERE k = 5010", "SELECT count(*) FROM n WHERE k + 0 = 5010") // deleted range
}
