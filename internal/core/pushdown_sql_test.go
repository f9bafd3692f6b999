package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
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

// TestPushdownOnOffResultEquality: the same queries return byte-identical
// results with zone maps on and off — the acceptance property of predicate
// pushdown.
func TestPushdownOnOffResultEquality(t *testing.T) {
	const nRows = 20000
	queries := []string{
		"SELECT count(*), sum(v) FROM p WHERE k >= 5000 AND k < 5200",
		"SELECT k, v FROM p WHERE k BETWEEN 9990 AND 10010 ORDER BY k",
		"SELECT count(*) FROM p WHERE k IN (1, 4097, 12000, 99999)",
		"SELECT count(*) FROM p WHERE k < 0",
		"SELECT count(*) FROM p WHERE v = 11",   // unclustered: skips nothing
		"SELECT count(*) FROM p WHERE k <> 123", // almost everything survives
		"SELECT v, count(*) FROM p WHERE k > 18000 GROUP BY v ORDER BY v",
	}
	results := map[bool]map[string][]types.Row{}
	for _, zm := range []bool{true, false} {
		cfg := cluster.GPDB6(2)
		cfg.EnableZoneMaps = zm
		e := NewEngine(cfg)
		s, _ := e.NewSession("")
		loadClusteredTable(t, s, "p", nRows)
		byQuery := map[string][]types.Row{}
		for _, q := range queries {
			res, err := s.Exec(context.Background(), q)
			if err != nil {
				e.Close()
				t.Fatalf("%s (zm=%v): %v", q, zm, err)
			}
			byQuery[q] = res.Rows
		}
		results[zm] = byQuery
		e.Close()
	}
	base := results[true]
	for zm, byQuery := range results {
		for _, q := range queries {
			want, got := base[q], byQuery[q]
			if len(want) != len(got) {
				t.Fatalf("%s (zm=%v): %d rows vs %d", q, zm, len(got), len(want))
			}
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("%s (zm=%v) row %d: %v vs %v", q, zm, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPushdownSkipsBlocksAndShowsStats: a selective clustered-key query
// skips most sealed blocks, the counters surface through SHOW scan_stats and
// EXPLAIN ANALYZE, and SET enable_zonemaps = off turns skipping off.
func TestPushdownSkipsBlocksAndShowsStats(t *testing.T) {
	e, s := newTestEngine(t, 1)
	loadClusteredTable(t, s, "p", 20000)
	_ = e

	showStat := func(name string) int64 {
		t.Helper()
		res := mustExec(t, s, "SHOW scan_stats")
		for _, r := range res.Rows {
			if r[0].Text() == name {
				return r[1].Int()
			}
		}
		t.Fatalf("stat %q missing", name)
		return 0
	}

	before := showStat("blocks_skipped")
	mustExec(t, s, "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	if got := showStat("blocks_skipped"); got <= before {
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

	// Session off-switch: no pushdown annotation, no new skips.
	mustExec(t, s, "SET enable_zonemaps = off")
	txt = explainText(t, s, "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	if strings.Contains(txt, "Pushdown:") {
		t.Fatalf("enable_zonemaps=off still pushes:\n%s", txt)
	}
	skippedOff := showStat("blocks_skipped")
	mustExec(t, s, "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100")
	if got := showStat("blocks_skipped"); got != skippedOff {
		t.Fatalf("pushdown off still skipped blocks: %d -> %d", skippedOff, got)
	}
	if res := mustExec(t, s, "SHOW enable_zonemaps"); res.Rows[0][0].Text() != "off" {
		t.Fatalf("SHOW enable_zonemaps: %v", res.Rows)
	}
	mustExec(t, s, "SET enable_zonemaps = on")

	// Heap tables skip via lazy page zones too.
	mustExec(t, s, "CREATE TABLE hp (k int, v int) DISTRIBUTED BY (k)")
	bulkInsert(t, s, "hp", 4096, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%7) })
	before = showStat("blocks_skipped")
	mustExec(t, s, "SELECT count(*) FROM hp WHERE k < 100")
	if got := showStat("blocks_skipped"); got <= before {
		t.Fatalf("heap page zones skipped nothing: %d -> %d", before, got)
	}
}

// TestSessionEnableOverDisabledConfig: SET enable_zonemaps = on works even
// when the cluster config default is off — the session knob overrides in
// both directions, with the plan-time gate as the single source of truth.
func TestSessionEnableOverDisabledConfig(t *testing.T) {
	cfg := cluster.GPDB6(1)
	cfg.EnableZoneMaps = false
	e := NewEngine(cfg)
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	loadClusteredTable(t, s, "p", 20000)

	query := "SELECT count(*) FROM p WHERE k >= 5000 AND k < 5100"
	if txt := explainText(t, s, query); strings.Contains(txt, "Pushdown:") {
		t.Fatalf("config off but plan pushed:\n%s", txt)
	}
	mustExec(t, s, "SET enable_zonemaps = on")
	if txt := explainText(t, s, query); !strings.Contains(txt, "Pushdown:") {
		t.Fatalf("SET enable_zonemaps=on did not enable pushdown:\n%s", txt)
	}
	res := mustExec(t, s, "EXPLAIN ANALYZE "+query)
	skipped := false
	for _, r := range res.Rows {
		if strings.HasPrefix(r[0].Text(), "blocks:") && !strings.Contains(r[0].Text(), "skipped=0") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("session-enabled pushdown skipped nothing: %v", res.Rows)
	}
}

// TestPushdownNullsAndUpdatesStayCorrect: NULL-bearing data, deletes and
// updates keep pushdown results identical to a filtered full scan.
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

	check := func(q string) {
		t.Helper()
		on := mustExec(t, s, q).Rows
		mustExec(t, s, "SET enable_zonemaps = off")
		off := mustExec(t, s, q).Rows
		mustExec(t, s, "SET enable_zonemaps = on")
		if len(on) != len(off) {
			t.Fatalf("%s: %d vs %d rows", q, len(on), len(off))
		}
		for i := range on {
			if !on[i].Equal(off[i]) {
				t.Fatalf("%s row %d: %v vs %v", q, i, on[i], off[i])
			}
		}
	}
	check("SELECT count(*) FROM n WHERE k >= 4090 AND k <= 5100")
	check("SELECT count(*), sum(v) FROM n WHERE v >= 4000 AND v < 4200")
	check("SELECT count(*) FROM n WHERE v = 4100") // updated row moved
	check("SELECT count(*) FROM n WHERE k = 5010") // deleted range
}
