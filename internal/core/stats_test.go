package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/types"
)

func explainText(t *testing.T, s *Session, q string) string {
	t.Helper()
	res := mustExec(t, s, "EXPLAIN "+q)
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r[0].String())
		b.WriteByte('\n')
	}
	return b.String()
}

func bulkInsert(t *testing.T, s *Session, table string, n, base int, mk func(i int) string) {
	t.Helper()
	ctx := context.Background()
	const chunk = 500
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := off; i < end; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			sb.WriteString(mk(base + i))
		}
		if _, err := s.Exec(ctx, sb.String()); err != nil {
			t.Fatalf("bulk insert into %s: %v", table, err)
		}
	}
}

// TestPlannerUsesRealTableStats checks the OLAP broadcast-vs-redistribute
// decision is driven by actual storage row counts (via the cluster's stats
// cache), not the old hard-coded default estimate. On four segments a
// broadcast ships its side four times and a redistribute ships both sides
// once, so a 100-row side joined to 1000 rows is broadcast; after a bulk
// insert grows it to 1100 rows, neither side is small enough and a fresh
// plan redistributes both instead.
func TestPlannerUsesRealTableStats(t *testing.T) {
	_, s := newTestEngine(t, 4)

	mustExec(t, s, "CREATE TABLE big (a int, b int) DISTRIBUTED BY (a)")
	// dim's distribution key (v) differs from the join key (k), so the join
	// sides are misaligned and the planner must move data.
	mustExec(t, s, "CREATE TABLE dim (k int, v int) DISTRIBUTED BY (v)")
	bulkInsert(t, s, "big", 1000, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%50) })
	bulkInsert(t, s, "dim", 100, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i*3) })

	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT big.a, dim.v FROM big JOIN dim ON big.b = dim.k"
	pl := explainText(t, s, q)
	if !strings.Contains(pl, "Broadcast Motion") {
		t.Fatalf("small side (100 rows) should be broadcast:\n%s", pl)
	}

	// The write invalidates the stats cache, so the next plan sees the real
	// count.
	bulkInsert(t, s, "dim", 1000, 1000, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i*3) })
	pl = explainText(t, s, q)
	if strings.Contains(pl, "Broadcast Motion") {
		t.Fatalf("no side is small after dim grows to 1100 rows, yet one is broadcast:\n%s", pl)
	}
	if !strings.Contains(pl, "Redistribute Motion") {
		t.Fatalf("misaligned large join should redistribute:\n%s", pl)
	}
}

// TestBatchAndRowModesAgree runs an analytical query end to end (scan →
// motion → two-phase agg → sort through real segments, several batches per
// segment) and requires exactly the rows a plain Go evaluation of the same
// query over the same inserted values gives.
func TestBatchAndRowModesAgree(t *testing.T) {
	e := NewEngine(cluster.GPDB6(3))
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, "CREATE TABLE f (g int, v int, w int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (g)")
	bulkInsert(t, s, "f", 3000, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i%37, i, i%5) })
	res := mustExec(t, s, "SELECT g, count(*), sum(v), min(v), max(v), avg(w) FROM f WHERE v % 2 = 0 GROUP BY g ORDER BY g")

	type acc struct{ n, sum, lo, hi, wsum int64 }
	groups := make([]*acc, 37)
	for i := 0; i < 3000; i += 2 {
		a := groups[i%37]
		if a == nil {
			a = &acc{lo: int64(i)}
			groups[i%37] = a
		}
		a.n++
		a.sum += int64(i)
		a.hi = int64(i)
		a.wsum += int64(i % 5)
	}
	if len(res.Rows) != len(groups) {
		t.Fatalf("%d groups, want %d", len(res.Rows), len(groups))
	}
	for g, a := range groups {
		want := types.Row{types.NewInt(int64(g)), types.NewInt(a.n), types.NewInt(a.sum), types.NewInt(a.lo),
			types.NewInt(a.hi), types.NewFloat(float64(a.wsum) / float64(a.n))}
		if !res.Rows[g].Equal(want) {
			t.Fatalf("group %d: got %v, want %v", g, res.Rows[g], want)
		}
	}
}
