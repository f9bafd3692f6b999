package core

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

// vectorRows is how many rows the equality suite loads: with two segments
// each holds two sealed AO-column blocks (4 096 rows) and a tail.
const vectorRows = 2*(2*4096) + 1300

// loadVectorTables creates a heap table fh and an AO-column table fc with the
// same contents: every kind, NULLs in every column, rows deleted and updated
// (so the column store's visimap and update links are populated) and — since
// UPDATE ... SET does not coerce — int values in the float column mix, which
// forces boxed vectors.
func loadVectorTables(t *testing.T, s *Session) {
	t.Helper()
	ctx := context.Background()
	exec := func(q string) {
		t.Helper()
		if _, err := s.Exec(ctx, q); err != nil {
			t.Fatalf("%s: %v", q[:min(len(q), 80)], err)
		}
	}
	const cols = "(k int, g int, d int, q int, amt float, tag text, ok bool, day date, mix float)"
	exec("CREATE TABLE fh " + cols + " DISTRIBUTED BY (k)")
	exec("CREATE TABLE fc " + cols + " WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)")
	val := func(i, col int, text string) string {
		if i%23 == col { // NULLs in every column, on different rows
			return "NULL"
		}
		return text
	}
	for off := 0; off < vectorRows; off += 500 {
		var sb strings.Builder
		for i := off; i < min(off+500, vectorRows); i++ {
			if i > off {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%s,%s,%s,%s,%s,%s,%s,%s)", i,
				val(i, 1, fmt.Sprint(i%37)), val(i, 2, fmt.Sprint(i/40)), val(i, 3, fmt.Sprint(1+i%50)),
				val(i, 4, fmt.Sprintf("%d.25", i%4000)), val(i, 5, fmt.Sprintf("'tag-%02d'", i%16)),
				val(i, 6, fmt.Sprint(i%3 == 0)), val(i, 7, fmt.Sprintf("'2021-%02d-%02d'", 1+i%12, 1+i%28)),
				val(i, 8, fmt.Sprintf("%d.5", i%100)))
		}
		exec("INSERT INTO fh VALUES " + sb.String())
		exec("INSERT INTO fc VALUES " + sb.String())
	}
	for _, tab := range []string{"fh", "fc"} {
		exec("DELETE FROM " + tab + " WHERE k % 13 = 5")
		exec("UPDATE " + tab + " SET mix = q, q = q + 1 WHERE k % 7 = 3")
	}
	exec("ANALYZE")
}

// vectorQueries are the scan_aocol statement shapes plus the expressions the
// vector kernels do not specialise (IS NULL, IN, LIKE, CASE, <>, text and
// cross-kind comparisons, arithmetic over boxed and NULL values) and the join
// shapes whose output is a column batch whichever layout feeds them; TBL is the
// table. Each is compared as a sorted row set, so only LIMIT queries need a
// total order.
var vectorQueries = []string{
	"SELECT g, count(*), sum(q), min(amt), max(amt), avg(amt) FROM TBL GROUP BY g ORDER BY g",
	"SELECT count(*), sum(amt * q) FROM TBL WHERE q BETWEEN 10 AND 40 AND g < 32",
	"SELECT count(*), sum(amt) FROM TBL WHERE d BETWEEN 100 AND 123",
	"SELECT count(*), sum(amt) FROM TBL WHERE d BETWEEN 300 AND 323",
	"SELECT tag, count(*), sum(amt) FROM TBL GROUP BY tag ORDER BY tag",
	"SELECT d, sum(amt) FROM TBL GROUP BY d ORDER BY 2 DESC, 1 LIMIT 10",
	"SELECT k, amt FROM TBL WHERE q = 7 ORDER BY amt DESC, k LIMIT 100",
	"SELECT count(*), count(g), count(amt), count(tag), count(ok), count(day), count(mix) FROM TBL",
	"SELECT k FROM TBL WHERE g IS NULL OR tag IS NULL OR day IS NULL",
	"SELECT count(*) FROM TBL WHERE amt IS NOT NULL AND ok IS NOT NULL",
	"SELECT k, g FROM TBL WHERE g IN (3, 5, 36) AND q <> 7 AND k < 3000",
	"SELECT tag, count(*) FROM TBL WHERE tag LIKE 'tag-1%' GROUP BY tag",
	"SELECT count(*) FROM TBL WHERE tag >= 'tag-07' AND tag < 'tag-12'",
	"SELECT count(*) FROM TBL WHERE tag <> 'tag-03'",
	"SELECT count(*), sum(q) FROM TBL WHERE amt > 1000 AND amt <= 2500.25",
	"SELECT count(*) FROM TBL WHERE q > 24.5",
	"SELECT count(*) FROM TBL WHERE amt = 17",
	"SELECT count(*) FROM TBL WHERE 20 > q AND 3 <= g",
	"SELECT count(*), min(mix), max(mix), sum(mix) FROM TBL WHERE mix > 10",
	"SELECT count(*) FROM TBL WHERE mix = 7",
	"SELECT k, mix, mix * 2, mix + q, mix - amt, amt / q, q / 3, k - g FROM TBL WHERE k % 211 = 0",
	"SELECT CASE WHEN q < 10 THEN 'low' WHEN q < 40 THEN 'mid' ELSE 'high' END, count(*), sum(amt + 1) FROM TBL GROUP BY CASE WHEN q < 10 THEN 'low' WHEN q < 40 THEN 'mid' ELSE 'high' END",
	"SELECT ok, count(*), min(day), max(day) FROM TBL WHERE day >= '2021-06-01' GROUP BY ok",
	"SELECT g, q, count(*), sum(amt * 2 - q) FROM TBL WHERE ok GROUP BY g, q",
	"SELECT q + g, count(*) FROM TBL WHERE NOT (q BETWEEN 5 AND 45) GROUP BY q + g",
	"SELECT k, tag FROM TBL WHERE k > 16000 ORDER BY k LIMIT 7 OFFSET 3",
	"SELECT k, q, mix FROM TBL WHERE k % 7 = 3 AND k < 200",
	"SELECT count(*) FROM TBL WHERE k % 13 = 5",
	"SELECT sum(q / (g - 3)) FROM TBL WHERE g > 3",
	"SELECT a.g, count(*), sum(b.amt) FROM TBL a JOIN fh b ON a.k = b.k WHERE b.q < 5 AND a.d > 50 GROUP BY a.g",
	"SELECT a.k, b.tag FROM fh a JOIN TBL b ON a.g = b.q AND a.k = b.k + 1 WHERE a.k < 500 ORDER BY a.k DESC LIMIT 20",
	"SELECT k, tag, amt FROM TBL WHERE d = 7 ORDER BY tag, amt DESC, k",
	"SELECT a.g, count(*), count(b.tag), sum(b.amt) FROM TBL a LEFT JOIN fh b ON a.k = b.k + 1 AND b.q > 25 WHERE a.k < 3000 GROUP BY a.g",
	"SELECT a.k, b.mix, c.tag FROM TBL a JOIN fh b ON a.k = b.k JOIN TBL c ON b.g = c.k WHERE a.d < 30",
	"SELECT a.k, b.q FROM fh b JOIN TBL a ON a.k = b.k AND a.amt > b.q * 40",
	"SELECT a.tag, b.day FROM TBL a JOIN fh b ON a.k = b.k WHERE b.q = 9 ORDER BY a.tag, b.day, a.k LIMIT 15",
	"SELECT count(*), count(a.g), min(b.day) FROM TBL a JOIN fh b ON a.g = b.k",
}

var actualRowsRE = regexp.MustCompile(`\(actual rows=(\d+) `)

// unsargable respells q's WHERE clause as CASE WHEN <clause> THEN 1 END = 1:
// the same rows pass, and no conjunct has a shape the planner pushes to the
// zone maps.
func unsargable(q string) string {
	i := strings.Index(q, " WHERE ")
	if i < 0 {
		return q
	}
	end := len(q)
	for _, kw := range []string{" GROUP BY ", " ORDER BY ", " LIMIT "} {
		if j := strings.Index(q[i:], kw); j >= 0 && i+j < end {
			end = i + j
		}
	}
	return q[:i] + " WHERE CASE WHEN " + q[i+len(" WHERE "):end] + " THEN 1 END = 1" + q[end:]
}

// TestColumnLayoutMatchesHeap: the same rows in a heap and an AO-column table
// answer every query identically — the column layout, the typed kernels and
// every fallback agree with the row path — with the WHERE clause spelled as
// written, whose sargable conjuncts skip blocks, and spelled unsargably, which
// skips none; EXPLAIN ANALYZE reports the same actual rows for every plan
// node.
func TestColumnLayoutMatchesHeap(t *testing.T) {
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	loadVectorTables(t, s)
	var pushedSkips int64
	for _, pushed := range []bool{true, false} {
		for _, q := range vectorQueries {
			if !pushed {
				q = unsargable(q)
			}
			name := fmt.Sprintf("pushed %v: %s", pushed, q)
			var rows, actuals [2]string
			for i, tab := range []string{"fh", "fc"} {
				before := blocksSkipped(t, s)
				res, err := s.Exec(ctx, strings.ReplaceAll(q, "TBL", tab))
				if err != nil {
					t.Fatalf("%s on %s: %v", name, tab, err)
				}
				skipped := blocksSkipped(t, s) - before
				if !pushed && skipped != 0 {
					t.Fatalf("%s on %s: skipped %d blocks with nothing pushed", name, tab, skipped)
				}
				pushedSkips += skipped
				rows[i] = sortedRows(res)
				res, err = s.Exec(ctx, "EXPLAIN ANALYZE "+strings.ReplaceAll(q, "TBL", tab))
				if err != nil {
					t.Fatalf("%s on %s: EXPLAIN ANALYZE: %v", name, tab, err)
				}
				actuals[i] = fmt.Sprint(actualRowsRE.FindAllStringSubmatch(rowsText(res), -1))
			}
			if rows[0] != rows[1] {
				t.Fatalf("%s\nheap:\n%s\nao_column:\n%s", name, rows[0], rows[1])
			}
			if actuals[0] != actuals[1] || actuals[0] == "[]" {
				t.Fatalf("%s: actual rows per node differ\nheap:      %s\nao_column: %s", name, actuals[0], actuals[1])
			}
		}
	}
	if pushedSkips == 0 {
		t.Fatal("no query skipped a block through its sargable conjuncts")
	}
	if _, err := s.Exec(ctx, "SELECT sum(q / (g - 3)) FROM fc"); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("division by zero over vectors: %v", err)
	}
}

// TestColumnScanAllocations is the allocation gate of the column layout, by
// count and not by clock: a warm GROUP BY over a 100 000-row AO-column table
// allocates at most 8 bytes per row scanned (it was about 290 when every
// batch was rebuilt as rows of datums) — with an int key, with a text key,
// and for an ORDER BY … LIMIT, whose per-segment top-N gathers a row out of
// the vectors only when it beats the worst row kept.
func TestColumnScanAllocations(t *testing.T) {
	const nRows, runs = 100000, 5
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	loadAnalyticsTable(t, s, nRows)
	mustExec(t, s, "CREATE TABLE ft (a int, tag text, amt float) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "ft", nRows, 0, func(i int) string { return fmt.Sprintf("(%d,'tag-%02d',%d.25)", i, i%16, (i*7919)%4000) })
	ctx := context.Background()
	for _, c := range []struct {
		q    string
		rows int
	}{
		{"SELECT g, count(*), sum(a), min(w), max(a) FROM f WHERE w < 6 GROUP BY g", 37},
		{"SELECT tag, count(*), sum(amt) FROM ft GROUP BY tag", 16},
		{"SELECT a, amt FROM ft ORDER BY amt DESC, a LIMIT 10", 10},
	} {
		run := func() {
			res, err := s.Exec(ctx, c.q)
			if err != nil || len(res.Rows) != c.rows {
				t.Fatalf("%s: %v rows, err %v", c.q, len(res.Rows), err)
			}
		}
		run() // decode every block into the cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs * nRows)
		t.Logf("%s: %.2f bytes allocated per row scanned", c.q, perRow)
		if perRow > 8 {
			t.Fatalf("%s: warm allocates %.1f bytes per row scanned, want <= 8", c.q, perRow)
		}
	}
}

// TestHeapScanAllocations is the heap scan's allocation gate, by count and
// not by clock: a warm filtered aggregate over 60 000 heap rows allocates at
// most 4 bytes per row scanned. It was about 27 while the scan handed every
// batch of rows up in a fresh container.
func TestHeapScanAllocations(t *testing.T) {
	const nRows, runs = 60000, 5
	e := NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	mustExec(t, s, "CREATE TABLE o (a int, b int, c int) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "o", nRows, 0, func(i int) string { return fmt.Sprintf("(%d,%d,%d)", i, i%100, i%7) })
	perRow := allocPerRow(t, s, "SELECT count(*), sum(b) FROM o WHERE c >= 0", runs, nRows, func(res *Result) {
		if got := rowsText(res); got != fmt.Sprintf("int:%d|int:%d\n", nRows, nRows/100*4950) {
			t.Fatalf("count and sum: %s", got)
		}
	})
	t.Logf("%.2f bytes allocated per row scanned", perRow)
	if perRow > 4 {
		t.Fatalf("warm heap scan + aggregate allocates %.1f bytes per row scanned, want <= 4", perRow)
	}
}

// TestCountDuringSealingInserts: SELECT count(*) over an AO-column table
// never returns fewer rows than were committed before it began, while
// autocommit INSERTs carry the table across a 4 096-row block boundary —
// sealing the tail under scans already in flight.
func TestCountDuringSealingInserts(t *testing.T) {
	e := NewEngine(cluster.GPDB6(1))
	defer e.Close()
	w, _ := e.NewSession("")
	ctx := context.Background()
	if _, err := w.Exec(ctx, "CREATE TABLE c (a int, b text) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"); err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		var sb strings.Builder
		for i := from; i < to; i++ {
			fmt.Fprintf(&sb, ",(%d,'row')", i)
		}
		if _, err := w.Exec(ctx, "INSERT INTO c VALUES "+sb.String()[1:]); err != nil {
			t.Error(err)
		}
	}
	for round := 0; round < 4; round++ {
		if _, err := w.Exec(ctx, "TRUNCATE c"); err != nil {
			t.Fatal(err)
		}
		insert(0, 3900)
		var committed atomic.Int64
		committed.Store(3900)
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, _ := e.NewSession("")
				for {
					select {
					case <-done:
						return
					default:
					}
					floor := committed.Load()
					res, err := s.Exec(ctx, "SELECT count(*) FROM c")
					if err != nil {
						t.Error(err)
						return
					}
					if n := res.Rows[0][0].Int(); n < floor || n > 4400 {
						t.Errorf("round %d: count(*) = %d, %d rows were committed before it began", round, n, floor)
						return
					}
				}
			}()
		}
		for at := 3900; at < 4400; at += 10 {
			insert(at, at+10)
			committed.Store(int64(at + 10))
		}
		close(done)
		wg.Wait()
	}
}
