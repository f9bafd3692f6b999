package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// faultStats runs SHOW fault_stats and returns the stat→value rows.
func faultStats(t *testing.T, s *Session) map[string]types.Datum {
	t.Helper()
	res := mustExec(t, s, "SHOW fault_stats")
	out := make(map[string]types.Datum, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].Text()] = r[1]
	}
	return out
}

// TestFaultSQLLifecycle drives the whole admin surface through SQL:
// inject, observe it fire via STATUS and SHOW fault_stats, reset, and
// confirm the registry is clean again.
func TestFaultSQLLifecycle(t *testing.T) {
	_, s := newTestEngine(t, 2)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")

	res := mustExec(t, s, "FAULT STATUS")
	if res.Tag != "FAULT STATUS" || len(res.Rows) != 0 {
		t.Fatalf("initial status: tag=%q rows=%v", res.Tag, res.Rows)
	}
	want := []string{"point", "segment", "action", "hits", "triggers", "exhausted"}
	if len(res.Columns) != len(want) {
		t.Fatalf("status columns: %v", res.Columns)
	}
	for i, c := range want {
		if res.Columns[i] != c {
			t.Fatalf("status column %d = %q, want %q", i, res.Columns[i], c)
		}
	}

	// A bounded dispatch_send error is absorbed by the retry loop, so the
	// statement still succeeds while the spec's counters move.
	res = mustExec(t, s, "FAULT INJECT 'dispatch_send' ACTION 'error' SEGMENT -1 COUNT 2")
	if res.Tag != "FAULT INJECT" {
		t.Fatalf("inject tag %q", res.Tag)
	}
	res = mustExec(t, s, "FAULT STATUS")
	if len(res.Rows) != 1 {
		t.Fatalf("status rows after inject: %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Text() != "dispatch_send" || row[1].Int() != -1 || row[2].Text() != "error" {
		t.Fatalf("status row: %v", row)
	}
	if row[5].Text() != "off" {
		t.Fatalf("fresh spec already exhausted: %v", row)
	}

	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20)")

	res = mustExec(t, s, "FAULT STATUS")
	row = res.Rows[0]
	if row[3].Int() == 0 || row[4].Int() != 2 {
		t.Fatalf("spec did not fire: hits=%d triggers=%d", row[3].Int(), row[4].Int())
	}
	if row[5].Text() != "on" {
		t.Fatalf("count-capped spec not exhausted: %v", row)
	}

	st := faultStats(t, s)
	if st["armed_specs"].Int() != 1 {
		t.Fatalf("armed_specs = %d", st["armed_specs"].Int())
	}
	if st["point_triggers"].Int() < 2 || st["dispatch_retries"].Int() < 2 {
		t.Fatalf("stats did not move: %v / %v", st["point_triggers"], st["dispatch_retries"])
	}
	for seg := 0; seg < 2; seg++ {
		key := "breaker_seg" + string(rune('0'+seg))
		if st[key].Text() != "closed" {
			t.Fatalf("%s = %q", key, st[key].Text())
		}
	}

	res = mustExec(t, s, "FAULT RESET 'dispatch_send'")
	if res.Tag != "FAULT RESET" || res.RowsAffected != 1 {
		t.Fatalf("reset: tag=%q n=%d", res.Tag, res.RowsAffected)
	}
	if res = mustExec(t, s, "FAULT STATUS"); len(res.Rows) != 0 {
		t.Fatalf("specs survive reset: %v", res.Rows)
	}
	// Lifetime counters survive the reset.
	if st = faultStats(t, s); st["point_triggers"].Int() < 2 {
		t.Fatalf("reset erased lifetime counters: %v", st["point_triggers"])
	}

	// Bare RESET clears everything and is idempotent.
	mustExec(t, s, "FAULT INJECT wal_append ACTION skip SEGMENT 0")
	mustExec(t, s, "FAULT INJECT spill_write ACTION error")
	if res = mustExec(t, s, "FAULT RESET"); res.RowsAffected != 2 {
		t.Fatalf("reset-all cleared %d specs", res.RowsAffected)
	}
	if res = mustExec(t, s, "FAULT RESET"); res.RowsAffected != 0 {
		t.Fatalf("second reset-all cleared %d specs", res.RowsAffected)
	}

	mustExec(t, s, "INSERT INTO t VALUES (3, 30)")
	if res = mustExec(t, s, "SELECT count(*) FROM t"); res.Rows[0][0].Int() != 3 {
		t.Fatalf("post-reset count: %v", res.Rows)
	}
	_ = ctx
}

// TestAnalyzeRetriesDispatchFault: ANALYZE dispatches each segment's sample
// scan like any statement — a one-shot dispatch_send fault is retried and
// counted, the sample is taken once, and the blocks it read count in the
// cumulative scan totals.
func TestAnalyzeRetriesDispatchFault(t *testing.T) {
	e, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "t", 200, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%10) })
	var scanned, skipped int64
	for _, l := range planText(mustExec(t, s, "EXPLAIN ANALYZE SELECT * FROM t")) {
		fmt.Sscanf(l, "blocks: scanned=%d skipped=%d", &scanned, &skipped)
	}
	if scanned == 0 {
		t.Fatal("a full scan of t read no blocks")
	}
	retries0, blocks0 := metric(e.Metrics(), "dispatch.retries"), metric(e.Metrics(), "storage.scan.blocks_scanned")
	mustExec(t, s, "FAULT INJECT 'dispatch_send' ACTION 'error' SEGMENT 1 COUNT 1")
	mustExec(t, s, "ANALYZE t")
	if got := metric(e.Metrics(), "dispatch.retries") - retries0; got != 1 {
		t.Fatalf("dispatch.retries rose by %d over ANALYZE, want 1", got)
	}
	if got := metric(e.Metrics(), "storage.scan.blocks_scanned") - blocks0; got != scanned {
		t.Fatalf("storage.scan.blocks_scanned rose by %d over ANALYZE, want the full scan's %d", got, scanned)
	}
	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	if txt := explainText(t, s, "SELECT a FROM t"); !strings.Contains(txt, "rows=200 ") {
		t.Fatalf("the sample did not see each of the 200 rows once:\n%s", txt)
	}
}

// TestFaultSQLInjectGrammar covers the clause forms the parser accepts:
// identifier vs string point names, every optional clause, and clause
// order independence.
func TestFaultSQLInjectGrammar(t *testing.T) {
	_, s := newTestEngine(t, 2)

	mustExec(t, s, "FAULT INJECT dispatch_send")
	res := mustExec(t, s, "FAULT STATUS")
	if len(res.Rows) != 1 || res.Rows[0][2].Text() != "error" {
		t.Fatalf("default action: %v", res.Rows)
	}
	if res.Rows[0][1].Int() != -1 {
		t.Fatalf("default segment: %v", res.Rows)
	}
	mustExec(t, s, "FAULT RESET")

	// Clauses in arbitrary order, string action, explicit everything.
	mustExec(t, s, "FAULT INJECT 'twopc_prepare' PROBABILITY 25 SEED 42 ACTION 'sleep' SLEEP 1 SEGMENT 1 START 2 COUNT 5 MESSAGE 'boom'")
	res = mustExec(t, s, "FAULT STATUS")
	row := res.Rows[0]
	if row[0].Text() != "twopc_prepare" || row[1].Int() != 1 || row[2].Text() != "sleep" {
		t.Fatalf("full-clause spec: %v", row)
	}
	mustExec(t, s, "FAULT RESET")

	// RESUME with no armed hang touches nothing.
	if res = mustExec(t, s, "FAULT RESUME 'dispatch_send'"); res.Tag != "FAULT RESUME" || res.RowsAffected != 0 {
		t.Fatalf("resume: tag=%q n=%d", res.Tag, res.RowsAffected)
	}
}

// TestFaultSQLValidation: bad specs are rejected at the session layer with
// errors a human can act on, and leave nothing armed.
func TestFaultSQLValidation(t *testing.T) {
	_, s := newTestEngine(t, 1)
	ctx := context.Background()
	cases := []struct{ q, needle string }{
		{"FAULT INJECT dispatch_send ACTION explode", "unknown fault action"},
		{"FAULT INJECT dispatch_send PROBABILITY 150", "probability"},
	}
	for _, tc := range cases {
		_, err := s.Exec(ctx, tc.q)
		if err == nil || !strings.Contains(err.Error(), tc.needle) {
			t.Fatalf("Exec(%q) = %v, want %q", tc.q, err, tc.needle)
		}
	}
	if res := mustExec(t, s, "FAULT STATUS"); len(res.Rows) != 0 {
		t.Fatalf("rejected specs left state behind: %v", res.Rows)
	}
}
