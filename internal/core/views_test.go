package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// viewLabels pins every key/value view's row labels, in order: the SHOW
// surface scripts and tests parse.
var viewLabels = map[string][]string{
	"scan_stats":      {"blocks_scanned", "blocks_skipped", "cache_hits", "cache_misses", "cache_evictions", "cache_used_bytes", "cache_entries"},
	"spill_stats":     {"spills", "spill_bytes", "spill_files", "spill_mem_peak", "vmem_peak"},
	"wal_stats":       {"wal_records", "wal_bytes", "wal_flushes", "mirror_applied_lsn", "failovers", "replay_lsn"},
	"optimizer_stats": {"analyzed_tables", "misestimates", "robust_fallbacks"},
	"plan_cache":      {"hits", "misses", "plan_hits", "plan_misses", "entries", "evictions", "epoch"},
	"fault_stats": {"armed_specs", "point_hits", "point_triggers", "dispatch_retries",
		"breaker_opens", "breaker_fast_fails", "wal_truncations", "wal_truncated_bytes", "spill_leaks"},
}

// TestViewTable walks every declared key/value view: the labels and their
// order are the pinned ones, and each value is the named registry series.
func TestViewTable(t *testing.T) {
	e, s := newTestEngine(t, 3)
	mustExec(t, s, "CREATE TABLE t (a int, b int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "t", 3000, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i%7) })
	mustExec(t, s, "ANALYZE t")
	mustExec(t, s, "SELECT count(*) FROM t WHERE a < 100")
	mustExec(t, s, "SELECT count(*) FROM t WHERE a < 100")
	// Nothing here spills, so this spec never fires; arming it gives
	// fault_stats a nonzero value to compare against its series.
	mustExec(t, s, "FAULT INJECT spill_write ACTION error")

	for name, v := range viewTable {
		if (len(v.series) > 0) != (viewLabels[name] != nil) {
			t.Errorf("view %q: has series = %v, has pinned labels = %v", name, len(v.series) > 0, viewLabels[name] != nil)
		}
	}
	for name, want := range viewLabels {
		v, ok := viewTable[name]
		if !ok {
			t.Errorf("pinned view %q is not declared", name)
			continue
		}
		res := mustExec(t, s, "SHOW "+name)
		// Nothing runs between the SHOW and this snapshot, so they agree.
		snap := e.Metrics().Snapshot()
		if !reflect.DeepEqual(res.Columns, []string{"stat", "value"}) {
			t.Errorf("SHOW %s columns = %v", name, res.Columns)
		}
		if len(res.Rows) < len(want) {
			t.Errorf("SHOW %s: %d rows, want at least %d", name, len(res.Rows), len(want))
			continue
		}
		nonZero := false
		for i, label := range want {
			if got := res.Rows[i][0].Text(); got != label {
				t.Errorf("SHOW %s row %d = %q, want %q", name, i, got, label)
			}
			series := v.series[i].series
			sv, registered := snap.Values[series]
			if !registered {
				t.Errorf("SHOW %s: %s reads series %q, which is not registered", name, label, series)
			}
			if got := res.Rows[i][1].Int(); got != sv {
				t.Errorf("SHOW %s: %s = %d, series %s = %d", name, label, got, series, sv)
			}
			nonZero = nonZero || sv != 0
		}
		if !nonZero && name != "spill_stats" { // nothing spilled: no resource group
			t.Errorf("SHOW %s: every value is 0 after a workload", name)
		}
	}
	// fault_stats ends with one text row per segment's breaker.
	res := mustExec(t, s, "SHOW fault_stats")
	tail := res.Rows[len(viewLabels["fault_stats"]):]
	if len(tail) != 3 || tail[0][0].Text() != "breaker_seg0" || tail[2][0].Text() != "breaker_seg2" || tail[0][1].Text() != "closed" {
		t.Errorf("SHOW fault_stats breaker rows = %v", tail)
	}
	if _, err := s.Exec(context.Background(), "SHOW nonsense"); err == nil || !strings.Contains(err.Error(), "unrecognized configuration parameter") {
		t.Errorf("SHOW nonsense: %v", err)
	}
}

// TestOptimizerViewReadsRegistry: after an ANALYZE, a misestimate and
// its robust re-run, SHOW optimizer_stats and the optimizer.* rows of SHOW
// gp_stat_metrics are the same non-zero numbers.
func TestOptimizerViewReadsRegistry(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE corr (a int, b int) DISTRIBUTED BY (a)")
	bulkInsert(t, s, "corr", 5000, 0, func(i int) string { return fmt.Sprintf("(%d,%d)", i, i) })
	mustExec(t, s, "SET optimizer = orca")
	mustExec(t, s, "ANALYZE corr")
	const q = "SELECT count(*) FROM corr WHERE a < 1000 AND b < 1000"
	mustExec(t, s, q) // breaks the independence estimate
	mustExec(t, s, q) // so this one takes the robust plan

	metrics := map[string]int64{}
	for _, r := range mustExec(t, s, "SHOW gp_stat_metrics").Rows {
		metrics[r[0].Text()] = r[1].Int()
	}
	for _, r := range mustExec(t, s, "SHOW optimizer_stats").Rows {
		label, v := r[0].Text(), r[1].Int()
		mv, ok := metrics["optimizer."+label]
		if !ok || mv != v || v < 1 {
			t.Errorf("optimizer_stats %s = %d, gp_stat_metrics optimizer.%s = %d (present %v); want equal and >= 1", label, v, label, mv, ok)
		}
	}
}

// TestLockWaitTimeResolution: a 50 ms blocked UPDATE shows up in the registry
// (the series used to be whole seconds, so it read 0).
func TestLockWaitTimeResolution(t *testing.T) {
	e, s1 := newTestEngine(t, 2)
	s2, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustExec(t, s1, "CREATE TABLE t (a int, b int) DISTRIBUTED BY (a)")
	mustExec(t, s1, "INSERT INTO t VALUES (1, 0)")
	mustExec(t, s1, "BEGIN")
	mustExec(t, s1, "UPDATE t SET b = 1 WHERE a = 1")
	done := make(chan error, 1)
	go func() {
		_, err := s2.Exec(context.Background(), "UPDATE t SET b = 2 WHERE a = 1")
		done <- err
	}()
	// Hold the row lock until the second UPDATE is waiting on it, then 50 ms.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if waited, _ := e.Cluster().LockWaitStats(); waited > 0 { // counts queued waiters too
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second UPDATE never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	mustExec(t, s1, "COMMIT")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	snap := e.Metrics().Snapshot()
	if us := snap.Values["lock.wait_micros_total"]; us < 50_000 {
		t.Fatalf("lock.wait_micros_total = %d after a >= 50 ms wait (lock.waits = %d)", us, snap.Values["lock.waits"])
	}
}

// TestObservabilityDocListsEverything fails when a declared setting, a
// declared view or a registered series is missing from the catalog in
// docs/OBSERVABILITY.md.
func TestObservabilityDocListsEverything(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	e, _ := newTestEngine(t, 2)
	var names []string
	for name := range settingTable {
		names = append(names, name)
	}
	for name, v := range viewTable {
		names = append(names, name)
		for _, kv := range v.series {
			names = append(names, kv.series)
		}
	}
	names = append(names, e.Metrics().Snapshot().Names()...)
	for _, name := range names {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("docs/OBSERVABILITY.md does not mention `%s`", name)
		}
	}
}
