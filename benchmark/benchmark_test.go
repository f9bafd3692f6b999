package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// testOptions runs every workload at 1/50 scale with a 0.3s window.
func testOptions(t *testing.T) options {
	return options{seed: 1, scale: 50, window: 300 * time.Millisecond, outDir: t.TempDir()}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts res carries exactly the named metrics, once each,
// finite, with their units.
func checkMetrics(t *testing.T, res *result, names, units []string, nonZero bool) map[string]float64 {
	t.Helper()
	got, unit := map[string]float64{}, map[string]string{}
	for _, m := range res.metrics {
		if _, dup := got[m.name]; dup {
			t.Errorf("%s: metric %s emitted twice", res.workload, m.name)
		}
		got[m.name], unit[m.name] = m.value, m.unit
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			t.Errorf("%s: metric %s = %v", res.workload, m.name, m.value)
		}
		if nonZero && m.value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.workload, m.name, m.value)
		}
	}
	if len(got) != len(names) {
		t.Errorf("%s: %d metrics, want %d", res.workload, len(got), len(names))
	}
	for i, name := range names {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if _, ok := got[name]; !ok {
			t.Errorf("%s: metric %s missing", res.workload, name)
		} else if unit[name] != units[i] {
			t.Errorf("%s: metric %s has unit %q, want %q", res.workload, name, unit[name], units[i])
		}
	}
	return got
}

func TestWorkloads(t *testing.T) {
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range endToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.name), append(e2eUnits, m.unit)
	}
	for _, m := range perLayer {
		layerNames, layerUnits = append(layerNames, m.name), append(layerUnits, m.unit)
	}
	ctx := context.Background()
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := testOptions(t)
			var out bytes.Buffer
			res, err := measure(ctx, &out, sp, o)
			if err != nil {
				t.Fatalf("measure: %v\n%s", err, out.String())
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("measure: correct=%v attempted=%d failed=%d\n%s", res.correct, res.attempted, res.failed, out.String())
			}
			checkMetrics(t, res, e2eNames, e2eUnits, true)
			var line bytes.Buffer
			if err := report(&line, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(line.String()), "\n")
			var js map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := js[key]; !ok {
					t.Errorf("result line has no %q", key)
				}
			}
			if len(js) != 4 {
				t.Errorf("result line has %d keys, want 4", len(js))
			}

			out.Reset()
			res, err = traced(ctx, &out, sp, o)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, out.String())
			}
			if !res.correct {
				t.Fatalf("traced pass failed its gate\n%s", out.String())
			}
			L := checkMetrics(t, res, layerNames, layerUnits, false)
			data, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+sp.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct{ Spans []span }
			if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(file.Spans), err)
			}
			if f := L["obs.attributed_frac"]; f <= 0 || f > 1.0001 {
				t.Errorf("obs.attributed_frac = %v, want in (0, 1]", f)
			}
			if n := L["obs.unnested_stmts"]; n != 0 {
				t.Errorf("obs.unnested_stmts = %v: operator spans did not nest into one plan tree\n%s", n, out.String())
			}
			// What each workload must and must not reach.
			switch sp.name {
			case "point_1pc":
				// Every write goes to one segment and commits in one phase. The
				// engine dispatches only DML directly; a point SELECT goes to the
				// whole gang, so the mean over all statements is between 1 and 4.
				if L["dtm.onephase_ratio"] < 0.99 || L["cluster.segments_per_write"] != 1 || L["storage.blocks_skipped_ratio"] != 0 {
					t.Errorf("point_1pc: onephase_ratio=%v segments_per_write=%v blocks_skipped_ratio=%v, want >=0.99, 1, 0",
						L["dtm.onephase_ratio"], L["cluster.segments_per_write"], L["storage.blocks_skipped_ratio"])
				}
				if s := L["cluster.segments_per_stmt"]; s <= 1 || s >= segments {
					t.Errorf("point_1pc: segments_per_stmt=%v, want between 1 and %d", s, segments)
				}
			case "tpcb_wire":
				if L["dtm.onephase_ratio"] > 0.15 || L["cluster.segments_per_write"] != 1 || L["server.wire_us_per_stmt"] <= 0 {
					t.Errorf("tpcb_wire: onephase_ratio=%v segments_per_write=%v wire_us_per_stmt=%v, want <=0.15, 1, >0",
						L["dtm.onephase_ratio"], L["cluster.segments_per_write"], L["server.wire_us_per_stmt"])
				}
			case "scan_aocol":
				if L["storage.blocks_skipped_ratio"] <= 0 || L[classScan] <= 0 {
					t.Errorf("scan_aocol: blocks_skipped_ratio=%v op_scan_share=%v, want both > 0", L["storage.blocks_skipped_ratio"], L[classScan])
				}
			case "htap_ch":
				if L[classMotion] <= 0 || L[classJoin] <= 0 {
					t.Errorf("htap_ch: motion_share=%v op_join_share=%v, want both > 0", L[classMotion], L[classJoin])
				}
			}
		})
	}
}

// A skipped history insert must trip the gate.
func TestPlantedWrongAnswer(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-workload", "tpcb_wire", "-scale", "50", "-seconds", "0.2", "-plant"}, &out, &out)
	if code == 0 || !strings.Contains(out.String(), "GATE FAILED") || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("planted wrong answer: exit code %d\n%s", code, out.String())
	}
}

// engineTree nests the engine's flat operator spans along the plan, and
// refuses a trace whose spans do not make exactly one tree of known operators.
func TestEngineTreeNesting(t *testing.T) {
	build := func(ops ...string) *obs.Trace {
		tr := obs.NewTrace(1, "test")
		root := tr.Begin(0, "query", -1)
		exec := tr.Begin(root.ID(), "execute", -1)
		for _, op := range ops {
			name, seg, _ := strings.Cut(op, "@")
			tr.Record(exec.ID(), name, int(seg[0]-'0'), time.Now(), time.Millisecond)
		}
		exec.End()
		root.End()
		return tr
	}
	// A self-join: the two scans of t are two operators, told apart by the
	// segment that repeats.
	tree, _, err := engineTree(build("Hash Join (inner)@0", "Hash Join (inner)@1",
		"Seq Scan on t@0", "Seq Scan on t@1", "Seq Scan on t@0", "Seq Scan on t@1"), time.Now())
	if err != nil {
		t.Fatalf("self-join: %v", err)
	}
	for _, join := range tree.Children[0].Children { // query → execute → the join at each segment
		if len(join.Children) != 2 {
			t.Errorf("self-join at segment %d has %d children, want 2", join.Seg, len(join.Children))
		}
	}
	for name, ops := range map[string][]string{
		"a join with one child": {"Hash Join (inner)@0", "Seq Scan on t@0"},
		"two trees":             {"Seq Scan on t@0", "Sort@0"},
		"an unknown operator":   {"Merge Join@0", "Seq Scan on t@0", "Seq Scan on u@0"},
	} {
		if _, _, err := engineTree(build(ops...), time.Now()); err == nil {
			t.Errorf("%s: engineTree accepted it", name)
		}
	}
}

// With one client the traced pass's counts depend on the seed alone.
func TestTracedCountsRepeat(t *testing.T) {
	sp, err := findSpec("point_1pc")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]map[string]float64
	for i := range runs {
		var out bytes.Buffer
		res, err := traced(context.Background(), &out, sp, testOptions(t))
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = map[string]float64{}
		for _, m := range res.metrics {
			runs[i][m.name] = m.value
		}
	}
	for _, name := range []string{"wal.records_per_op", "wal.bytes_per_op", "wal.flushes_per_op", "dtm.onephase_ratio",
		"cluster.segments_per_stmt", "core.stmtcache_hit_ratio", "storage.blocks_scanned_per_query", "txn.aborts_per_kop"} {
		if runs[0][name] != runs[1][name] {
			t.Errorf("%s: %v then %v with the same seed", name, runs[0][name], runs[1][name])
		}
	}
}

// BENCHMARK.json and the tables in this package must say the same thing.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(file.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := file.Workloads[i]; w.Name != sp.name || w.Why != sp.why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the package %q / %q", i, w.Name, w.Why, sp.name, sp.why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the package", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is above the driver's limit of 0.25", m.name, m.bound)
		}
		if e := file.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != better(m.higher) || e.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the package %+v", i, e, m)
		}
	}
	if len(file.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the package", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := file.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != better(m.higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the package %+v", i, e, m)
		}
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("run_seconds=%d paths=%v", file.RunSeconds, file.Paths)
	}
}
