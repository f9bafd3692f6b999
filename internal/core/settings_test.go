package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// settingCase is what TestSettingTable checks for one declared setting.
type settingCase struct {
	// def is the default's canonical text for the test engine's Config.
	def func(cfg *cluster.Config) string
	// valid maps each accepted spelling to the canonical text SHOW answers.
	valid map[string]string
	// invalid spellings must be rejected and leave the value as it was.
	invalid []string
	// planShaping settings are part of the plan-cache key.
	planShaping bool
}

var onOffSpellings = map[string]string{
	"on": "on", "TRUE": "on", "1": "on", "yes": "on",
	"off": "off", "False": "off", "0": "off", "no": "off",
}

func itoa(f func(*cluster.Config) int) func(*cluster.Config) string {
	return func(cfg *cluster.Config) string { return strconv.Itoa(f(cfg)) }
}

func constant(s string) func(*cluster.Config) string {
	return func(*cluster.Config) string { return s }
}

var settingCases = map[string]settingCase{
	"optimizer": {
		def:         constant("postgres"),
		valid:       map[string]string{"orca": "orca", "on": "orca", "OLAP": "orca", "postgres": "postgres", "off": "postgres", "oltp": "postgres"},
		invalid:     []string{"volcano", "2"},
		planShaping: true,
	},
	"memory_spill_ratio": {
		def:     itoa(func(cfg *cluster.Config) int { return cfg.MemorySpillRatio }),
		valid:   map[string]string{"35": "35", "0": "0", "100": "100"},
		invalid: []string{"150", "-1", "half"},
	},
	"statement_timeout": {
		def:     constant("0"),
		valid:   map[string]string{"250": "250", "0": "0"},
		invalid: []string{"-1", "soon"},
	},
	"trace_queries": {
		def:     constant("off"),
		valid:   onOffSpellings,
		invalid: []string{"maybe"},
	},
	"log_min_duration": {
		def:     constant("-1"),
		valid:   map[string]string{"0": "0", "-1": "-1", "15": "15"},
		invalid: []string{"-5", "never"},
	},
	"replica_mode": {
		def:     func(cfg *cluster.Config) string { return cfg.ReplicaMode.String() },
		valid:   map[string]string{"async": "async", "SYNC": "sync"},
		invalid: []string{"sideways", "1"},
	},
}

// TestSettingTable walks every declared setting: its default is the
// Config's, every accepted spelling reads back in canonical form, a rejected
// value changes neither the setting nor the plan key, and exactly the
// plan-shaping settings re-plan a cached statement.
func TestSettingTable(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.ReplicaMode = cluster.ReplicaSync // replica_mode is only settable with mirrors
	cfg.MemorySpillRatio = 33
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	ctx := context.Background()
	live := e.Cluster().Config()

	for name := range settingCases {
		if settingTable[name] == nil {
			t.Errorf("case for %q, which is not a declared setting", name)
		}
	}
	for name := range settingTable {
		tc, ok := settingCases[name]
		if !ok {
			t.Errorf("setting %q is declared but has no case in settingCases", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			s, err := e.NewSession("")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			show := func() string {
				t.Helper()
				res := mustExec(t, s, "SHOW "+name)
				if len(res.Columns) != 1 || res.Columns[0] != name || len(res.Rows) != 1 {
					t.Fatalf("SHOW %s: columns %v rows %v", name, res.Columns, res.Rows)
				}
				return res.Rows[0][0].Text()
			}
			if got, want := show(), tc.def(live); got != want {
				t.Fatalf("default = %q, want %q (from Config)", got, want)
			}
			for spelling, canonical := range tc.valid {
				mustExec(t, s, "SET "+name+" = "+spelling)
				if got := show(); got != canonical {
					t.Errorf("SET %s = %s: SHOW answers %q, want %q", name, spelling, got, canonical)
				}
			}
			before, key := show(), s.settings.planSettings
			for _, bad := range tc.invalid {
				if _, err := s.Exec(ctx, "SET "+name+" = "+bad); err == nil {
					t.Errorf("SET %s = %s accepted", name, bad)
				}
				if got := show(); got != before || s.settings.planSettings != key {
					t.Errorf("rejected SET %s = %s changed the session: %q -> %q", name, bad, before, got)
				}
			}
		})
	}

	// The plan key: one cached statement, one session per setting, and a SET
	// to a non-default value. Plan-shaping settings cost exactly one re-plan.
	admin, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	mustExec(t, admin, "CREATE TABLE kv (id int, v int) DISTRIBUTED BY (id)")
	mustExec(t, admin, "INSERT INTO kv VALUES (1, 1), (2, 2)")
	const q = "SELECT v FROM kv WHERE v > 0"
	mustExec(t, admin, q)
	planMisses := func(s *Session) int64 {
		t.Helper()
		for _, r := range mustExec(t, s, "SHOW plan_cache").Rows {
			if r[0].Text() == "plan_misses" {
				return r[1].Int()
			}
		}
		t.Fatal("SHOW plan_cache has no plan_misses row")
		return 0
	}
	nonDefault := map[string]string{
		"optimizer": "orca", "memory_spill_ratio": "50",
		"statement_timeout": "60000", "trace_queries": "on", "log_min_duration": "0",
		"replica_mode": "async",
	}
	for name, tc := range settingCases {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, q) // same defaults as admin: a hit
		m0 := planMisses(s)
		mustExec(t, s, "SET "+name+" = "+nonDefault[name])
		mustExec(t, s, q)
		want := int64(0)
		if tc.planShaping {
			want = 1
		}
		if step := planMisses(s) - m0; step != want {
			t.Errorf("SET %s = %s moved plan_misses by %d, want %d", name, nonDefault[name], step, want)
		}
		s.Close()
	}
}

// TestSetRejectsUnknownName: a typo'd name fails like SHOW of it does,
// instead of being stored and echoed while the real setting stays put; so do
// the planner switches the engine no longer has.
func TestSetRejectsUnknownName(t *testing.T) {
	_, s := newTestEngine(t, 2)
	ctx := context.Background()
	for _, name := range []string{"trace_querie", "enable_costopt", "enable_zonemaps", "broadcast_threshold"} {
		_, setErr := s.Exec(ctx, "SET "+name+" = on")
		_, showErr := s.Exec(ctx, "SHOW "+name)
		for _, err := range []error{setErr, showErr} {
			if err == nil || !strings.Contains(err.Error(), "unrecognized configuration parameter") {
				t.Fatalf("%s: want an unrecognized-parameter error, got %v", name, err)
			}
		}
	}
	if v := mustExec(t, s, "SHOW trace_queries").Rows[0][0].Text(); v != "off" {
		t.Fatalf("trace_queries = %q after a rejected typo, want off", v)
	}
}

// TestShowOptimizerFollowsEitherEntryPoint: SET optimizer and the Go
// SetOptimizer write one field, so SHOW cannot disagree with the planner.
func TestShowOptimizerFollowsEitherEntryPoint(t *testing.T) {
	_, s := newTestEngine(t, 2)
	show := func() string { return mustExec(t, s, "SHOW optimizer").Rows[0][0].Text() }
	mustExec(t, s, "SET optimizer = on")
	if got := show(); got != "orca" {
		t.Fatalf("after SET optimizer = on: %q, want orca", got)
	}
	if err := s.SetOptimizer("postgres"); err != nil {
		t.Fatal(err)
	}
	if got := show(); got != "postgres" {
		t.Fatalf("after SetOptimizer(postgres): %q, want postgres", got)
	}
	if err := s.SetOptimizer("orca"); err != nil {
		t.Fatal(err)
	}
	if got := show(); got != "orca" || !s.settings.costBased() {
		t.Fatalf("after SetOptimizer(orca): SHOW %q, cost-based %v", got, s.settings.costBased())
	}
}
