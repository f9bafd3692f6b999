package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/plan"
)

// sessionSettings are a session's typed settings. SET assigns them through
// settingTable; the statement path reads them as plain fields.
type sessionSettings struct {
	// planSettings are the plan-shaping ones: the plan-cache key embeds this
	// same struct, so a setting that lives here re-plans when it changes and
	// one that lives below cannot.
	planSettings
	// spillRatio is memory_spill_ratio in percent; -1 = never SET, so the
	// resource group's ratio, then Config.MemorySpillRatio, applies.
	spillRatio         int
	statementTimeoutMS int // 0 = no limit
	traceQueries       bool
	logMinDurationMS   int // -1 = slow-query log off, 0 = log every statement
}

// setting declares one SET/SHOW name, once: how its text is parsed and
// validated, the field it lands in, its default and its canonical text.
type setting struct {
	// want names the accepted values, as the rejection message states them
	// (empty when set words its own error).
	want string
	// init stores the Config-backed default in a new session; nil when the
	// zero value is the default or the value lives in the cluster.
	init func(ss *sessionSettings, cfg *cluster.Config)
	// set validates text and assigns it; errBadValue rejects text outside
	// want. A failed set leaves the session as it was.
	set func(s *Session, text string) error
	// show renders the current value in its canonical spelling.
	show func(s *Session) string
}

var errBadValue = errors.New("core: invalid setting value")

// settingTable is every name SET and SHOW accept, lower-cased.
var settingTable = map[string]*setting{
	"optimizer": {
		set:  (*Session).SetOptimizer,
		show: func(s *Session) string { return s.settings.optimizer.String() },
	},
	"memory_spill_ratio": {
		want: "between 0 and 100",
		init: func(ss *sessionSettings, _ *cluster.Config) { ss.spillRatio = -1 },
		set:  func(s *Session, text string) error { return assignInt(&s.settings.spillRatio, text, 0, 100) },
		show: func(s *Session) string {
			if s.settings.spillRatio < 0 {
				return strconv.Itoa(s.engine.cluster.Config().MemorySpillRatio)
			}
			return strconv.Itoa(s.settings.spillRatio)
		},
	},
	"statement_timeout": intSetting("a millisecond count >= 0", 0, math.MaxInt32,
		func(ss *sessionSettings) *int { return &ss.statementTimeoutMS },
		func(*cluster.Config) int { return 0 }),
	"trace_queries": boolSetting(
		func(ss *sessionSettings) *bool { return &ss.traceQueries },
		func(*cluster.Config) bool { return false }),
	"log_min_duration": intSetting("a millisecond count >= 0, or -1 to disable", -1, math.MaxInt32,
		func(ss *sessionSettings) *int { return &ss.logMinDurationMS },
		func(*cluster.Config) int { return -1 }),
	// Cluster-wide and applied live (the sync↔async switch): SHOW reads the
	// cluster's actual mode, whichever session set it.
	"replica_mode": {
		want: "none, async or sync",
		set: func(s *Session, text string) error {
			m, ok := cluster.ParseReplicaMode(strings.ToLower(text))
			if !ok {
				return errBadValue
			}
			return s.engine.cluster.SetReplicaMode(m)
		},
		show: func(s *Session) string { return s.engine.cluster.ReplicaModeNow().String() },
	},
}

// boolSetting declares an on/off setting stored in *field(ss).
func boolSetting(field func(*sessionSettings) *bool, def func(*cluster.Config) bool) *setting {
	return &setting{
		want: "on or off",
		init: func(ss *sessionSettings, cfg *cluster.Config) { *field(ss) = def(cfg) },
		set: func(s *Session, text string) error {
			switch strings.ToLower(text) {
			case "on", "true", "1", "yes":
				*field(&s.settings) = true
			case "off", "false", "0", "no":
				*field(&s.settings) = false
			default:
				return errBadValue
			}
			return nil
		},
		show: func(s *Session) string { return onOff(*field(&s.settings)) },
	}
}

// intSetting declares an integer setting in [min, max] stored in *field(ss).
func intSetting(want string, min, max int, field func(*sessionSettings) *int, def func(*cluster.Config) int) *setting {
	return &setting{
		want: want,
		init: func(ss *sessionSettings, cfg *cluster.Config) { *field(ss) = def(cfg) },
		set:  func(s *Session, text string) error { return assignInt(field(&s.settings), text, min, max) },
		show: func(s *Session) string { return strconv.Itoa(*field(&s.settings)) },
	}
}

func assignInt(dst *int, text string, min, max int) error {
	v, err := strconv.Atoi(text)
	if err != nil || v < min || v > max {
		return errBadValue
	}
	*dst = v
	return nil
}

// SetOptimizer selects the planner ("postgres" = OLTP, "orca" = OLAP); SET
// optimizer lands here too.
func (s *Session) SetOptimizer(name string) error {
	switch strings.ToLower(name) {
	case "postgres", "oltp", "off":
		s.settings.optimizer = plan.OptimizerOLTP
	case "orca", "olap", "on":
		s.settings.optimizer = plan.OptimizerOLAP
	default:
		return fmt.Errorf("core: unknown optimizer %q", name)
	}
	return nil
}

// execSet is SET name = value: lookup, parse, assign.
func (s *Session) execSet(name, value string) (*Result, error) {
	key := strings.ToLower(name)
	st := settingTable[key]
	if st == nil {
		return nil, fmt.Errorf("core: unrecognized configuration parameter %q", name)
	}
	if err := st.set(s, value); errors.Is(err, errBadValue) {
		return nil, fmt.Errorf("core: %s must be %s (got %q)", key, st.want, value)
	} else if err != nil {
		return nil, err
	}
	return &Result{Tag: "SET"}, nil
}
