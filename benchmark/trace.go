package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/types"
)

// span is one node of the trace the benchmark writes. The benchmark records
// op, stmt, begin, commit and rollback spans around its own calls into the
// engine; under each stmt hangs the span tree the engine recorded for that
// statement (SET trace_queries on), re-parented into a real tree: the engine
// hands back its operator and slice spans flat under "execute", and
// engineTree nests them again along the plan.
type span struct {
	Name     string  `json:"name"`
	Seg      int     `json:"seg"` // segment id; -1 = coordinator or benchmark
	StartUS  float64 `json:"start_us"`
	DurUS    float64 `json:"dur_us"`
	SelfUS   float64 `json:"self_us"`
	Children []*span `json:"children,omitempty"`

	dur      time.Duration
	parallel bool // children ran concurrently (a motion's senders, a DML's segments)
}

// The classes self time is attributed to; each is a per-layer share metric.
const (
	classSession = "core.session_self_share"
	classParse   = "sql.parse_share"
	classPlan    = "plan.plan_share"
	classDisp    = "cluster.dispatch_self_share"
	classWrite   = "exec.op_write_share"
	classScan    = "exec.op_scan_share"
	classAgg     = "exec.op_agg_share"
	classJoin    = "exec.op_join_share"
	classSort    = "exec.op_sort_share"
	classProject = "exec.op_project_share"
	classMotion  = "interconnect.motion_share"
)

var shareClasses = []string{classSession, classParse, classPlan, classDisp, classWrite,
	classScan, classAgg, classJoin, classSort, classProject, classMotion}

// opKinds is every operator the engine's plans are made of, by the prefix of
// its span name, with its class and how many children it has in the plan. An
// operator that is not listed makes its statement count as unnested.
var opKinds = []struct {
	prefix, class string
	children      int
}{
	{"Seq Scan on ", classScan, 0},
	{"Index Scan using ", classScan, 0},
	{"Result", classProject, 0},
	{"Project ", classProject, 1},
	{"Filter: ", classProject, 1},
	{"Limit ", classProject, 1},
	{"HashAggregate", classAgg, 1},
	{"Aggregate", classAgg, 1},
	{"Sort", classSort, 1},
	{"Gather Motion ", classMotion, 1},
	{"Redistribute Motion ", classMotion, 1},
	{"Broadcast Motion ", classMotion, 1},
	{"Hash Join ", classJoin, 2},
	{"Nested Loop ", classJoin, 2},
}

// opKind finds an operator span's class and child count.
func opKind(name string) (class string, children int, ok bool) {
	for _, k := range opKinds {
		if strings.HasPrefix(name, k.prefix) {
			return k.class, k.children, true
		}
	}
	return "", 0, false
}

// classOf maps an engine span name to the class its self time goes to.
func classOf(name string) string {
	switch {
	case name == "query":
		return classSession
	case name == "parse":
		return classParse
	case name == "plan":
		return classPlan
	case name == "execute", strings.HasPrefix(name, "slice "):
		return classDisp
	case name == "insert", name == "update", name == "delete":
		return classWrite
	}
	class, _, _ := opKind(name) // engineTree has already refused unknown operators
	return class
}

// opNode is one plan operator rebuilt from the engine's flat operator spans:
// its inclusive time at each location it ran.
type opNode struct {
	name     string
	at       map[int]time.Duration // location (-1 = coordinator) → inclusive time
	children []*opNode
}

// stmtFacts is what one traced statement contributes to the layer metrics.
type stmtFacts struct {
	root     time.Duration
	self     map[string]time.Duration // class → self time on the critical path
	segments int                      // segments the statement was dispatched to
	write    bool                     // an INSERT, UPDATE or DELETE
	skew     float64                  // slowest ÷ mean per-segment slice time (0 = one segment)
}

// engineTree turns one engine trace into a span tree and its facts. base is
// the traced pass's start, the origin of start_us. It returns an error, and
// no tree, when the operator spans do not nest into exactly one plan tree of
// known operators: attributing time along a guessed tree would be wrong
// without anyone noticing.
func engineTree(tr *obs.Trace, base time.Time) (*span, stmtFacts, error) {
	facts := stmtFacts{self: map[string]time.Duration{}}
	var root, execute *span
	var slices []*span
	var ops []*opNode
	segTime := map[int]time.Duration{}
	for _, s := range tr.Spans() { // by span id: the root first
		sp := &span{Name: s.Name, Seg: s.Seg, StartUS: us(s.Start.Sub(base)), DurUS: us(s.Dur), dur: s.Dur}
		switch {
		case s.Parent == 0:
			root = sp
		case root == nil:
			return nil, facts, fmt.Errorf("span %q comes before the root span", s.Name)
		case s.Name == "execute":
			execute = sp
			root.Children = append(root.Children, sp)
		case s.Name == "parse", s.Name == "plan":
			root.Children = append(root.Children, sp)
		case strings.HasPrefix(s.Name, "slice "):
			slices = append(slices, sp)
			segTime[s.Seg] += s.Dur
		case execute == nil:
			return nil, facts, fmt.Errorf("span %q comes before the execute span", s.Name)
		case classOf(s.Name) == classWrite:
			facts.write = true
			execute.parallel = true
			execute.Children = append(execute.Children, sp)
			segTime[s.Seg] += s.Dur
		default:
			if _, _, ok := opKind(s.Name); !ok {
				return nil, facts, fmt.Errorf("unknown operator %q", s.Name)
			}
			// Operator spans arrive in plan pre-order, one per location the
			// operator ran at: a span continues the current operator while it
			// has the same name and a location not yet seen.
			n := len(ops)
			if n == 0 || ops[n-1].name != s.Name {
				ops = append(ops, &opNode{name: s.Name, at: map[int]time.Duration{}})
			} else if _, seen := ops[n-1].at[s.Seg]; seen {
				ops = append(ops, &opNode{name: s.Name, at: map[int]time.Duration{}})
			}
			ops[len(ops)-1].at[s.Seg] = s.Dur
		}
	}
	if root == nil {
		return nil, facts, fmt.Errorf("trace has no root span")
	}
	facts.root = root.dur
	facts.segments = len(segTime)
	if len(segTime) > 1 {
		var sum, slowest time.Duration
		for _, d := range segTime {
			sum += d
			slowest = max(slowest, d)
		}
		facts.skew = float64(slowest) * float64(len(segTime)) / float64(sum)
	}
	if len(ops) > 0 {
		i := 0
		var nest func() (*opNode, error)
		nest = func() (*opNode, error) {
			if i == len(ops) {
				return nil, fmt.Errorf("operator spans end below %q, which needs another child", ops[i-1].name)
			}
			n := ops[i]
			i++
			_, children, _ := opKind(n.name)
			for c := 0; c < children; c++ {
				ch, err := nest()
				if err != nil {
					return nil, err
				}
				n.children = append(n.children, ch)
			}
			return n, nil
		}
		top, err := nest()
		if err != nil {
			return nil, facts, err
		}
		if i != len(ops) {
			return nil, facts, fmt.Errorf("operator spans make more than one tree: %q follows the tree of %q", ops[i].name, top.name)
		}
		for loc := range top.at {
			execute.Children = append(execute.Children, opSpan(top, loc, execute.StartUS, slices))
		}
	}
	criticalPath(root, facts.self)
	return root, facts, nil
}

// opSpan builds operator n's span at one location with its children: the
// operators below it at the same location, or — for a motion — the sending
// slice on every segment, each holding the operators of that slice.
func opSpan(n *opNode, loc int, startUS float64, slices []*span) *span {
	sp := &span{Name: n.name, Seg: loc, StartUS: startUS, DurUS: us(n.at[loc]), dur: n.at[loc]}
	if classOf(n.name) == classMotion {
		sp.parallel = true
		slice := "slice " + motionSlice(n.name)
		for _, sl := range slices {
			if sl.Name != slice {
				continue
			}
			// A redistribute motion is received on every segment: its sending
			// slices hang under each receiver, built once.
			sp.Children = append(sp.Children, sl)
			if sl.Children != nil {
				continue
			}
			for _, ch := range n.children {
				if _, ok := ch.at[sl.Seg]; ok {
					sl.Children = append(sl.Children, opSpan(ch, sl.Seg, sl.StartUS, slices))
				}
			}
		}
		return sp
	}
	for _, ch := range n.children {
		if _, ok := ch.at[loc]; ok {
			sp.Children = append(sp.Children, opSpan(ch, loc, startUS, slices))
		}
	}
	return sp
}

// motionSlice extracts K from "Gather Motion (sliceK)" or "(sliceK; parallel N)".
func motionSlice(name string) string {
	_, rest, _ := strings.Cut(name, "(slice")
	return strings.TrimRight(strings.SplitN(rest, ";", 2)[0], ")")
}

// criticalPath sets every span's self time — its duration minus what its
// children cover: their sum when they ran one after another, the longest
// when they ran concurrently — and adds to self[class] the self times along
// the path that bounded the statement (through concurrent children, only the
// slowest), so the classes sum to the root's wall time.
func criticalPath(sp *span, self map[string]time.Duration) {
	var covered time.Duration
	var slowest *span
	for _, ch := range sp.Children {
		if !sp.parallel {
			covered += ch.dur
		} else if slowest == nil || ch.dur > slowest.dur {
			slowest, covered = ch, ch.dur
		}
	}
	own := max(sp.dur-covered, 0)
	sp.SelfUS = us(own)
	if self != nil {
		self[classOf(sp.Name)] += own
	}
	for _, ch := range sp.Children {
		if sp.parallel && ch != slowest {
			criticalPath(ch, nil) // off the critical path: self time for the file only
		} else {
			criticalPath(ch, self)
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracer times the statements and operations of one fixed-count pass. When
// tracing is on it also keeps a span for each and drains the engine's trace
// ring after every statement (the ring keeps 64 statements).
type tracer struct {
	eng     *core.Engine
	on      bool
	base    time.Time
	lastQID uint64
	spans   []*span
	cur     *span
	facts   []stmtFacts
	// unnested counts traced statements whose operator spans engineTree
	// refused; their time is attributed to nothing. unnestedErr is the first.
	unnested    int
	unnestedErr error
	// Client-observed statement times by span name (stmt, begin, commit).
	stmtLat map[string][]time.Duration
}

func newTracer(eng *core.Engine, on bool) *tracer {
	t := &tracer{eng: eng, on: on, base: time.Now(), stmtLat: map[string][]time.Duration{}}
	if last := eng.Activity().Traces().Recent(1); len(last) > 0 {
		t.lastQID = last[0].QueryID
	}
	return t
}

// tracedConn times every statement sent through it into its tracer.
type tracedConn struct {
	conn
	t *tracer
}

func (t *tracer) wrap(ctx context.Context, c conn) (conn, error) {
	setting := "off"
	if t.on {
		setting = "on"
	}
	if _, err := c.exec(ctx, "SET trace_queries = "+setting); err != nil {
		return nil, err
	}
	return tracedConn{c, t}, nil
}

func (c tracedConn) exec(ctx context.Context, q string, args ...types.Datum) ([]types.Row, error) {
	t := c.t
	name := "stmt"
	switch q {
	case "BEGIN", "COMMIT", "ROLLBACK":
		name = strings.ToLower(q)
	}
	start := time.Now()
	rows, err := c.conn.exec(ctx, q, args...)
	dur := time.Since(start)
	t.stmtLat[name] = append(t.stmtLat[name], dur)
	if !t.on {
		return rows, err
	}
	sp := &span{Name: name, Seg: -1, StartUS: us(start.Sub(t.base)), DurUS: us(dur), dur: dur}
	recent := t.eng.Activity().Traces().Recent(0)
	for i := len(recent) - 1; i >= 0; i-- { // oldest first
		if tr := recent[i]; tr.QueryID > t.lastQID {
			t.lastQID = tr.QueryID
			tree, facts, err := engineTree(tr, t.base)
			if err != nil {
				if t.unnested++; t.unnestedErr == nil {
					t.unnestedErr = fmt.Errorf("%s: %w", tr.SQL, err)
				}
				continue
			}
			sp.Children = append(sp.Children, tree)
			t.facts = append(t.facts, facts)
		}
	}
	if t.cur != nil {
		t.cur.Children = append(t.cur.Children, sp)
	}
	return rows, err
}

// op times one operation and, when tracing, wraps it in an op span.
func (t *tracer) op(name string, run func() error) (time.Duration, error) {
	start := time.Now()
	if !t.on {
		err := run()
		return time.Since(start), err
	}
	t.cur = &span{Name: name, Seg: -1, StartUS: us(start.Sub(t.base))}
	err := run()
	dur := time.Since(start)
	t.cur.dur, t.cur.DurUS = dur, us(dur)
	criticalPath(t.cur, nil)
	t.spans = append(t.spans, t.cur)
	t.cur = nil
	return dur, err
}

// named is the time inside spans the trace names below the op level: the
// engine's root span of every traced statement, plus the begin/commit/rollback
// calls (which the engine does not trace).
func (t *tracer) named() time.Duration {
	var d time.Duration
	for _, f := range t.facts {
		d += f.root
	}
	for _, name := range []string{"begin", "commit", "rollback"} {
		for _, l := range t.stmtLat[name] {
			d += l
		}
	}
	return d
}

func (t *tracer) allStmts() []time.Duration {
	var all []time.Duration
	for _, lat := range t.stmtLat {
		all = append(all, lat...)
	}
	return all
}

// writeTrace writes the spans of the traced pass and the probes to
// <dir>/trace-<workload>.json, once, from memory.
func writeTrace(dir, workload string, ops []*span, probes []probe) (string, error) {
	for _, p := range probes {
		ops = append(ops, &span{Name: "probe." + p.metric, Seg: -1, DurUS: us(p.took), SelfUS: us(p.took)})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string  `json:"workload"`
		Spans    []*span `json:"spans"`
	}{workload, ops})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	return path, os.WriteFile(path, data, 0o644)
}
