// Package fault implements a registry of named fault points, modeled on
// Greenplum's gp_inject_fault framework. Code on critical paths (WAL append,
// spill writes, dispatch, commit waves, ...) declares a point by calling
// Registry.Eval or Registry.Inject with the point's name and the acting
// segment id; tests, the FAULT SQL statement and the paper's experiments
// (internal/experiments) arm points with a Spec that chooses an action
// (error, panic, sleep, hang-until-resume, torn-write, skip), a target
// segment, an occurrence window and an optional probability.
//
// The disarmed fast path is a single atomic load: with nothing armed (the
// production state) a fault point costs a few nanoseconds and no locks, so
// points can sit on per-row paths. When at least one spec is armed, Eval
// looks the point up in a copy-on-write map (no cross-point contention) and
// takes that point's mutex only if the point itself is armed.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// AllSegments arms a spec on every segment (and the coordinator, which
// evaluates points as segment -1 too).
const AllSegments = -1

// Action is what an armed fault point does when it triggers.
type Action uint8

// Actions. ActError through ActHang are fully handled inside Eval (the
// caller sees an error or a delay); ActTornWrite and ActSkip are returned to
// the caller, which implements the point-specific corruption or omission.
// A point that does not support a returned action ignores it.
const (
	// ActNone means the point did not trigger.
	ActNone Action = iota
	// ActError makes Eval return an injected *Error.
	ActError
	// ActPanic panics with the point name (simulated process crash).
	ActPanic
	// ActSleep pauses Eval for Spec.Sleep before returning ActNone-like
	// success (the caller proceeds after the delay).
	ActSleep
	// ActHang blocks Eval until Resume or Reset is called on the point.
	ActHang
	// ActTornWrite asks the caller to perform a partial write (WAL append
	// truncates the frame mid-record, simulating a crash during write).
	ActTornWrite
	// ActSkip asks the caller to silently omit the operation (e.g. drop a
	// WAL ship callback).
	ActSkip
)

var actionNames = map[Action]string{
	ActNone:      "none",
	ActError:     "error",
	ActPanic:     "panic",
	ActSleep:     "sleep",
	ActHang:      "hang",
	ActTornWrite: "torn-write",
	ActSkip:      "skip",
}

func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", a)
}

// ParseAction maps the SQL/shell spelling of an action to its value.
func ParseAction(s string) (Action, bool) {
	switch s {
	case "error":
		return ActError, true
	case "panic":
		return ActPanic, true
	case "sleep":
		return ActSleep, true
	case "hang", "suspend":
		return ActHang, true
	case "torn-write", "torn_write", "tornwrite":
		return ActTornWrite, true
	case "skip":
		return ActSkip, true
	}
	return ActNone, false
}

// Spec arms one fault point.
type Spec struct {
	// Point is the fault point name (see the catalog in docs/FAULTS.md).
	Point string
	// Seg targets one segment id, or AllSegments.
	Seg int
	// Action is what the point does when it triggers.
	Action Action
	// Message overrides the injected error text for ActError.
	Message string
	// Sleep is the ActSleep pause (and the ActHang poll interval cap).
	Sleep time.Duration
	// Start is the first matching hit (1-based) that may trigger; 0 means 1.
	Start int
	// Count caps how many hits trigger; 0 means unlimited.
	Count int
	// Probability is the percent chance (1..99) that an eligible hit
	// triggers; 0 or >=100 means always.
	Probability int
	// Seed seeds the per-spec PRNG used for Probability, so probabilistic
	// schedules replay deterministically. 0 uses a fixed default.
	Seed int64
	// Serial makes the spec's ActSleep pauses take turns, one at a time
	// across every goroutine and segment it matches: a device with a queue
	// depth of one, where a pause also waits out the pauses ahead of it.
	Serial bool
}

func (s Spec) String() string {
	out := fmt.Sprintf("%s action=%s", s.Point, s.Action)
	if s.Seg != AllSegments {
		out += fmt.Sprintf(" seg=%d", s.Seg)
	}
	if s.Start > 1 {
		out += fmt.Sprintf(" start=%d", s.Start)
	}
	if s.Count > 0 {
		out += fmt.Sprintf(" count=%d", s.Count)
	}
	if s.Probability > 0 && s.Probability < 100 {
		out += fmt.Sprintf(" probability=%d", s.Probability)
	}
	return out
}

// Error is the injected error returned by a triggered ActError spec.
// Callers that need to distinguish injected failures from organic ones (the
// dispatch retry loop treats them as transient) unwrap to it with errors.As.
type Error struct {
	Point string
	Seg   int
	Msg   string
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("fault injected at %s (seg %d): %s", e.Point, e.Seg, e.Msg)
	}
	return fmt.Sprintf("fault injected at %s (seg %d)", e.Point, e.Seg)
}

// IsInjected reports whether err came from a fault point.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// armedSpec is one Spec plus its trigger state, guarded by the owning
// point's mutex.
type armedSpec struct {
	Spec
	rng    *rand.Rand
	hits   int64 // matching-segment evaluations seen
	fired  int64 // times this spec triggered
	resume chan struct{}
	// serial is held across a Serial spec's sleep.
	serial sync.Mutex
}

// point is the armed state of one named fault point.
type point struct {
	name string
	mu   sync.Mutex
	// specs in arming order; the first spec that matches and triggers wins.
	specs []*armedSpec
}

// Registry holds all fault points of one cluster. A nil *Registry is valid
// and permanently disarmed (a log or segment never wired to a cluster holds
// nil).
type Registry struct {
	// armed counts armed specs across all points; the disarmed fast path is
	// armed == 0.
	armed atomic.Int32
	// points is a copy-on-write name→point map: Eval loads it without locks,
	// Arm/Reset replace it under mu.
	points atomic.Pointer[map[string]*point]
	mu     sync.Mutex

	hits     atomic.Int64 // evaluations that found an armed matching spec
	triggers atomic.Int64 // evaluations that fired an action
}

// NewRegistry returns an empty (disarmed) registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := map[string]*point{}
	r.points.Store(&empty)
	return r
}

// Arm registers spec. Multiple specs may target the same point (e.g. one per
// segment); they are evaluated in arming order.
func (r *Registry) Arm(spec Spec) error {
	if r == nil {
		return errors.New("fault: fault points are disabled on this cluster")
	}
	if spec.Point == "" {
		return errors.New("fault: empty point name")
	}
	if _, ok := actionNames[spec.Action]; !ok || spec.Action == ActNone {
		return fmt.Errorf("fault: invalid action for point %q", spec.Point)
	}
	if spec.Start <= 0 {
		spec.Start = 1
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 0x6770 // deterministic default ("gp")
	}
	as := &armedSpec{
		Spec:   spec,
		rng:    rand.New(rand.NewSource(seed)),
		resume: make(chan struct{}),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.points.Load()
	next := make(map[string]*point, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	p := next[spec.Point]
	if p == nil {
		p = &point{name: spec.Point}
		next[spec.Point] = p
	}
	p.mu.Lock()
	p.specs = append(p.specs, as)
	p.mu.Unlock()
	r.points.Store(&next)
	r.armed.Add(1)
	return nil
}

// Reset disarms every spec of the named point (all points when name is "")
// and wakes any goroutine hung on it. It returns how many specs it removed.
func (r *Registry) Reset(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.points.Load()
	next := make(map[string]*point, len(old))
	removed := 0
	for k, p := range old {
		if name != "" && k != name {
			next[k] = p
			continue
		}
		p.mu.Lock()
		for _, as := range p.specs {
			close(as.resume)
			removed++
		}
		p.specs = nil
		p.mu.Unlock()
	}
	r.points.Store(&next)
	r.armed.Add(int32(-removed))
	return removed
}

// Resume wakes goroutines hung at the named point's ActHang specs without
// disarming them (the next hit hangs again). It returns how many specs were
// resumed.
func (r *Registry) Resume(name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := (*r.points.Load())[name]
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, as := range p.specs {
		if as.Action == ActHang {
			close(as.resume)
			as.resume = make(chan struct{})
			n++
		}
	}
	return n
}

// Eval evaluates the named fault point for segment seg. It returns ActNone
// when disarmed or not triggered; ActError plus the injected error; or
// ActTornWrite/ActSkip for the caller to implement. ActSleep and ActHang are
// served inside Eval (the caller just proceeds afterwards); ActPanic panics.
func (r *Registry) Eval(name string, seg int) (Action, error) {
	if r == nil || r.armed.Load() == 0 {
		return ActNone, nil
	}
	p := (*r.points.Load())[name]
	if p == nil {
		return ActNone, nil
	}
	return r.evalPoint(p, seg)
}

func (r *Registry) evalPoint(p *point, seg int) (Action, error) {
	p.mu.Lock()
	var hit *armedSpec
	for _, as := range p.specs {
		if as.Seg != AllSegments && as.Seg != seg {
			continue
		}
		as.hits++
		r.hits.Add(1)
		if as.hits < int64(as.Start) {
			continue
		}
		if as.Count > 0 && as.fired >= int64(as.Count) {
			continue
		}
		if as.Probability > 0 && as.Probability < 100 &&
			as.rng.Intn(100) >= as.Probability {
			continue
		}
		as.fired++
		hit = as
		break
	}
	if hit == nil {
		p.mu.Unlock()
		return ActNone, nil
	}
	r.triggers.Add(1)
	action, sleep, msg, resume, serial := hit.Action, hit.Sleep, hit.Message, hit.resume, hit.Serial
	p.mu.Unlock()

	switch action {
	case ActError:
		return ActError, &Error{Point: p.name, Seg: seg, Msg: msg}
	case ActPanic:
		panic(fmt.Sprintf("fault injected panic at %s (seg %d)", p.name, seg))
	case ActSleep:
		if sleep <= 0 {
			sleep = time.Millisecond
		}
		if serial {
			hit.serial.Lock()
			defer hit.serial.Unlock()
		}
		time.Sleep(sleep)
		return ActSleep, nil
	case ActHang:
		<-resume
		return ActHang, nil
	}
	return action, nil
}

// Inject is Eval for error-only call sites: it returns the injected error
// for ActError and nil otherwise (torn-write/skip are meaningless at such a
// point and ignored; sleep/hang have already been served).
func (r *Registry) Inject(name string, seg int) error {
	act, err := r.Eval(name, seg)
	if act == ActError {
		return err
	}
	return nil
}

// PointStatus describes one armed spec for FAULT STATUS / SHOW fault_stats.
type PointStatus struct {
	Point    string
	Seg      int
	Action   Action
	Hits     int64 // matching evaluations
	Triggers int64 // times the action fired
	// Exhausted is true when the spec's Count window is used up.
	Exhausted bool
}

// Status returns every armed spec, sorted by point name then arming order.
func (r *Registry) Status() []PointStatus {
	if r == nil {
		return nil
	}
	pts := *r.points.Load()
	names := make([]string, 0, len(pts))
	for name := range pts {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []PointStatus
	for _, name := range names {
		p := pts[name]
		p.mu.Lock()
		for _, as := range p.specs {
			out = append(out, PointStatus{
				Point:     p.name,
				Seg:       as.Seg,
				Action:    as.Action,
				Hits:      as.hits,
				Triggers:  as.fired,
				Exhausted: as.Count > 0 && as.fired >= int64(as.Count),
			})
		}
		p.mu.Unlock()
	}
	return out
}

// Counters returns lifetime totals across all points (armed or since reset):
// evaluations that found a matching armed spec, and evaluations that fired.
func (r *Registry) Counters() (hits, triggers int64) {
	if r == nil {
		return 0, 0
	}
	return r.hits.Load(), r.triggers.Load()
}

// Armed returns the number of currently armed specs.
func (r *Registry) Armed() int {
	if r == nil {
		return 0
	}
	return int(r.armed.Load())
}
