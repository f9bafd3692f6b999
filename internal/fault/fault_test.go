package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryDisarmed(t *testing.T) {
	var r *Registry
	if act, err := r.Eval("wal_append", 0); act != ActNone || err != nil {
		t.Fatalf("nil registry Eval = %v, %v", act, err)
	}
	if err := r.Inject("wal_append", 0); err != nil {
		t.Fatalf("nil registry Inject = %v", err)
	}
	if r.Reset("") != 0 || r.Resume("x") != 0 || r.Armed() != 0 {
		t.Fatal("nil registry mutators must be no-ops")
	}
	if st := r.Status(); st != nil {
		t.Fatalf("nil registry Status = %v", st)
	}
	if err := r.Arm(Spec{Point: "p", Action: ActError}); err == nil {
		t.Fatal("nil registry Arm must error")
	}
}

// TestDisarmedEvalAllocations: every fault point in the engine is evaluated
// on its hot path, so a disarmed evaluation — never armed, armed and reset,
// or only another point armed — must allocate nothing.
func TestDisarmedEvalAllocations(t *testing.T) {
	r := NewRegistry()
	check := func(state string) {
		t.Helper()
		allocs := testing.AllocsPerRun(1000, func() {
			if act, err := r.Eval(DispatchSend, 1); act != ActNone || err != nil {
				t.Fatalf("%s: Eval = %v, %v", state, act, err)
			}
			if err := r.Inject(WALAppend, 1); err != nil {
				t.Fatalf("%s: Inject = %v", state, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: disarmed Eval+Inject allocate %.1f times per call, want 0", state, allocs)
		}
	}
	check("never armed")
	if err := r.Arm(Spec{Point: DispatchSend, Seg: AllSegments, Action: ActError}); err != nil {
		t.Fatal(err)
	}
	r.Reset("")
	check("armed then reset")
	if err := r.Arm(Spec{Point: LockAcquire, Seg: AllSegments, Action: ActError}); err != nil {
		t.Fatal(err)
	}
	check("another point armed")
}

func TestArmValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Spec{Action: ActError}); err == nil {
		t.Fatal("empty point name accepted")
	}
	if err := r.Arm(Spec{Point: "p"}); err == nil {
		t.Fatal("ActNone accepted")
	}
	if err := r.Arm(Spec{Point: "p", Action: Action(99)}); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestErrorActionAndSegmentMatch(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Spec{Point: "p", Seg: 1, Action: ActError, Message: "boom"}); err != nil {
		t.Fatal(err)
	}
	// Wrong segment: no trigger.
	if err := r.Inject("p", 0); err != nil {
		t.Fatalf("seg 0 triggered a seg-1 spec: %v", err)
	}
	err := r.Inject("p", 1)
	if err == nil || !IsInjected(err) {
		t.Fatalf("want injected error, got %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "p" || fe.Seg != 1 || fe.Msg != "boom" {
		t.Fatalf("error fields: %+v", fe)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("message not in text: %v", err)
	}
	// AllSegments matches everything, including the coordinator's -1.
	r2 := NewRegistry()
	if err := r2.Arm(Spec{Point: "q", Seg: AllSegments, Action: ActError}); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []int{-1, 0, 7} {
		if err := r2.Inject("q", seg); !IsInjected(err) {
			t.Fatalf("seg %d: %v", seg, err)
		}
	}
}

func TestStartCountWindow(t *testing.T) {
	r := NewRegistry()
	// Trigger only on hits 3 and 4.
	if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActError, Start: 3, Count: 2}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 6; i++ {
		if err := r.Inject("p", 0); err != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on hits %v, want [3 4]", fired)
	}
	st := r.Status()
	if len(st) != 1 || !st[0].Exhausted || st[0].Hits != 6 || st[0].Triggers != 2 {
		t.Fatalf("status: %+v", st)
	}
}

func TestProbabilityDeterministicReplay(t *testing.T) {
	run := func() []int {
		r := NewRegistry()
		if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActError, Probability: 30, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 0; i < 200; i++ {
			if err := r.Inject("p", 0); err != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("probability 30 fired %d/200 times", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d triggers", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at trigger %d: hit %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSkipAndTornWriteReturned(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Spec{Point: "s", Seg: AllSegments, Action: ActSkip}); err != nil {
		t.Fatal(err)
	}
	if act, err := r.Eval("s", 0); act != ActSkip || err != nil {
		t.Fatalf("Eval skip = %v, %v", act, err)
	}
	// Inject ignores non-error actions.
	if err := r.Inject("s", 0); err != nil {
		t.Fatalf("Inject skip = %v", err)
	}
	if err := r.Arm(Spec{Point: "w", Seg: AllSegments, Action: ActTornWrite}); err != nil {
		t.Fatal(err)
	}
	if act, _ := r.Eval("w", 0); act != ActTornWrite {
		t.Fatalf("Eval torn-write = %v", act)
	}
}

func TestSleepAction(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActSleep, Sleep: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if act, err := r.Eval("p", 0); act != ActSleep || err != nil {
		t.Fatalf("Eval = %v, %v", act, err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("slept only %v", d)
	}
}

func TestHangResumeAndReset(t *testing.T) {
	for _, wake := range []string{"resume", "reset"} {
		r := NewRegistry()
		if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActHang}); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			_, _ = r.Eval("p", 0)
			close(done)
		}()
		select {
		case <-done:
			t.Fatal("hang returned before resume")
		case <-time.After(20 * time.Millisecond):
		}
		if wake == "resume" {
			if n := r.Resume("p"); n != 1 {
				t.Fatalf("Resume = %d", n)
			}
		} else {
			if n := r.Reset("p"); n != 1 {
				t.Fatalf("Reset = %d", n)
			}
		}
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s did not wake the hung goroutine", wake)
		}
		// Resume leaves the spec armed; Reset disarms it.
		if wake == "resume" && r.Armed() != 1 {
			t.Fatalf("resume disarmed the spec")
		}
		if wake == "reset" && r.Armed() != 0 {
			t.Fatalf("reset left the spec armed")
		}
	}
}

func TestResetAllAndCounters(t *testing.T) {
	r := NewRegistry()
	for _, p := range []string{"a", "b"} {
		if err := r.Arm(Spec{Point: p, Seg: AllSegments, Action: ActError}); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.Inject("a", 0)
	_ = r.Inject("miss", 0)
	hits, triggers := r.Counters()
	if hits != 1 || triggers != 1 {
		t.Fatalf("counters = %d, %d", hits, triggers)
	}
	if n := r.Reset(""); n != 2 {
		t.Fatalf("Reset all = %d", n)
	}
	if r.Armed() != 0 {
		t.Fatalf("armed after reset: %d", r.Armed())
	}
	// Counters are lifetime, not reset.
	if h, _ := r.Counters(); h != 1 {
		t.Fatalf("reset cleared counters: %d", h)
	}
}

func TestFirstMatchingSpecWins(t *testing.T) {
	r := NewRegistry()
	if err := r.Arm(Spec{Point: "p", Seg: 0, Action: ActSkip}); err != nil {
		t.Fatal(err)
	}
	if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActError}); err != nil {
		t.Fatal(err)
	}
	if act, _ := r.Eval("p", 0); act != ActSkip {
		t.Fatalf("seg 0 should hit the first spec, got %v", act)
	}
	if act, err := r.Eval("p", 1); act != ActError || err == nil {
		t.Fatalf("seg 1 should fall through to the catch-all, got %v, %v", act, err)
	}
}

func TestEvalConcurrentWithArmReset(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = r.Eval("p", 0)
					_ = r.Inject("q", 1)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActError}); err != nil {
			t.Fatal(err)
		}
		r.Reset("p")
	}
	close(stop)
	wg.Wait()
}

// TestSerialSleepsTakeTurns: the sleeps of a Serial spec run one at a
// time, so four concurrent hits take at least four pauses end to end.
func TestSerialSleepsTakeTurns(t *testing.T) {
	r := NewRegistry()
	const pause = 5 * time.Millisecond
	if err := r.Arm(Spec{Point: "p", Seg: AllSegments, Action: ActSleep, Sleep: pause, Serial: true}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seg int) {
			defer wg.Done()
			if act, err := r.Eval("p", seg); act != ActSleep || err != nil {
				t.Errorf("Eval = %v, %v", act, err)
			}
		}(g)
	}
	wg.Wait()
	if took := time.Since(start); took < 4*pause {
		t.Fatalf("four serial sleeps of %v finished in %v", pause, took)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(3, 50*time.Millisecond)
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("new breaker must be closed")
	}
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("opened below threshold")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("did not open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a dispatch")
	}
	opens, fastFails := b.Stats()
	if opens != 1 || fastFails == 0 {
		t.Fatalf("stats = %d, %d", opens, fastFails)
	}
	// After cooldown: exactly one half-open probe.
	time.Sleep(60 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown expired but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe grant: %v", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe failure re-opens immediately.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("failed probe did not re-open")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close")
	}
	// A success resets the consecutive-failure count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("failure count not reset by success")
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(0, 0)
	for i := 0; i < 7; i++ {
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatal("default threshold below 8")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("default threshold above 8")
	}
}

func TestBackoffBounds(t *testing.T) {
	base, max := 200*time.Microsecond, 5*time.Millisecond
	for attempt := 0; attempt < 40; attempt++ {
		for i := 0; i < 20; i++ {
			d := Backoff(attempt, base, max)
			if d <= 0 || d > max {
				t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, max)
			}
		}
	}
	// Attempt 0 is bounded by base.
	for i := 0; i < 50; i++ {
		if d := Backoff(0, base, max); d > base {
			t.Fatalf("attempt 0 backoff %v exceeds base %v", d, base)
		}
	}
}

func TestParseAction(t *testing.T) {
	cases := map[string]Action{
		"error": ActError, "panic": ActPanic, "sleep": ActSleep,
		"hang": ActHang, "suspend": ActHang,
		"torn-write": ActTornWrite, "torn_write": ActTornWrite, "tornwrite": ActTornWrite,
		"skip": ActSkip,
	}
	for s, want := range cases {
		got, ok := ParseAction(s)
		if !ok || got != want {
			t.Fatalf("ParseAction(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseAction("explode"); ok {
		t.Fatal("unknown action parsed")
	}
}
