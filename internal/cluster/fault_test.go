package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/types"
)

func faultTestCluster(t *testing.T) *Cluster {
	t.Helper()
	cfg := GPDB6(2)
	cfg.ReplicaMode = ReplicaSync
	return testCluster(t, cfg)
}

// TestDispatchSendFaultRetried: send-phase faults model a failure before
// the segment saw the request, so a bounded-count fault is absorbed by the
// retry loop and the statement succeeds, with the retries counted.
func TestDispatchSendFaultRetried(t *testing.T) {
	c := faultTestCluster(t)
	tab := mkTable(t, c, "t")
	if err := c.InjectFault(fault.Spec{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError, Count: 3}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tab, []types.Row{
		{types.NewInt(1), types.NewInt(10)},
		{types.NewInt(2), types.NewInt(20)},
	})
	c.ResetFault(fault.DispatchSend)
	if got := len(scanAll(t, c, tab)); got != 2 {
		t.Fatalf("rows after retried dispatch: %d", got)
	}
	if n, _ := c.Metrics().Value("dispatch.retries"); n == 0 {
		t.Fatal("no dispatch retries counted")
	}
	if n, _ := c.Metrics().Value("fault.triggers"); n < 3 {
		t.Fatalf("triggers = %d, want >= 3", n)
	}
}

// TestDispatchSendFaultExhaustsToRetryableError: a persistent send fault
// runs out of retries and surfaces a DispatchError with Sent=false — the
// statement never reached the segment, so the failure is safely retryable.
func TestDispatchSendFaultExhaustsToRetryableError(t *testing.T) {
	c := faultTestCluster(t)
	tab := mkTable(t, c, "t")
	if err := c.InjectFault(fault.Spec{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError}); err != nil {
		t.Fatal(err)
	}
	lt := c.BeginTxn(nil)
	_, _, err := c.Run(context.Background(), lt,
		c.Snapshot(), insertPlan(tab, types.Row{types.NewInt(1), types.NewInt(1)}), nil)
	c.ResetFault(fault.DispatchSend)
	c.AbortTxn(lt)
	if err == nil {
		t.Fatal("insert under a permanent send fault succeeded")
	}
	var de *DispatchError
	if !errors.As(err, &de) || de.Sent {
		t.Fatalf("want pre-send DispatchError, got %v", err)
	}
	if !IsRetryableDispatch(err) {
		t.Fatalf("pre-send failure not retryable: %v", err)
	}
	// Nothing was applied.
	if got := len(scanAll(t, c, tab)); got != 0 {
		t.Fatalf("%d rows applied by a failed dispatch", got)
	}
}

// TestBreakerOpensAndRecovers: enough consecutive dispatch failures open
// the segment's breaker (fail-fast, retryable), and after the cooldown a
// half-open probe against a healthy segment closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	cfg := GPDB6(2)
	cfg.ReplicaMode = ReplicaSync
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 30 * time.Millisecond
	c := testCluster(t, cfg)
	tab := mkTable(t, c, "t")
	if err := c.InjectFault(fault.Spec{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Each failed statement is one breaker Failure; threshold 2 opens it.
	for i := 0; i < 3; i++ {
		lt := c.BeginTxn(nil)
		_, _, err := c.Run(ctx, lt, c.Snapshot(), insertPlan(tab, types.Row{types.NewInt(int64(i)), types.NewInt(1)}), nil)
		c.AbortTxn(lt)
		if err == nil {
			t.Fatalf("statement %d succeeded under permanent fault", i)
		}
	}
	opened := false
	for _, bs := range c.BreakerStatuses() {
		if bs.State != fault.BreakerClosed {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("no breaker opened: %+v", c.BreakerStatuses())
	}
	if n, _ := c.Metrics().Value("fault.breaker_opens"); n == 0 {
		t.Fatal("breaker opens not counted")
	}
	// An open breaker fails fast with a retryable error.
	lt := c.BeginTxn(nil)
	_, _, err := c.Run(ctx, lt, c.Snapshot(), insertPlan(tab, types.Row{types.NewInt(9), types.NewInt(1)}), nil)
	c.AbortTxn(lt)
	var boe *BreakerOpenError
	if !errors.As(err, &boe) {
		t.Logf("fast-fail error: %v (breaker may have cooled down)", err)
	} else if !IsRetryableDispatch(err) {
		t.Fatal("breaker-open error not retryable")
	}
	// Disarm the fault, wait out the cooldown: the half-open probe heals.
	c.ResetFault(fault.DispatchSend)
	time.Sleep(cfg.BreakerCooldown + 10*time.Millisecond)
	insertRows(t, c, tab, []types.Row{{types.NewInt(100), types.NewInt(1)}})
	if got := len(scanAll(t, c, tab)); got != 1 {
		t.Fatalf("rows after recovery: %d", got)
	}
	for _, bs := range c.BreakerStatuses() {
		if bs.State != fault.BreakerClosed {
			t.Fatalf("breaker seg %d still %v after recovery", bs.Seg, bs.State)
		}
	}
}

// TestAbortResolvesThroughDispatchFaults: the regression behind doResolve —
// an abort wave must not strand segment-local locks because a few dispatch
// attempts failed. With a high-probability send fault armed, the abort
// still lands and a second transaction can lock the same rows.
func TestAbortResolvesThroughDispatchFaults(t *testing.T) {
	c := faultTestCluster(t)
	tab := mkTable(t, c, "t")
	insertRows(t, c, tab, []types.Row{{types.NewInt(1), types.NewInt(10)}})

	ctx := context.Background()
	lt := c.BeginTxn(nil)
	if _, _, err := c.Run(ctx, lt, c.Snapshot(), planTemplate(t, c, "UPDATE t SET b = 99"), nil); err != nil {
		t.Fatal(err)
	}
	// 70% of dispatch attempts fail while the abort wave runs; bounded
	// per-attempt retries alone would regularly drop it.
	if err := c.InjectFault(fault.Spec{Point: fault.DispatchSend, Seg: fault.AllSegments, Action: fault.ActError, Probability: 70, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	c.AbortTxn(lt)
	c.ResetFault(fault.DispatchSend)

	// The aborted transaction's locks are gone: a fresh update acquires
	// them immediately (a leak would hang until the test timeout).
	done := make(chan error, 1)
	go func() {
		lt2 := c.BeginTxn(nil)
		if _, _, err := c.Run(ctx, lt2, c.Snapshot(), planTemplate(t, c, "UPDATE t SET b = 99"), nil); err != nil {
			c.AbortTxn(lt2)
			done <- err
			return
		}
		_, err := c.CommitTxn(lt2)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-abort update: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-abort update hung: abort leaked locks")
	}
}
