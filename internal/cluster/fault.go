package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
)

// CoordinatorSeg is the segment id fault points on the coordinator evaluate
// with (matching gdd.CoordinatorSeg); a spec armed with fault.AllSegments
// covers it too.
const CoordinatorSeg = -1

// Faults returns the cluster's fault registry.
func (c *Cluster) Faults() *fault.Registry { return c.faults }

// InjectFault arms one fault-point spec.
func (c *Cluster) InjectFault(spec fault.Spec) error { return c.faults.Arm(spec) }

// ResetFault disarms the named point ("" = every point), waking anything
// hung on it, and returns how many specs were removed.
func (c *Cluster) ResetFault(point string) int { return c.faults.Reset(point) }

// ResumeFault wakes goroutines hung at the named point without disarming it.
func (c *Cluster) ResumeFault(point string) int { return c.faults.Resume(point) }

// FaultStatus lists every armed fault-point spec.
func (c *Cluster) FaultStatus() []fault.PointStatus { return c.faults.Status() }

// BreakerOpenError is the fail-fast error dispatch returns while a
// segment's circuit breaker is open: the statement was never sent, so
// retrying (after the cooldown) is always safe.
type BreakerOpenError struct {
	Seg int
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("cluster: circuit breaker open for segment %d (retryable)", e.Seg)
}

// DispatchError wraps a transient per-segment dispatch failure that
// survived the bounded retry cycle. Sent marks whether the operation
// reached the segment: a send-phase failure never executed (safe to retry
// blindly); a recv-phase failure on a non-idempotent operation has
// ambiguous statement state, so the transaction must abort before retrying.
type DispatchError struct {
	Seg  int
	Sent bool
	Err  error
}

func (e *DispatchError) Error() string {
	phase := "send"
	if e.Sent {
		phase = "recv"
	}
	return fmt.Sprintf("cluster: dispatch %s to segment %d failed after retries: %v", phase, e.Seg, e.Err)
}

func (e *DispatchError) Unwrap() error { return e.Err }

// StaleDistMapError is the fail-fast error dispatch returns when a plan was
// built against a distribution-map version that online expansion has since
// flipped: nothing was sent, so re-planning (which reads the new placement)
// and re-issuing the statement is always safe.
type StaleDistMapError struct {
	Table            string
	Planned, Current uint64
}

func (e *StaleDistMapError) Error() string {
	return fmt.Sprintf("cluster: stale distribution map for table %q (planned v%d, current v%d); re-plan and retry", e.Table, e.Planned, e.Current)
}

// IsRetryableDispatch reports whether err is a fail-fast or
// retries-exhausted dispatch error whose statement can safely be re-issued
// (breaker open, stale distribution map, or a transient failure before the
// operation was sent).
func IsRetryableDispatch(err error) bool {
	var be *BreakerOpenError
	if errors.As(err, &be) {
		return true
	}
	var se *StaleDistMapError
	if errors.As(err, &se) {
		return true
	}
	var de *DispatchError
	return errors.As(err, &de) && !de.Sent
}

// Dispatch retry policy: transient failures back off exponentially with
// full jitter, bounded so a persistently failing segment costs at most a
// few milliseconds before the error surfaces (and the breaker starts
// failing fast).
const (
	dispatchMaxRetries = 4
	dispatchBackoffMin = 200 * time.Microsecond
	dispatchBackoffMax = 5 * time.Millisecond
)

// dispatchSeg wraps one coordinator→segment operation with the
// dispatch_send/dispatch_recv fault points, bounded exponential backoff
// with jitter, and the segment's circuit breaker.
//
// The send point models a failure before the segment saw the request, so it
// always retries in place. The recv point models a failure after the
// segment processed it: for idempotent protocol operations (commit/abort
// waves, read-only statement setup) the whole operation is retried; for
// non-idempotent work the error surfaces immediately as a recv-phase
// DispatchError and the statement fails.
//
// Breaker accounting deliberately counts only transient (injected) dispatch
// faults: a SegmentDownError is the failover machinery's signal and has its
// own wait-for-promotion path, and an organic statement error means the
// segment is healthy.
func (c *Cluster) dispatchSeg(seg int, idempotent bool, op func() error) error {
	b := c.breaker(seg)
	if !b.Allow() {
		return &BreakerOpenError{Seg: seg}
	}
	var lastErr error
	for attempt := 0; attempt <= dispatchMaxRetries; attempt++ {
		if attempt > 0 {
			c.dispatchRetries.Add(1)
			time.Sleep(fault.Backoff(attempt-1, dispatchBackoffMin, dispatchBackoffMax))
		}
		if err := c.faults.Inject(fault.DispatchSend, seg); err != nil {
			lastErr = &DispatchError{Seg: seg, Err: err}
			continue
		}
		if err := op(); err != nil {
			if IsSegmentDown(err) {
				// The failover machinery's signal: segUp/promotion own this
				// path, so it is neither a breaker success nor a failure.
				return err
			}
			if fault.IsInjected(err) {
				// A fault inside the segment-side operation (e.g. a
				// twopc_* point) counts as a transient dispatch failure:
				// retry only if re-running the operation is safe.
				lastErr = &DispatchError{Seg: seg, Sent: true, Err: err}
				if idempotent {
					continue
				}
				b.Failure()
				return lastErr
			}
			b.Success() // the segment answered; the error is organic
			return err
		}
		if err := c.faults.Inject(fault.DispatchRecv, seg); err != nil {
			lastErr = &DispatchError{Seg: seg, Sent: true, Err: err}
			if idempotent {
				continue
			}
			b.Failure()
			return lastErr
		}
		b.Success()
		return nil
	}
	b.Failure()
	return lastErr
}

// BreakerStatus is one segment's circuit-breaker state for SHOW fault_stats.
type BreakerStatus struct {
	Seg       int
	State     fault.BreakerState
	Opens     int64
	FastFails int64
}

// BreakerStatuses snapshots every segment's dispatch circuit breaker,
// including breakers of segments added by online expansion.
func (c *Cluster) BreakerStatuses() []BreakerStatus {
	breakers := c.topoNow().breakers
	out := make([]BreakerStatus, len(breakers))
	for i, b := range breakers {
		opens, fast := b.Stats()
		out[i] = BreakerStatus{Seg: i, State: b.State(), Opens: opens, FastFails: fast}
	}
	return out
}

// FaultStats aggregates the fault-injection and degradation counters
// surfaced by SHOW fault_stats and the fault.* registry series.
type FaultStats struct {
	// Armed is the number of currently armed specs.
	Armed int
	// Hits/Triggers are lifetime point evaluations that matched an armed
	// spec, and evaluations that fired an action.
	Hits, Triggers int64
	// DispatchRetries counts dispatch attempts re-issued after a transient
	// error; BreakerOpens/BreakerFastFails aggregate the per-segment
	// breakers.
	DispatchRetries  int64
	BreakerOpens     int64
	BreakerFastFails int64
	// BreakersOpen is how many breakers are not closed right now.
	BreakersOpen int64
	// WALTruncations/WALTruncatedBytes count torn-tail truncations performed
	// by revive-time crash recovery and the bytes they dropped.
	WALTruncations    int64
	WALTruncatedBytes int64
	// SpillLeaks counts spill temp files the post-statement backstop had to
	// remove — nonzero means an operator failed to release its files on an
	// error path.
	SpillLeaks int64
}

// FaultStats snapshots the fault/degradation counters.
func (c *Cluster) FaultStats() FaultStats {
	st := FaultStats{
		Armed:             c.faults.Armed(),
		DispatchRetries:   c.dispatchRetries.Load(),
		WALTruncations:    c.walTruncations.Load(),
		WALTruncatedBytes: c.walTruncatedBytes.Load(),
		SpillLeaks:        c.spillLeaks.Load(),
	}
	st.Hits, st.Triggers = c.faults.Counters()
	for _, b := range c.topoNow().breakers {
		opens, fast := b.Stats()
		st.BreakerOpens += opens
		st.BreakerFastFails += fast
		if b.State() != fault.BreakerClosed {
			st.BreakersOpen++
		}
	}
	return st
}
