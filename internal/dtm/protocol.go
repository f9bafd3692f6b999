package dtm

import (
	"fmt"
	"sync"
)

// Participant is one segment's commit-protocol endpoint. The cluster layer
// implements it over the simulated interconnect, charging a network round
// trip per call and an fsync per durable state change.
type Participant interface {
	// SegID returns the participant's segment id.
	SegID() int
	// Prepare durably prepares the transaction (2PC phase one).
	Prepare(dxid DXID) error
	// CommitPrepared durably commits a prepared transaction (phase two).
	CommitPrepared(dxid DXID) error
	// AbortPrepared aborts a prepared transaction.
	AbortPrepared(dxid DXID) error
	// CommitOnePhase durably commits in a single step (1PC fast path).
	CommitOnePhase(dxid DXID) error
	// Abort rolls back an unprepared transaction.
	Abort(dxid DXID) error
}

// Protocol names the commit path taken.
type Protocol string

// Commit protocols.
const (
	// ProtocolReadOnly means no segment wrote; nothing to make durable.
	ProtocolReadOnly Protocol = "read-only"
	// ProtocolOnePhase is the single-segment fast path (paper §5.2).
	ProtocolOnePhase Protocol = "one-phase"
	// ProtocolTwoPhase is the general PREPARE/COMMIT protocol.
	ProtocolTwoPhase Protocol = "two-phase"
)

// CommitStats reports how a commit ran. What it cost — messages, log
// records, fsyncs — is counted by the logs the participants write.
type CommitStats struct {
	Protocol Protocol
}

// fanOut invokes fn for every participant in parallel (Greenplum dispatches
// each protocol wave to all participants concurrently) and returns the
// first error.
func fanOut(ws []Participant, fn func(Participant) error) error {
	if len(ws) == 1 {
		return fn(ws[0])
	}
	var wg sync.WaitGroup
	errs := make([]error, len(ws))
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w Participant) {
			defer wg.Done()
			errs[i] = fn(w)
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Commit drives the commit protocol for dxid over the writer participants.
// With onePhase enabled and exactly one writer, the PREPARE wave and the
// coordinator commit record are skipped (paper Fig. 10); otherwise full
// two-phase commit runs and coordLog — when non-nil — durably records the
// commit decision for dxid between the waves (the record promotion-time
// recovery consults to resolve in-doubt prepared transactions). The
// coordinator's in-progress entry is cleared only after the protocol fully
// acknowledges.
func Commit(coord *Coordinator, dxid DXID, writers []Participant, onePhase bool, coordLog ...func(DXID)) (CommitStats, error) {
	switch {
	case len(writers) == 0:
		coord.MarkCommitted(dxid)
		return CommitStats{Protocol: ProtocolReadOnly}, nil

	case onePhase && len(writers) == 1:
		st := CommitStats{Protocol: ProtocolOnePhase}
		// Single COMMIT round trip; one fsync on the participating segment.
		// No PREPARE fsync on the segment, no commit-record fsync on the
		// coordinator (paper §5.2).
		if err := writers[0].CommitOnePhase(dxid); err != nil {
			// Roll the local transaction back so its locks and open-txn entry
			// don't outlive the decision. Abort is a no-op on a segment that
			// already resolved the transaction (recovered or down), so this
			// is safe even when the failure was an ambiguous ack loss.
			_ = writers[0].Abort(dxid)
			coord.MarkAborted(dxid)
			return st, fmt.Errorf("dtm: one-phase commit on seg %d: %w", writers[0].SegID(), err)
		}
		coord.MarkCommitted(dxid)
		return st, nil

	default:
		st := CommitStats{Protocol: ProtocolTwoPhase}
		// Wave one: PREPARE all writers in parallel.
		if err := fanOut(writers, func(w Participant) error { return w.Prepare(dxid) }); err != nil {
			// Abort everyone (prepared participants roll back their
			// prepared state, the rest roll back the live transaction —
			// both paths are handled by the participant).
			_ = fanOut(writers, func(w Participant) error {
				if aerr := w.AbortPrepared(dxid); aerr != nil {
					return w.Abort(dxid)
				}
				return nil
			})
			coord.MarkAborted(dxid)
			return st, fmt.Errorf("dtm: prepare failed: %w", err)
		}
		// Coordinator durably records the commit decision.
		for _, log := range coordLog {
			if log != nil {
				log(dxid)
			}
		}
		// Wave two: COMMIT PREPARED all writers in parallel.
		if err := fanOut(writers, func(w Participant) error { return w.CommitPrepared(dxid) }); err != nil {
			// The decision is durably committed — an unreachable participant
			// (a segment whose failover failed or timed out) resolves it
			// from the commit record when it recovers. The coordinator
			// honors its own durable decision either way: leaving the dxid
			// in-progress would hide the committed rows on the participants
			// that did acknowledge and pin the truncation horizons forever.
			// The caller still sees the error (outcome reached, ack missing).
			coord.MarkCommitted(dxid)
			return st, fmt.Errorf("dtm: commit prepared failed: %w", err)
		}
		coord.MarkCommitted(dxid)
		return st, nil
	}
}

// Abort rolls back dxid on all writers in parallel.
func Abort(coord *Coordinator, dxid DXID, writers []Participant) {
	_ = fanOut(writers, func(w Participant) error { return w.Abort(dxid) })
	coord.MarkAborted(dxid)
}
