// Package bench is the experiment harness: fixed-duration concurrent
// drivers with TPS/QPH and latency-percentile collection, plus the adapters
// that let workload drivers speak to engine sessions. internal/experiments
// builds every figure of the paper from these pieces.
package bench

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/workload"
)

// SessionConn adapts a core.Session to the workload.Conn interface.
type SessionConn struct {
	S *core.Session
}

// Exec implements workload.Conn.
func (c SessionConn) Exec(ctx context.Context, sql string, args ...types.Datum) (int, []types.Row, error) {
	res, err := c.S.Exec(ctx, sql, args...)
	if err != nil {
		return 0, nil, err
	}
	return res.RowsAffected, res.Rows, nil
}

var _ workload.Conn = SessionConn{}

// Result summarizes one benchmark run.
type Result struct {
	Clients  int
	Ops      int64
	Errors   int64
	Duration time.Duration

	// Latency percentiles over a bounded per-worker sample.
	AvgLatency time.Duration
	P50        time.Duration
	P95        time.Duration
	P99        time.Duration
}

// TPS is throughput in operations per second.
func (r Result) TPS() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds()
}

// QPH is throughput in operations per hour (the paper reports OLAP
// throughput as queries per hour).
func (r Result) QPH() float64 { return r.TPS() * 3600 }

// QPM is throughput in operations per minute (the paper's OLTP unit in
// Fig. 17).
func (r Result) QPM() float64 { return r.TPS() * 60 }

// Worker is one client loop: it owns a session and runs operations until
// the context is cancelled.
type Worker func(ctx context.Context, workerID int) error

// RunConcurrent drives `clients` workers for `d`, each repeatedly invoking
// op. Errors are counted, not fatal (deadlock victims are an expected
// outcome in contention experiments).
func RunConcurrent(clients int, d time.Duration, op Worker) Result {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ops, errs atomic.Int64
	samples := make([][]time.Duration, clients)
	const maxSamples = 4096

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, 1024)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := op(ctx, i)
				lat := time.Since(t0)
				if err != nil {
					if ctx.Err() != nil {
						break
					}
					errs.Add(1)
					continue
				}
				ops.Add(1)
				if len(local) < maxSamples {
					local = append(local, lat)
				}
			}
			samples[i] = local
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, s := range samples {
		all = append(all, s...)
	}
	res := Result{
		Clients:  clients,
		Ops:      ops.Load(),
		Errors:   errs.Load(),
		Duration: elapsed,
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		var sum time.Duration
		for _, v := range all {
			sum += v
		}
		res.AvgLatency = sum / time.Duration(len(all))
		res.P50 = all[len(all)*50/100]
		res.P95 = all[len(all)*95/100]
		res.P99 = all[min(len(all)*99/100, len(all)-1)]
	}
	return res
}
