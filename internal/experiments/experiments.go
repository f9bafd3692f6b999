// Package experiments regenerates the tables and figures of the paper's
// evaluation (§7: Table 1, Figs. 2 and 10–18) on the simulated cluster, and
// nothing else. Each Fig* function runs one experiment and returns a report
// table with the same series the paper plots; cmd/gpbench prints them and
// the root bench_test.go wraps them in testing.B benchmarks.
//
// The engine itself has no cost model. Each experiment boots its cluster,
// loads it, and then arms sleep specs at fault points (see timing): the
// network round trip and statement handling at dispatch_send, the fsync at
// wal_flush, and — for Fig. 13's single host — the buffer-cache miss at
// heap_access. Absolute numbers therefore differ from the paper's
// 8-host/32-segment testbed; the comparisons (who wins, by roughly what
// factor, where the curves bend) are the reproduction target.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// MetricsOut, when non-nil, receives one JSON observability-registry
// snapshot per engine the experiments boot, written as each engine closes
// (gpbench -metrics). Bench runs then double as observability fixtures.
var MetricsOut io.Writer

// Options scales experiments between quick smoke runs and fuller sweeps.
type Options struct {
	// Duration per measured point.
	Duration time.Duration
	// Clients lists the client counts swept (the paper uses 20..600).
	Clients []int
	// Segments is the cluster size.
	Segments int
}

// Quick returns fast settings for tests and benchmarks.
func Quick() Options {
	return Options{
		Duration: 250 * time.Millisecond,
		Clients:  []int{1, 4, 16, 48},
		Segments: 4,
	}
}

// Full returns the slower sweep used by cmd/gpbench.
func Full() Options {
	return Options{
		Duration: 1500 * time.Millisecond,
		Clients:  []int{1, 2, 4, 8, 16, 32, 64, 96},
		Segments: 4,
	}
}

// gpdb6 and gpdb5 are the presets the experiments compare, with the
// deadlock detector polling every 10ms.
func gpdb6(nseg int) *cluster.Config {
	cfg := cluster.GPDB6(nseg)
	cfg.GDDPeriod = 10 * time.Millisecond
	return cfg
}

func gpdb5(nseg int) *cluster.Config {
	cfg := cluster.GPDB5(nseg)
	cfg.GDDPeriod = 10 * time.Millisecond
	return cfg
}

// The cost model, as sleeps at fault points. The host's sleep granularity
// is on the order of a millisecond, so the model works in milliseconds: the
// ratios between the costs are what shape the curves.
var (
	// dispatchCost is one coordinator→segment message: a network round
	// trip plus the segment's handling of it. Whole-gang dispatch pays it
	// once per segment, direct dispatch once.
	dispatchCost = sleepAt(fault.DispatchSend, 2*time.Millisecond)
	// fsyncCost is one durable log write, on a segment or the coordinator.
	fsyncCost = sleepAt(fault.WALFlush, 2*time.Millisecond)
	// timing is the cost model of the multi-segment clusters.
	timing = []fault.Spec{dispatchCost, fsyncCost}
)

// sleepAt is a spec that pauses every evaluation of point, on every
// segment and the coordinator, for d.
func sleepAt(point string, d time.Duration) fault.Spec {
	return fault.Spec{Point: point, Seg: fault.AllSegments, Action: fault.ActSleep, Sleep: d}
}

// engine boots an engine, runs the schema script and the loader, and then
// arms the cost-model specs, so loading runs at full speed.
func engine(cfg *cluster.Config, schema string, load func(ctx context.Context, c workload.Conn) error, costs []fault.Spec) (*core.Engine, error) {
	e := core.NewEngine(cfg)
	if MetricsOut != nil {
		e.OnClose(func() { _ = e.Metrics().WriteJSON(MetricsOut) })
	}
	ctx := context.Background()
	s, err := e.NewSession("")
	if err != nil {
		e.Close()
		return nil, err
	}
	if schema != "" {
		if err := s.ExecScript(ctx, schema); err != nil {
			e.Close()
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	if load != nil {
		if err := load(ctx, bench.SessionConn{S: s}); err != nil {
			e.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	for _, spec := range costs {
		if err := e.Cluster().InjectFault(spec); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// driver runs op under the harness with one long-lived session per worker.
func driver(e *core.Engine, clients int, d time.Duration, op func(ctx context.Context, c workload.Conn, r *workload.Rand) error) bench.Result {
	return perSessionDriver(e, "", clients, d, nil, op)
}

// perSessionDriver keeps one session of role per worker alive across
// operations (needed when sessions carry resource-group state).
func perSessionDriver(e *core.Engine, role string, clients int, d time.Duration,
	setup func(s *core.Session), op func(ctx context.Context, c workload.Conn, r *workload.Rand) error) bench.Result {
	type worker struct {
		conn workload.Conn
		r    *workload.Rand
	}
	workers := make([]worker, clients)
	for i := range workers {
		s, err := e.NewSession(role)
		if err != nil {
			panic(err)
		}
		if setup != nil {
			setup(s)
		}
		workers[i] = worker{conn: bench.SessionConn{S: s}, r: workload.NewRand(uint64(i)*104729 + 7)}
	}
	return bench.RunConcurrent(clients, d, func(ctx context.Context, id int) error {
		w := workers[id]
		return op(ctx, w.conn, w.r)
	})
}
