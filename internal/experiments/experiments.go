// Package experiments regenerates the tables and figures of the paper's
// evaluation (§7: Table 1, Figs. 2 and 10–18) on the simulated cluster, and
// nothing else. Each Fig* function runs one experiment and returns a report
// table with the same series the paper plots; the root bench_test.go runs
// each as a testing.B benchmark, the one way to regenerate a figure.
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
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workload"
)

// Options is an experiment's sweep.
type Options struct {
	// Duration per measured point.
	Duration time.Duration
	// Clients lists the client counts swept (the paper uses 20..600).
	Clients []int
	// Segments is the cluster size.
	Segments int
}

// Quick returns the sweep the root benchmarks run: four client counts, 200
// ms a point, on four segments.
func Quick() Options {
	return Options{
		Duration: 200 * time.Millisecond,
		Clients:  []int{1, 4, 16, 48},
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

// op is one workload operation a client runs over its connection.
type op = func(ctx context.Context, c workload.Conn, r *workload.Rand) error

// clients is a load on an engine: n clients of role, each a long-lived
// session running op on its own random stream. A positive cpu turns on
// resource-group enforcement at cpu per statement, which is session state.
type clients struct {
	n    int
	role string
	cpu  time.Duration
	op   op
}

// open starts the clients' sessions and returns each one's operation.
func (l clients) open(e *core.Engine) ([]func(ctx context.Context) error, error) {
	ops := make([]func(ctx context.Context) error, l.n)
	for i := range ops {
		s, err := e.NewSession(l.role)
		if err != nil {
			return nil, err
		}
		if l.cpu > 0 {
			s.UseResourceGroup(true, l.cpu)
		}
		conn, r := bench.SessionConn{S: s}, workload.NewRand(uint64(i)*104729+7)
		ops[i] = func(ctx context.Context) error { return l.op(ctx, conn, r) }
	}
	return ops, nil
}

// run drives the clients under the harness for d.
func (l clients) run(e *core.Engine, d time.Duration) (bench.Result, error) {
	ops, err := l.open(e)
	if err != nil {
		return bench.Result{}, err
	}
	return bench.RunConcurrent(l.n, d, func(ctx context.Context, id int) error { return ops[id](ctx) }), nil
}

// start runs the clients in the background, each looping on its operation
// until stop is called.
func (l clients) start(e *core.Engine) (stop func(), err error) {
	ops, err := l.open(e)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				_ = op(ctx)
			}
		}()
	}
	// Let the load get going before anything is measured beside it.
	time.Sleep(20 * time.Millisecond)
	return func() {
		cancel()
		wg.Wait()
	}, nil
}

// measure runs an engine at n clients and returns the values the row of
// that client count gets for it.
type measure func(n int) ([]float64, error)

// config is one engine a figure compares: it boots the engine, loaded and
// under the cost model, and returns how to measure it and how to shut it
// down.
type config func() (run measure, closeFn func(), err error)

// sweep is the comparison loop the figures share: each config in turn is
// booted, measured at every client count of points and closed, and tbl gets
// one row per count with the configs' values side by side.
func sweep(tbl *bench.Table, points []int, configs ...config) (*bench.Table, error) {
	rows := make([][]float64, len(points))
	for _, boot := range configs {
		run, closeFn, err := boot()
		if err != nil {
			return nil, err
		}
		for i, n := range points {
			vals, err := run(n)
			if err != nil {
				closeFn()
				return nil, err
			}
			rows[i] = append(rows[i], vals...)
		}
		closeFn()
	}
	for i, n := range points {
		tbl.Add(fmt.Sprint(n), rows[i]...)
	}
	return tbl, nil
}

// versus is the GPDB 5-vs-GPDB 6 comparison of Figs. 12, 14 and 15: op's
// throughput at each client count on a cluster of each preset, loaded with
// schema and load.
func versus(title string, opts Options, schema string, load func(ctx context.Context, c workload.Conn) error, op op) (*bench.Table, error) {
	preset := func(cfg *cluster.Config) config {
		return func() (measure, func(), error) {
			e, err := engine(cfg, schema, load, timing)
			if err != nil {
				return nil, nil, err
			}
			return func(n int) ([]float64, error) {
				res, err := clients{n: n, op: op}.run(e, opts.Duration)
				return []float64{res.TPS()}, err
			}, e.Close, nil
		}
	}
	return sweep(bench.NewTable(title, "clients", "GPDB 5", "GPDB 6"), opts.Clients,
		preset(gpdb5(opts.Segments)), preset(gpdb6(opts.Segments)))
}
