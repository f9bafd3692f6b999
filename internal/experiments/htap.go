package experiments

import (
	"context"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workload"
)

// chEngine boots a CH-benCHmark cluster.
func chEngine(cfg *cluster.Config) (*core.Engine, *workload.CHBench, error) {
	w := &workload.CHBench{Warehouses: 4, Items: 400, InitialOrders: 4}
	e, err := engine(cfg, w.Schema(), w.Load, timing)
	if err != nil {
		return nil, nil, err
	}
	return e, w, nil
}

// underLoad is Figs. 16 and 17, one experiment with its sides swapped. On a
// CH-benCHmark cluster of each preset, sides names the operation measured
// and the one beside it; at each client count of points the measured
// side's throughput, in rate's unit, is taken alone and then beside bg
// clients of the other. fgName and bgName name the two sides in the table.
func underLoad(title, fgName, bgName string, opts Options, points []int, bg int, sides func(*workload.CHBench) (op, op), rate func(bench.Result) float64) (*bench.Table, error) {
	tbl := bench.NewTable(title, fgName+" clients",
		"GPDB5 "+bgName+"=0", "GPDB5 "+bgName+"=N", "GPDB6 "+bgName+"=0", "GPDB6 "+bgName+"=N")
	preset := func(cfg *cluster.Config) config {
		return func() (measure, func(), error) {
			e, w, err := chEngine(cfg)
			if err != nil {
				return nil, nil, err
			}
			fgOp, bgOp := sides(w)
			return func(n int) ([]float64, error) {
				front := clients{n: n, op: fgOp}
				alone, err := front.run(e, opts.Duration)
				if err != nil {
					return nil, err
				}
				stop, err := clients{n: bg, op: bgOp}.start(e)
				if err != nil {
					return nil, err
				}
				loaded, err := front.run(e, opts.Duration)
				stop()
				return []float64{rate(alone), rate(loaded)}, err
			}, e.Close, nil
		}
	}
	return sweep(tbl, points, preset(gpdb5(opts.Segments)), preset(gpdb6(opts.Segments)))
}

// Fig16OLAPUnderOLTP reproduces Figure 16: analytical throughput (QPH) as
// OLAP concurrency grows, with and without a concurrent OLTP load of 100
// clients. On GPDB 6 the OLTP side is fast enough to steal resources (>2×
// QPH drop); on GPDB 5 the lock-bound OLTP load barely registers.
func Fig16OLAPUnderOLTP(opts Options) (*bench.Table, error) {
	return underLoad("Fig. 16 — OLAP QPH under OLTP load", "olap", "oltp", opts,
		opts.Clients[:min(3, len(opts.Clients))], 100,
		func(w *workload.CHBench) (op, op) { return w.OLAPQuery, w.OLTPMix }, bench.Result.QPH)
}

// Fig17OLTPUnderOLAP reproduces Figure 17: transactional throughput (QPM)
// as OLTP concurrency grows, with and without a concurrent OLAP load of 8
// clients. The paper reports a ~3× QPM reduction on GPDB 6 under 20 OLAP
// clients, and no difference on GPDB 5 (its QPM is lock-bound, not
// resource-bound).
func Fig17OLTPUnderOLAP(opts Options) (*bench.Table, error) {
	return underLoad("Fig. 17 — OLTP QPM under OLAP load", "oltp", "olap", opts, opts.Clients, 8,
		func(w *workload.CHBench) (op, op) { return w.OLTPMix, w.OLAPQuery }, bench.Result.QPM)
}

// Fig18ResourceGroups reproduces Figure 18: OLTP latency under a constant
// OLAP load for the paper's three resource-group configurations:
//
//	Config I   — both groups share all CPUs with equal CPU_RATE_LIMIT;
//	Config II  — OLTP pinned to a small CPUSET (4 of 32 in the paper);
//	Config III — OLTP pinned to a large CPUSET (16 of 32).
//
// The paper shows latency dropping from I to II to III.
func Fig18ResourceGroups(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 18 — OLTP avg latency (ms) by resource-group config", "oltp clients",
		"Config I", "Config II", "Config III")
	// The simulated machine: 16 cores (the paper's 32 scaled down 2×).
	const cores = 16
	ddls := [][]string{
		{ // Config I
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPU_RATE_LIMIT=20)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPU_RATE_LIMIT=20)",
		},
		{ // Config II
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPUSET=4-15)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPUSET=0-3)",
		},
		{ // Config III
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPUSET=8-15)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPUSET=0-7)",
		},
	}
	roles := []string{
		"CREATE ROLE olap_user RESOURCE GROUP olap_group",
		"CREATE ROLE oltp_user RESOURCE GROUP oltp_group",
	}
	var configs []config
	for _, ddl := range ddls {
		configs = append(configs, func() (measure, func(), error) {
			cfg := gpdb6(opts.Segments)
			cfg.Cores = cores
			e, w, err := chEngine(cfg)
			if err != nil {
				return nil, nil, err
			}
			admin, err := e.NewSession("")
			for _, q := range slices.Concat(ddl, roles) {
				if err == nil {
					_, err = admin.Exec(context.Background(), q)
				}
			}
			// OLAP queries burn one long CPU quantum each (an analytical
			// scan's worth of CPU); OLTP statements burn short quanta. Under
			// Config I the long quanta occupy shared cores and the short OLTP
			// quanta queue behind them; dedicated CPUSETs (II, III) remove
			// exactly that head-of-line interference. Admission
			// (CONCURRENCY=20) gates how many of the 32 OLAP clients run at once.
			var stop func()
			if err == nil {
				stop, err = clients{n: 32, role: "olap_user", cpu: 50 * time.Millisecond, op: w.OLAPQuery}.start(e)
			}
			if err != nil {
				e.Close()
				return nil, nil, err
			}
			oltp := clients{role: "oltp_user", cpu: time.Millisecond, op: w.OLTPMix}
			return func(n int) ([]float64, error) {
				oltp.n = n
				res, err := oltp.run(e, opts.Duration)
				return []float64{bench.Ms(res.AvgLatency)}, err
			}, func() { stop(); e.Close() }, nil
		})
	}
	return sweep(tbl, opts.Clients, configs...)
}
