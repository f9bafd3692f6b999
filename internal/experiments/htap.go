package experiments

import (
	"context"
	"fmt"
	"sync"
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

// background launches a steady load of `clients` workers, each a session
// of role, running op until the returned stop function is called.
func background(e *core.Engine, role string, clients int, setup func(*core.Session), op func(ctx context.Context, c workload.Conn, r *workload.Rand) error) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := e.NewSession(role)
			if err != nil {
				return
			}
			if setup != nil {
				setup(s)
			}
			conn := bench.SessionConn{S: s}
			r := workload.NewRand(uint64(i)*31337 + 5)
			for ctx.Err() == nil {
				_ = op(ctx, conn, r)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// Fig16OLAPUnderOLTP reproduces Figure 16: analytical throughput (QPH) as
// OLAP concurrency grows, with and without a concurrent OLTP load. On
// GPDB 6 the OLTP side is fast enough to steal resources (>2× QPH drop);
// on GPDB 5 the lock-bound OLTP load barely registers.
func Fig16OLAPUnderOLTP(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 16 — OLAP QPH under OLTP load", "olap clients",
		"GPDB5 oltp=0", "GPDB5 oltp=N", "GPDB6 oltp=0", "GPDB6 oltp=N")
	oltpClients := 100
	olapPoints := opts.Clients
	if len(olapPoints) > 3 {
		olapPoints = olapPoints[:3]
	}

	type cell struct{ qph [2]float64 }
	results := map[string]map[int]cell{}
	for _, mode := range []struct {
		name string
		cfg  *cluster.Config
	}{{"GPDB5", gpdb5(opts.Segments)}, {"GPDB6", gpdb6(opts.Segments)}} {
		e, w, err := chEngine(mode.cfg)
		if err != nil {
			return nil, err
		}
		results[mode.name] = map[int]cell{}
		for _, olap := range olapPoints {
			var c cell
			for variant, oltp := range []int{0, oltpClients} {
				var stop func()
				if oltp > 0 {
					stop = background(e, "", oltp, nil, w.OLTPMix)
					time.Sleep(20 * time.Millisecond)
				}
				res := driver(e, olap, opts.Duration, w.OLAPQuery)
				if stop != nil {
					stop()
				}
				c.qph[variant] = res.QPH()
			}
			results[mode.name][olap] = c
		}
		e.Close()
	}
	for _, olap := range olapPoints {
		g5 := results["GPDB5"][olap]
		g6 := results["GPDB6"][olap]
		tbl.Add(fmt.Sprint(olap), g5.qph[0], g5.qph[1], g6.qph[0], g6.qph[1])
	}
	return tbl, nil
}

// Fig17OLTPUnderOLAP reproduces Figure 17: transactional throughput (QPM)
// as OLTP concurrency grows, with and without a concurrent OLAP load. The
// paper reports a ~3× QPM reduction on GPDB 6 under 20 OLAP clients, and no
// difference on GPDB 5 (its QPM is lock-bound, not resource-bound).
func Fig17OLTPUnderOLAP(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 17 — OLTP QPM under OLAP load", "oltp clients",
		"GPDB5 olap=0", "GPDB5 olap=N", "GPDB6 olap=0", "GPDB6 olap=N")
	olapClients := 8
	type row struct{ vals [4]float64 }
	rows := map[int]*row{}
	order := []int{}
	for modeIdx, cfg := range []*cluster.Config{gpdb5(opts.Segments), gpdb6(opts.Segments)} {
		e, w, err := chEngine(cfg)
		if err != nil {
			return nil, err
		}
		for _, oltp := range opts.Clients {
			if rows[oltp] == nil {
				rows[oltp] = &row{}
				order = append(order, oltp)
			}
			for variant, olap := range []int{0, olapClients} {
				var stop func()
				if olap > 0 {
					stop = background(e, "", olap, nil, w.OLAPQuery)
					time.Sleep(20 * time.Millisecond)
				}
				res := driver(e, oltp, opts.Duration, w.OLTPMix)
				if stop != nil {
					stop()
				}
				rows[oltp].vals[modeIdx*2+variant] = res.QPM()
			}
		}
		e.Close()
	}
	seen := map[int]bool{}
	for _, oltp := range order {
		if seen[oltp] {
			continue
		}
		seen[oltp] = true
		r := rows[oltp]
		tbl.Add(fmt.Sprint(oltp), r.vals[0], r.vals[1], r.vals[2], r.vals[3])
	}
	return tbl, nil
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
	configs := []struct {
		name string
		ddl  []string
	}{
		{"I", []string{
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPU_RATE_LIMIT=20)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPU_RATE_LIMIT=20)",
		}},
		{"II", []string{
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPUSET=4-15)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPUSET=0-3)",
		}},
		{"III", []string{
			"CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=20, MEMORY_LIMIT=15, CPUSET=8-15)",
			"CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, CPUSET=0-7)",
		}},
	}
	olapClients := 32 // admission (CONCURRENCY=20) gates how many run at once
	lat := map[int][]float64{}
	var order []int
	for _, conf := range configs {
		cfg := gpdb6(opts.Segments)
		cfg.Cores = cores
		e, w, err := chEngine(cfg)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		admin, _ := e.NewSession("")
		for _, ddl := range conf.ddl {
			if _, err := admin.Exec(ctx, ddl); err != nil {
				e.Close()
				return nil, err
			}
		}
		script := []string{
			"CREATE ROLE olap_user RESOURCE GROUP olap_group",
			"CREATE ROLE oltp_user RESOURCE GROUP oltp_group",
		}
		for _, q := range script {
			if _, err := admin.Exec(ctx, q); err != nil {
				e.Close()
				return nil, err
			}
		}
		// OLAP queries burn one long CPU quantum each (an analytical scan's
		// worth of CPU); OLTP statements burn short quanta. Under Config I
		// the long quanta occupy shared cores and the short OLTP quanta
		// queue behind them; dedicated CPUSETs (II, III) remove exactly that
		// head-of-line interference.
		olapSetup := func(s *core.Session) {
			s.UseResourceGroup(true, 50*time.Millisecond)
		}
		oltpSetup := func(s *core.Session) {
			s.UseResourceGroup(true, time.Millisecond)
		}
		// Rebind worker sessions to the right roles.
		olapOp := w.OLAPQuery
		stop := background(e, "olap_user", olapClients, olapSetup, olapOp)
		time.Sleep(20 * time.Millisecond)
		for _, oltp := range opts.Clients {
			res := perSessionDriver(e, "oltp_user", oltp, opts.Duration, oltpSetup, w.OLTPMix)
			if lat[oltp] == nil {
				order = append(order, oltp)
			}
			lat[oltp] = append(lat[oltp], bench.Ms(res.AvgLatency))
		}
		stop()
		e.Close()
	}
	for _, oltp := range order {
		vals := lat[oltp]
		for len(vals) < 3 {
			vals = append(vals, 0)
		}
		tbl.Add(fmt.Sprint(oltp), vals[0], vals[1], vals[2])
	}
	return tbl, nil
}
