package experiments

import (
	"context"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Fig2Locking reproduces Figure 2: the share of wall-clock time spent in
// lock waits on the GPDB 5 locking regime as concurrency grows. The paper
// shows >25% at low concurrency and "unacceptable" beyond 100 clients.
func Fig2Locking(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 2 — lock wait share of runtime (GPDB 5 locking)", "clients",
		"lock wait %", "TPS")
	w := &workload.UpdateOnly{Rows: 1000}
	return sweep(tbl, opts.Clients, func() (measure, func(), error) {
		e, err := engine(gpdb5(opts.Segments), w.Schema(), w.Load, timing)
		if err != nil {
			return nil, nil, err
		}
		return func(n int) ([]float64, error) {
			waited0, _ := e.Cluster().LockWaitStats()
			res, err := clients{n: n, op: w.Transaction}.run(e, opts.Duration)
			waited1, _ := e.Cluster().LockWaitStats()
			// Total worker time = clients × elapsed.
			share := 100 * float64(waited1-waited0) / (float64(res.Duration) * float64(n))
			return []float64{share, res.TPS()}, err
		}, e.Close, nil
	})
}

// Fig10Commit reproduces Figure 10: the message/fsync cost of two-phase vs
// one-phase commit, read from the logs the commits wrote.
func Fig10Commit(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 10 — commit protocol cost per transaction", "protocol",
		"msg waves", "messages", "prepares", "fsyncs", "commit µs")
	for _, mode := range []struct {
		name     string
		onePhase bool
	}{{"two-phase", false}, {"one-phase", true}} {
		c, err := commitCosts(opts, mode.onePhase)
		if err != nil {
			return nil, err
		}
		tbl.Add(mode.name, c.waves, c.messages, c.prepares, c.fsyncs, c.micros)
	}
	return tbl, nil
}

// commitCost is what an autocommit single-segment insert cost, per
// transaction. Every commit-protocol message to a segment leaves one
// PREPARE or COMMIT record in its log, and a wave sends one message to
// each writer, so the records give the messages and the waves; the
// segment and coordinator logs' flush counters give the fsyncs.
type commitCost struct {
	waves, messages, prepares, fsyncs, micros float64
}

// commitCosts commits 30 single-segment inserts on a GPDB 6 cluster with
// one-phase commit on or off and measures what they cost.
func commitCosts(opts Options, onePhase bool) (commitCost, error) {
	cfg := gpdb6(opts.Segments)
	cfg.OnePhase = onePhase
	w := &workload.InsertOnly{}
	e, err := engine(cfg, w.Schema(), nil, timing)
	if err != nil {
		return commitCost{}, err
	}
	defer e.Close()
	s, err := e.NewSession("")
	if err != nil {
		return commitCost{}, err
	}
	ctx, conn, r := context.Background(), bench.SessionConn{S: s}, workload.NewRand(1)
	cl := e.Cluster()
	const samples = 30
	reg0, recs0 := e.Metrics().Snapshot(), cl.WALRecordCounts()
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		if err := w.Transaction(ctx, conn, r); err != nil {
			return commitCost{}, err
		}
	}
	took := time.Since(t0)
	d, recs1 := e.Metrics().Snapshot().Delta(reg0), cl.WALRecordCounts()
	prepares := float64(recs1[wal.TypePrepare] - recs0[wal.TypePrepare])
	commits := float64(recs1[wal.TypeCommit] - recs0[wal.TypeCommit])
	fsyncs := float64(d["wal.flushes"] + d["wal.coord_flushes"])
	return commitCost{
		waves:    (prepares + commits) / commits,
		messages: (prepares + commits) / samples,
		prepares: prepares / samples,
		fsyncs:   fsyncs / samples,
		micros:   float64(took.Microseconds()) / samples,
	}, nil
}

// Fig12TPCB reproduces Figure 12: TPC-B throughput vs client count for
// GPDB 5 and GPDB 6. The paper reports ~80× at the peak.
func Fig12TPCB(opts Options) (*bench.Table, error) {
	w := &workload.TPCB{Branches: 16, AccountsPerBranch: 250}
	return versus("Fig. 12 — TPC-B throughput (TPS)", opts, w.Schema(), w.Load, w.Transaction)
}

// Fig13Scale reproduces Figure 13: single-host PostgreSQL vs Greenplum as
// the data grows. PostgreSQL (one segment, no dispatch cost) wins while the
// working set fits its buffer cache, then degrades; the MPP cluster stays
// steady because each segment holds only a slice of the data, which fits
// its cache at every scale swept.
func Fig13Scale(opts Options) (*bench.Table, error) {
	tbl := bench.NewTable("Fig. 13 — TPS vs scale factor", "scale", "PostgreSQL", "GPDB 6")
	scales := []struct {
		label    string
		accounts int
	}{{"1K", 2000}, {"10K", 20000}, {"100K", 100000}}
	n := 8
	if len(opts.Clients) > 0 {
		n = opts.Clients[len(opts.Clients)/2]
	}
	for _, sc := range scales {
		w := &workload.TPCB{Branches: 4, AccountsPerBranch: sc.accounts / 4}
		load := clients{n: n, op: w.Transaction}

		// One host, no interconnect cost: its costs are the fsync and,
		// once the accounts outgrow the buffer cache, a miss's random
		// read, served one at a time by the host's one disk.
		pg, err := engine(cluster.GPDB6(1), w.Schema(), w.Load, []fault.Spec{fsyncCost})
		if err != nil {
			return nil, err
		}
		if err := armCacheMisses(pg); err != nil {
			pg.Close()
			return nil, err
		}

		gp, err := engine(gpdb6(opts.Segments), w.Schema(), w.Load, timing)
		if err != nil {
			pg.Close()
			return nil, err
		}

		rpg, err := load.run(pg, opts.Duration)
		var rgp bench.Result
		if err == nil {
			rgp, err = load.run(gp, opts.Duration)
		}
		pg.Close()
		gp.Close()
		if err != nil {
			return nil, err
		}
		tbl.Add(sc.label, rpg.TPS(), rgp.TPS())
	}
	return tbl, nil
}

// armCacheMisses arms Fig. 13's buffer-cache model on a single-host engine
// loaded with TPC-B: an 8ms random read at heap_access, one at a time, on
// the share of accesses that miss a cache of 25 000 rows — (rows − 25 000)
// / rows of pgbench_accounts. Nothing is armed while the table fits.
func armCacheMisses(e *core.Engine) error {
	const cacheRows = 25000
	s, err := e.NewSession("")
	if err != nil {
		return err
	}
	_, rows, err := bench.SessionConn{S: s}.Exec(context.Background(), "SELECT count(*) FROM pgbench_accounts")
	if err != nil {
		return err
	}
	n := rows[0][0].Int()
	if n <= cacheRows {
		return nil
	}
	miss := sleepAt(fault.HeapAccess, 8*time.Millisecond)
	miss.Probability = int(100 * (n - cacheRows) / n)
	miss.Serial = true
	return e.Cluster().InjectFault(miss)
}

// Fig14UpdateOnly reproduces Figure 14: the update-only microbenchmark.
// GPDB 5 serializes every update on the table lock; GPDB 6 (GDD) runs them
// concurrently — the paper reports roughly 100×.
func Fig14UpdateOnly(opts Options) (*bench.Table, error) {
	w := &workload.UpdateOnly{Rows: 10000}
	return versus("Fig. 14 — update-only throughput (TPS)", opts, w.Schema(), w.Load, w.Transaction)
}

// Fig15InsertOnly reproduces Figure 15: single-segment inserts. GPDB 6
// benefits from direct dispatch + one-phase commit; the paper reports ~5×.
func Fig15InsertOnly(opts Options) (*bench.Table, error) {
	w := &workload.InsertOnly{}
	return versus("Fig. 15 — insert-only throughput (TPS)", opts, w.Schema(), nil, w.Transaction)
}
