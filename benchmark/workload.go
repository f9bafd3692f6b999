package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/types"
)

// workload is one benchmark scenario's schema, loader, operations and
// correctness gate. Each owns its copies of the statement lists (nothing is
// imported from internal/workload, so editing that package cannot move the
// benchmark) and draws every input from the run's seed.
type workload interface {
	// load creates the schema, bulk-loads it through one session and runs
	// ANALYZE.
	load(ctx context.Context, c conn) error
	// op runs one primary-stream operation for client id on c and reports
	// its kind (an index into spec.kinds).
	op(ctx context.Context, c conn, id int) (uint8, error)
	// check is the correctness gate: it compares what the engine now holds
	// with what the generator knows it acknowledged.
	check(ctx context.Context, h *host) error
	// statements lists the workload's statement texts with sample
	// parameters and their share of the statement mix, for the parse and
	// plan probes.
	statements() []statement
}

// A workload with a background stream (spec.bgRate > 0) also implements
// backgrounder.
type backgrounder interface {
	// background runs one operation of the open-loop background stream.
	background(ctx context.Context, c conn) (uint8, error)
}

type statement struct {
	sql    string
	args   []types.Datum
	weight float64
}

// spec fixes how a workload is driven.
type spec struct {
	name string
	why  string
	// tailQ is the latency_tail_ms quantile. It keeps at least ten samples
	// beyond it at this workload's sample count (about 36 000, 500 000, 170
	// and 540 in a 20 s window); README.md says why point_1pc reads p99.9
	// where tpcb_wire reads p99.
	tailQ float64
	// clients is the number of closed-loop primary clients (at most nproc).
	clients int
	// wire routes the primary clients through the TCP server on loopback.
	wire bool
	// warmup is the fixed number of primary operations run before measuring.
	warmup int
	// bgRate is the open-loop background stream's operations per second (0 =
	// the workload has none).
	bgRate int
	// traceOps is the fixed primary operation count of the traced pass, and
	// traceBg how many background operations follow each of them there (the
	// traced pass has one client, so the two streams take turns).
	traceOps, traceBg int
	// kindMetric, when set, is the per-layer metric name pattern that takes
	// each kind's median time in the untraced fixed pass, in kindUnit.
	kindMetric string
	kindUnit   time.Duration
	// kinds names the operation kinds op reports.
	kinds []string
	// olap sets the session's optimizer to orca (analytic plans).
	olap bool
	make func(seed uint64, scale int) workload
}

var specs = []*spec{
	{
		name:     "tpcb_wire",
		why:      "pgbench TPC-B over TCP: the only path through server, multi-segment 2PC and row locks; bypasses exec operators, interconnect and AO storage",
		tailQ:    0.99,
		clients:  2,
		wire:     true,
		warmup:   2000,
		traceOps: 400,
		kinds:    []string{"txn"},
		make:     newTPCB,
	},
	{
		name:       "point_1pc",
		why:        "in-process autocommit point SELECT/UPDATE/INSERT by distribution key: statement cache, direct dispatch, one-phase commit, WAL flush, hash index; no wire, 2PC or motion",
		tailQ:      0.999,
		clients:    2,
		warmup:     20000,
		traceOps:   4000,
		kinds:      []string{"select", "update", "insert"},
		kindMetric: "core.point_%s_us_p50",
		kindUnit:   time.Microsecond,
		make:       newPoint,
	},
	{
		name:       "scan_aocol",
		why:        "analytic queries over an AO-column table larger than the block cache: storage decode, zone maps, scan/filter/agg/sort do the work; sql, plan, dtm, wal, server do almost none",
		tailQ:      0.90,
		clients:    1,
		warmup:     3 * len(scanQueryNames),
		traceOps:   5 * len(scanQueryNames),
		kinds:      scanQueryNames,
		kindMetric: "exec.q_%s_ms_p50",
		kindUnit:   time.Millisecond,
		olap:       true,
		make:       newScan,
	},
	{
		name:     "htap_ch",
		why:      "CH-benCHmark analytics racing a fixed-rate NewOrder/Payment stream on the same heap tables: joins, interconnect motions, scans against MVCC writers (paper Fig. 16/17)",
		tailQ:    0.95,
		clients:  1,
		warmup:   3 * len(chQueries),
		bgRate:   200,
		traceOps: 2 * len(chQueries),
		traceBg:  chTraceTxns,
		kinds:    chQueryNames(),
		olap:     true,
		make:     newHTAP,
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled divides a full-size count by the scale divisor, keeping at least min.
func scaled(n, scale, min int) int {
	if n /= scale; n < min {
		return min
	}
	return n
}

func ints(vs ...int) []types.Datum {
	out := make([]types.Datum, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(int64(v))
	}
	return out
}
