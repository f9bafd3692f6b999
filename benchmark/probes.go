package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/interconnect"
	"repro/internal/lockmgr"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/wal"
)

// A probe times one module's public functions directly, outside any SQL
// statement, for a fixed number of calls (never a duration), so a regression
// is named by package. It runs probeRounds times and reports the median
// round, as time per call.
type probe struct {
	metric string        // the per-layer metric it feeds
	unit   time.Duration // ns or us
	calls  int           // per round
	took   time.Duration // the median round
}

func (p probe) perCall() float64 { return float64(p.took) / float64(p.unit) / float64(p.calls) }

// Calls per round at full scale; -scale divides them like everything else.
const (
	probeRounds     = 5
	probeParseReps  = 100
	probePlanReps   = 50
	probeLockCalls  = 100000
	probeWALCalls   = 50000
	probeScanRows   = 64 * 1024
	probeIndexCalls = 100000
	probeBatches    = 1000
	probeBatchRows  = 1024
)

// probeFunc runs one round and returns its call count and how long it took.
type probeFunc func(ctx context.Context) (calls int, took time.Duration, err error)

// runProbes runs every layer probe; c is a session on the loaded engine for
// the one probe that needs a catalog (planning).
func runProbes(ctx context.Context, out io.Writer, stmts []statement, c conn, scale int) ([]probe, error) {
	n := func(calls int) int { return scaled(calls, scale, 10) }
	rows := n(probeScanRows)
	aocol, heap := storage.NewAOColumn(6, storage.CompressionRLEDelta), storage.NewHeap()
	fillScanTable(aocol, rows)
	fillScanTable(heap, rows)
	index := storage.NewHashIndex([]int{0})
	for i := 0; i < rows; i++ {
		index.Insert(types.Row{types.NewInt(int64(i))}, storage.TupleID(i+1))
	}
	list := []struct {
		metric string
		unit   time.Duration
		run    probeFunc
	}{
		{"sql.parse_us_per_stmt", time.Microsecond, mixWeighted(stmts, n(probeParseReps), func(_ context.Context, st statement) error {
			_, err := sql.Parse(st.sql)
			return err
		})},
		{"plan.plan_us_per_stmt", time.Microsecond, mixWeighted(stmts, n(probePlanReps), func(ctx context.Context, st statement) error {
			// The text is in the statement cache after the first call, so
			// what is timed is planning plus rendering the plan text.
			_, err := c.exec(ctx, "EXPLAIN "+st.sql, st.args...)
			return err
		})},
		{"lockmgr.acquire_release_ns", time.Nanosecond, lockProbe(n(probeLockCalls))},
		{"wal.append_flush_us", time.Microsecond, walProbe(n(probeWALCalls))},
		{"storage.aocol_scan_ns_per_row", time.Nanosecond, scanProbe(aocol, rows)},
		{"storage.heap_scan_ns_per_row", time.Nanosecond, scanProbe(heap, rows)},
		{"storage.index_lookup_ns", time.Nanosecond, indexProbe(index, rows, n(probeIndexCalls))},
		{"interconnect.sendrecv_ns_per_row", time.Nanosecond, interconnectProbe(n(probeBatches))},
	}
	runtime.GC() // start from a collected heap: the set-up just allocated the whole data set
	var probes []probe
	for _, pr := range list {
		p := probe{metric: pr.metric, unit: pr.unit}
		var rounds []time.Duration
		for i := 0; i < probeRounds; i++ {
			calls, took, err := pr.run(ctx)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", pr.metric, err)
			}
			p.calls = calls
			rounds = append(rounds, took)
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
		p.took = rounds[len(rounds)/2]
		unit := "ns"
		if p.unit == time.Microsecond {
			unit = "us"
		}
		fmt.Fprintf(out, "probe %-34s %12.2f %s/call, median of %d rounds of %d calls\n", p.metric, p.perCall(), unit, probeRounds, p.calls)
		probes = append(probes, p)
	}
	return probes, nil
}

// mixWeighted times call on each of the workload's statements reps times and
// returns the per-statement cost weighted by the statement's share of the mix
// (as the time len(stmts)*reps calls of that average cost would take).
func mixWeighted(stmts []statement, reps int, call func(context.Context, statement) error) probeFunc {
	return func(ctx context.Context) (int, time.Duration, error) {
		var total, weighted float64
		for _, st := range stmts {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := call(ctx, st); err != nil {
					return 0, 0, fmt.Errorf("%s: %w", st.sql, err)
				}
			}
			weighted += st.weight * float64(time.Since(t0)) / float64(reps)
			total += st.weight
		}
		calls := reps * len(stmts)
		return calls, time.Duration(weighted / total * float64(calls)), nil
	}
}

// lockProbe acquires and releases an uncontended row-level lock.
func lockProbe(calls int) probeFunc {
	return func(ctx context.Context) (int, time.Duration, error) {
		m := lockmgr.NewManager()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			tag := lockmgr.TupleTag(1, uint64(i%1024))
			if err := m.Acquire(ctx, 1, tag, lockmgr.RowExclusive); err != nil {
				return 0, 0, err
			}
			m.Release(1, tag)
		}
		return calls, time.Since(t0), nil
	}
}

// walProbe appends one insert record and flushes it, as the one-phase commit
// of a single-row write does.
func walProbe(calls int) probeFunc {
	return func(context.Context) (int, time.Duration, error) {
		l := wal.New()
		row := types.Row{types.NewInt(1), types.NewInt(2), types.NewText("pad")}
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			l.Append(&wal.Record{Type: wal.TypeInsert, Leaf: 1, Xid: uint64(i + 1), TID: uint64(i + 1), Row: row})
			l.Flush(0)
		}
		return calls, time.Since(t0), l.Err()
	}
}

// fillScanTable loads n six-column rows shaped like scan_aocol's.
func fillScanTable(e storage.Engine, n int) {
	for i := 0; i < n; i++ {
		e.Insert(txn.XID(2), types.Row{
			types.NewInt(int64(i)), types.NewInt(int64(i % 64)), types.NewInt(int64(i / 128)),
			types.NewInt(int64(i % 50)), types.NewFloat(float64(i%4000) / 4), types.NewText("tag-07"),
		})
	}
}

// scanProbe scans the whole table in executor-sized batches; a column table
// starts every round with nothing decoded.
func scanProbe(e storage.Engine, want int) probeFunc {
	return func(context.Context) (int, time.Duration, error) {
		if ao, ok := e.(*storage.AOColumn); ok {
			ao.ReleaseCachedBlocks()
		}
		rows := 0
		t0 := time.Now()
		storage.ScanBatches(e, nil, types.DefaultBatchSize, func(_ []storage.Header, batch []types.Row) bool {
			rows += len(batch)
			return true
		})
		took := time.Since(t0)
		if rows != want {
			return 0, 0, fmt.Errorf("scanned %d of %d rows", rows, want)
		}
		return rows, took, nil
	}
}

// indexProbe looks keys up in a hash index holding keys 0..keys-1.
func indexProbe(ix *storage.HashIndex, keys, calls int) probeFunc {
	return func(context.Context) (int, time.Duration, error) {
		key := make([]types.Datum, 1)
		found := 0
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			key[0] = types.NewInt(int64(i*7919) % int64(keys))
			found += len(ix.Lookup(key))
		}
		took := time.Since(t0)
		if found < calls {
			return 0, 0, fmt.Errorf("found %d of %d keys", found, calls)
		}
		return calls, took, nil
	}
}

// interconnectProbe streams 1024-row batches through a gather stream from one
// sender goroutine to the receiving caller.
func interconnectProbe(batches int) probeFunc {
	return func(ctx context.Context) (int, time.Duration, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		f := interconnect.NewFabric(1, 8, 0)
		f.OpenGather(1, 1)
		rows := make([]types.Row, probeBatchRows)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i))}
		}
		sendErr := make(chan error, 1)
		t0 := time.Now()
		go func() {
			defer f.DoneSending(1)
			for i := 0; i < batches; i++ {
				if err := f.SendBatch(ctx, 1, -1, &types.RowBatch{Rows: rows}); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		recv := f.Receiver(1, -1)
		got := 0
		for {
			b, ok, err := recv.RecvBatch(ctx)
			if err != nil {
				cancel() // unblocks the sender
				<-sendErr
				return 0, 0, err
			}
			if !ok {
				break
			}
			got += b.Len()
		}
		took := time.Since(t0)
		if err := <-sendErr; err != nil {
			return 0, 0, err
		}
		if got != batches*probeBatchRows {
			return 0, 0, fmt.Errorf("received %d of %d rows", got, batches*probeBatchRows)
		}
		return got, took, nil
	}
}
