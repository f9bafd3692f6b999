package greenplum

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/workload"
)

// The Benchmark* functions below regenerate every table and figure of the
// paper's evaluation (§7). Each reports the reproduced series through
// b.Log and exposes a headline metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the full reproduction. cmd/gpbench runs the same experiments with
// longer sweeps.

// quickOpts keeps benchmark iterations affordable.
func quickOpts() experiments.Options {
	o := experiments.Quick()
	o.Duration = 200 * time.Millisecond
	return o
}

func runFigure(b *testing.B, name string, fn func(experiments.Options) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(quickOpts())
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if i == 0 {
			b.Log(tbl.String())
		}
	}
}

// BenchmarkTable1LockConflictMatrix regenerates the paper's Table 1.
func BenchmarkTable1LockConflictMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := experiments.Table1Conflicts()
		if i == 0 {
			b.Log(out)
		}
	}
}

// BenchmarkFig2LockingShare regenerates Figure 2 (lock wait share under the
// GPDB 5 locking regime).
func BenchmarkFig2LockingShare(b *testing.B) {
	runFigure(b, "fig2", experiments.Fig2Locking)
}

// BenchmarkFig10CommitProtocols regenerates Figure 10 (1PC vs 2PC cost).
func BenchmarkFig10CommitProtocols(b *testing.B) {
	runFigure(b, "fig10", experiments.Fig10Commit)
}

// BenchmarkFig12TPCB regenerates Figure 12 (TPC-B, GPDB 5 vs GPDB 6).
func BenchmarkFig12TPCB(b *testing.B) {
	runFigure(b, "fig12", experiments.Fig12TPCB)
}

// BenchmarkFig13ScaleFactor regenerates Figure 13 (PostgreSQL vs Greenplum
// across scale factors).
func BenchmarkFig13ScaleFactor(b *testing.B) {
	runFigure(b, "fig13", experiments.Fig13Scale)
}

// BenchmarkFig14UpdateOnly regenerates Figure 14 (update-only, the GDD
// speedup).
func BenchmarkFig14UpdateOnly(b *testing.B) {
	runFigure(b, "fig14", experiments.Fig14UpdateOnly)
}

// BenchmarkFig15InsertOnly regenerates Figure 15 (insert-only, the
// one-phase-commit speedup).
func BenchmarkFig15InsertOnly(b *testing.B) {
	runFigure(b, "fig15", experiments.Fig15InsertOnly)
}

// BenchmarkFig16OLAPUnderOLTP regenerates Figure 16 (OLAP QPH with and
// without OLTP load).
func BenchmarkFig16OLAPUnderOLTP(b *testing.B) {
	runFigure(b, "fig16", experiments.Fig16OLAPUnderOLTP)
}

// BenchmarkFig17OLTPUnderOLAP regenerates Figure 17 (OLTP QPM with and
// without OLAP load).
func BenchmarkFig17OLTPUnderOLAP(b *testing.B) {
	runFigure(b, "fig17", experiments.Fig17OLTPUnderOLAP)
}

// BenchmarkFig18ResourceGroups regenerates Figure 18 (resource-group CPU
// configurations vs OLTP latency).
func BenchmarkFig18ResourceGroups(b *testing.B) {
	runFigure(b, "fig18", experiments.Fig18ResourceGroups)
}

// ---- micro-benchmarks of the core mechanisms (ablations) ----

// BenchmarkPointUpdateGDDvsGPDB5 measures a single contended-table update
// under both locking regimes with 8 concurrent writers — the mechanism
// behind Figures 12/14 in isolation.
func BenchmarkPointUpdateGDDvsGPDB5(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  *cluster.Config
	}{
		{"GPDB5", cluster.GPDB5(2)},
		{"GPDB6", cluster.GPDB6(2)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			e := core.NewEngine(mode.cfg)
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			w := &workload.UpdateOnly{Rows: 1000}
			if err := s.ExecScript(ctx, w.Schema()); err != nil {
				b.Fatal(err)
			}
			if err := w.Load(ctx, bench.SessionConn{S: s}); err != nil {
				b.Fatal(err)
			}
			r := workload.NewRand(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Transaction(ctx, bench.SessionConn{S: s}, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommit1PCvs2PC measures bare commit latency of the two
// protocols (Figure 10's mechanism).
func BenchmarkCommit1PCvs2PC(b *testing.B) {
	for _, one := range []bool{true, false} {
		name := "2PC"
		if one {
			name = "1PC"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cluster.GPDB6(4)
			cfg.OnePhase = one
			cfg.DirectDispatch = true
			e := core.NewEngine(cfg)
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			if _, err := s.Exec(ctx, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(ctx, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAOColumnVsHeapScan compares analytic scans over the two storage
// engines (the paper's §3.4 polymorphic storage motivation): a narrow
// aggregate over a wide table.
func BenchmarkAOColumnVsHeapScan(b *testing.B) {
	for _, stor := range []string{"heap", "aocolumn"} {
		b.Run(stor, func(b *testing.B) {
			e := core.NewEngine(cluster.GPDB6(2))
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			ddl := "CREATE TABLE wide (a int, b int, c int, d int, e int, f text) DISTRIBUTED BY (a)"
			if stor == "aocolumn" {
				ddl = "CREATE TABLE wide (a int, b int, c int, d int, e int, f text) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"
			}
			if _, err := s.Exec(ctx, ddl); err != nil {
				b.Fatal(err)
			}
			for batch := 0; batch < 20; batch++ {
				vals := ""
				for i := 0; i < 500; i++ {
					if i > 0 {
						vals += ","
					}
					n := batch*500 + i
					vals += fmt.Sprintf("(%d, %d, %d, %d, %d, 'pad-%d')", n, n%7, n%11, n%13, n%17, n)
				}
				if _, err := s.Exec(ctx, "INSERT INTO wide VALUES "+vals); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(ctx, "SELECT sum(b), count(*) FROM wide WHERE c < 9"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGDDDetectionPass measures one detector pass over a busy cluster
// (the paper's claim that the daemon "does not consume much resource").
func BenchmarkGDDDetectionPass(b *testing.B) {
	cfg := cluster.GPDB6(4)
	cfg.GDDPeriod = time.Hour // manual passes only
	e := core.NewEngine(cfg)
	defer e.Close()
	s, _ := e.NewSession("")
	ctx := context.Background()
	w := &workload.UpdateOnly{Rows: 100}
	if err := s.ExecScript(ctx, w.Schema()); err != nil {
		b.Fatal(err)
	}
	if err := w.Load(ctx, bench.SessionConn{S: s}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cluster().CollectWaitGraphs()
	}
}

// BenchmarkAblationDirectDispatch isolates direct dispatch from the other
// GPDB 6 features: same GDD + 1PC configuration, with and without routing
// single-segment statements to one segment only.
func BenchmarkAblationDirectDispatch(b *testing.B) {
	for _, direct := range []bool{true, false} {
		name := "direct"
		if !direct {
			name = "whole-gang"
		}
		b.Run(name, func(b *testing.B) {
			cfg := cluster.GPDB6(4)
			cfg.DirectDispatch = direct
			cfg.SegmentStmtCPU = 200 * time.Microsecond
			e := core.NewEngine(cfg)
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			if _, err := s.Exec(ctx, "CREATE TABLE t (c1 int, c2 int) DISTRIBUTED BY (c1)"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(ctx, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGDDPeriod varies the detector period to show the daemon's
// overhead is negligible (paper §4.3 "does not consume much resource").
func BenchmarkAblationGDDPeriod(b *testing.B) {
	for _, period := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
		b.Run(period.String(), func(b *testing.B) {
			cfg := cluster.GPDB6(4)
			cfg.GDDPeriod = period
			e := core.NewEngine(cfg)
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			w := &workload.UpdateOnly{Rows: 500}
			if err := s.ExecScript(ctx, w.Schema()); err != nil {
				b.Fatal(err)
			}
			if err := w.Load(ctx, bench.SessionConn{S: s}); err != nil {
				b.Fatal(err)
			}
			r := workload.NewRand(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.Transaction(ctx, bench.SessionConn{S: s}, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompressionCodecs compares AO-column storage footprint
// and scan speed across codecs (none / zlib / RLE-delta) via the SQL layer.
func BenchmarkAblationCompressionCodecs(b *testing.B) {
	e := core.NewEngine(cluster.GPDB6(2))
	defer e.Close()
	s, _ := e.NewSession("")
	ctx := context.Background()
	if _, err := s.Exec(ctx, "CREATE TABLE f (a int, b int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (a)"); err != nil {
		b.Fatal(err)
	}
	for batch := 0; batch < 10; batch++ {
		vals := ""
		for i := 0; i < 500; i++ {
			if i > 0 {
				vals += ","
			}
			n := batch*500 + i
			vals += fmt.Sprintf("(%d, %d)", n, n%100)
		}
		if _, err := s.Exec(ctx, "INSERT INTO f VALUES "+vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(ctx, "SELECT sum(b) FROM f"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- vectorized execution benchmarks ----

// benchBatchStore is exec.ParallelStoreAccess over a bare storage engine: the
// batch scan path (storage.ScanBatches) and block-range splitting, without a
// segment around it.
type benchBatchStore struct {
	eng storage.Engine
}

// ScanTable, IndexLookup and WriteRow complete exec.StoreAccess; no
// benchmark here runs a FOR UPDATE scan, an index scan or a write.
func (s *benchBatchStore) ScanTable(context.Context, catalog.TableID, exec.RowMark, func(types.Row) (bool, bool, error)) error {
	return errors.New("benchBatchStore: row scans are not benchmarked")
}

func (s *benchBatchStore) IndexLookup(context.Context, *catalog.Table, *catalog.Index, []types.Datum, exec.RowMark, func(types.Row) (bool, bool, error)) error {
	return errors.New("benchBatchStore: index lookups are not benchmarked")
}

func (s *benchBatchStore) WriteRow(context.Context, exec.RowID, *plan.UpdatePlan) (bool, error) {
	return false, errors.New("benchBatchStore: writes are not benchmarked")
}

func (s *benchBatchStore) ScanTableBatches(ctx context.Context, _ catalog.TableID, spec exec.ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	var iterErr error
	storage.ScanBatches(s.eng, &storage.ScanOpts{Cols: spec.Cols}, batchSize, func(hdrs []storage.Header, rows []types.Row) bool {
		select {
		case <-ctx.Done():
			iterErr = ctx.Err()
			return false
		default:
		}
		// Engine batch rows are retainable; only the container must be copied.
		cont, err := fn(&types.RowBatch{Rows: append([]types.Row(nil), rows...)})
		if err != nil {
			iterErr = err
			return false
		}
		return cont
	})
	return iterErr
}

// SplitTableRanges implements exec.ParallelStoreAccess over the bare engine.
func (s *benchBatchStore) SplitTableRanges(_ catalog.TableID, parts int) ([]exec.ScanRange, bool) {
	sp, ok := s.eng.(storage.BlockSplitter)
	if !ok {
		return nil, false
	}
	ranges := sp.SplitBlocks(parts)
	out := make([]exec.ScanRange, len(ranges))
	for i, r := range ranges {
		out[i] = exec.ScanRange{Begin: r.Begin, End: r.End}
	}
	return out, true
}

// ScanTableRangeBatches implements exec.ParallelStoreAccess.
func (s *benchBatchStore) ScanTableRangeBatches(ctx context.Context, _ catalog.TableID, rng exec.ScanRange, spec exec.ScanSpec, batchSize int, fn func(*types.RowBatch) (bool, error)) error {
	sp := s.eng.(storage.BlockSplitter)
	var iterErr error
	sp.ForEachBatchRange(storage.BlockRange{Begin: rng.Begin, End: rng.End}, &storage.ScanOpts{Cols: spec.Cols}, batchSize, func(hdrs []storage.Header, rows []types.Row) bool {
		select {
		case <-ctx.Done():
			iterErr = ctx.Err()
			return false
		default:
		}
		cont, err := fn(&types.RowBatch{Rows: append([]types.Row(nil), rows...)})
		if err != nil {
			iterErr = err
			return false
		}
		return cont
	})
	return iterErr
}

// BenchmarkZoneMapSkip measures predicate pushdown end to end: a ≈1%
// selectivity range predicate on a clustered key over an AO-column table,
// with zone maps on vs off (Config.EnableZoneMaps — the same switch SET
// enable_zonemaps flips per session). With pushdown on, the scan skips every
// sealed block outside the key range before decoding it; the ISSUE's
// acceptance criterion is ≥3× rows/sec for on vs off.
func BenchmarkZoneMapSkip(b *testing.B) {
	const (
		nRows = 200_000
		lo    = 100_000
		hi    = 102_000 // [lo, hi) ≈ 1% of the table
	)
	query := fmt.Sprintf("SELECT count(*), sum(v) FROM z WHERE k >= %d AND k < %d", lo, hi)
	for _, mode := range []struct {
		name string
		on   bool
	}{
		{"zonemaps=on", true},
		{"zonemaps=off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := cluster.GPDB6(2)
			cfg.EnableZoneMaps = mode.on
			e := core.NewEngine(cfg)
			defer e.Close()
			s, _ := e.NewSession("")
			ctx := context.Background()
			if _, err := s.Exec(ctx, "CREATE TABLE z (k int, v int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)"); err != nil {
				b.Fatal(err)
			}
			// Clustered load: k ascends with the insert order, so each
			// segment's sealed blocks cover disjoint, narrow key ranges.
			for off := 0; off < nRows; off += 1000 {
				var sb strings.Builder
				sb.WriteString("INSERT INTO z VALUES ")
				for i := off; i < off+1000; i++ {
					if i > off {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "(%d,%d)", i, i%101)
				}
				if _, err := s.Exec(ctx, sb.String()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Exec(ctx, query)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][0].Int() != hi-lo {
					b.Fatalf("count: %v", res.Rows)
				}
			}
			b.ReportMetric(float64(nRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// BenchmarkParallelScanAgg measures intra-segment parallel batch execution:
// the same scan+filter+aggregate pipeline at parallelism 1 vs 4, each with a
// cold decoded-block cache (every iteration pays decompression) and a warm
// one (blocks served from the segment-level LRU). The ISSUE's acceptance
// criterion — ≥1.5× rows/sec at parallelism 4 vs 1 on a warm cache — applies
// on multi-core runners; a single-core runner only shows the cache effect.
func BenchmarkParallelScanAgg(b *testing.B) {
	const nRows = 200_000 // ~49 sealed blocks
	eng := storage.NewAOColumn(3, storage.CompressionRLEDelta)
	for i := 0; i < nRows; i++ {
		eng.Insert(1, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 512)),
			types.NewInt(int64(i % 7)),
		})
	}
	eng.Seal()
	sch := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "w", Kind: types.KindInt},
	)
	tab := &catalog.Table{ID: 1, Name: "f", Schema: sch, PartitionCol: -1}
	mkPlan := func() plan.Node {
		scan := plan.NewScan(tab, []catalog.TableID{1}, &plan.BinOp{
			Op: "<", Left: &plan.ColRef{Idx: 2}, Right: &plan.Const{Val: types.NewInt(5)}})
		return plan.NewAgg(scan,
			[]plan.Expr{&plan.ColRef{Idx: 1}},
			[]plan.AggSpec{
				{Func: plan.AggCount, Name: "cnt"},
				{Func: plan.AggSum, Arg: &plan.ColRef{Idx: 0}, Name: "s"},
			}, plan.AggPlain)
	}
	store := &benchBatchStore{eng: eng}
	run := func(b *testing.B, dop int) {
		ctx := &exec.Context{Ctx: context.Background(), Store: store, NumSegments: 1, SegID: 0, Parallel: dop}
		rows, err := exec.DrainBatches(exec.BuildBatchParallel(ctx, mkPlan()))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 512 {
			b.Fatalf("groups: %d", len(rows))
		}
	}
	for _, dop := range []int{1, 4} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("dop=%d/%s", dop, mode), func(b *testing.B) {
				cache := storage.NewBlockCache(1 << 30)
				eng.SetBlockCache(cache)
				if mode == "warm" {
					run(b, dop) // populate the cache outside the timer
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						b.StopTimer()
						eng.SetBlockCache(storage.NewBlockCache(1 << 30))
						b.StartTimer()
					}
					run(b, dop)
				}
				b.ReportMetric(float64(nRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
			})
		}
	}
}

// BenchmarkSpillSortAgg proves the memory-governed executor's acceptance
// property: a sort+aggregate query whose working set is ≥10× the resource
// group's spill budget (slot quota × MEMORY_SPILL_RATIO) completes, returns
// results byte-identical to the unconstrained in-memory run, reports nonzero
// spill counters, keeps the operator-memory high-water mark within the
// budget, and leaves no temp files behind. It reports constrained vs
// unconstrained throughput (the price of spilling).
func BenchmarkSpillSortAgg(b *testing.B) {
	const nRows = 30_000
	query := "SELECT b, count(*), sum(a), min(a) FROM spilltab GROUP BY b ORDER BY b"

	cfg := cluster.GPDB6(2)
	cfg.MemoryBytes = 32 << 20
	cfg.BlockCacheBytes = 1 << 20
	e := core.NewEngine(cfg)
	defer e.Close()
	admin, _ := e.NewSession("")
	ctx := context.Background()
	// Slot quota = 32 MiB × 10% = ~3.2 MiB; budget = 1% of that ≈ 33 KiB.
	// 30k rows × ~72 accounted bytes ≈ 2.1 MiB of sort input (~60× budget);
	// grouping by the unique b adds a same-sized hash-agg working set.
	setup := []string{
		"CREATE RESOURCE GROUP spill_rg WITH (CONCURRENCY=1, CPU_RATE_LIMIT=20, MEMORY_LIMIT=10, MEMORY_SHARED_QUOTA=0, MEMORY_SPILL_RATIO=1)",
		"CREATE ROLE spill_bench RESOURCE GROUP spill_rg",
		"CREATE TABLE spilltab (a int, b int) DISTRIBUTED BY (a)",
	}
	for _, q := range setup {
		if _, err := admin.Exec(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	for off := 0; off < nRows; off += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO spilltab VALUES ")
		for i := off; i < off+1000; i++ {
			if i > off {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d)", i, (i*2654435761)%1_000_000)
		}
		if _, err := admin.Exec(ctx, sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	baseline, err := admin.Exec(ctx, query)
	if err != nil {
		b.Fatal(err)
	}

	budget := (cfg.MemoryBytes / 10) / 100 // slot quota × spill ratio
	// A spill directory of its own: other packages' benchmarks spill too.
	b.Setenv("TMPDIR", b.TempDir())
	constrained, _ := e.NewSession("spill_bench")
	constrained.UseResourceGroup(true, 0, 0)
	spills0, _, _, _ := e.Cluster().SpillStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := constrained.Exec(ctx, query)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(baseline.Rows) {
			b.Fatalf("row counts differ: constrained=%d unconstrained=%d", len(res.Rows), len(baseline.Rows))
		}
		for r := range res.Rows {
			if !res.Rows[r].Equal(baseline.Rows[r]) {
				b.Fatalf("row %d differs: constrained=%v unconstrained=%v", r, res.Rows[r], baseline.Rows[r])
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(nRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
	spills, sbytes, _, peak := e.Cluster().SpillStats()
	if spills == spills0 {
		b.Fatal("constrained query did not spill")
	}
	if peak > budget {
		b.Fatalf("budget-tracked operator memory %d exceeds spill budget %d", peak, budget)
	}
	// The Vmemtracker's view is the real gate: it includes everything the
	// budget counter cannot see (forceGrow overshoot from spill-chunk
	// floors, skewed partition reloads, and the charged spill-file
	// buffers). The in-memory plan needs the full working set — ~2.1 MiB of
	// sort input plus a ~7 MiB group table — so a 2 MiB ceiling proves the
	// high water is bounded by spill machinery overheads, not the data.
	vmem := e.Cluster().VmemPeak()
	if vmem <= 0 || vmem > 2<<20 {
		b.Fatalf("resource-group vmem high water %d outside (0, 2 MiB] — working set no longer bounded", vmem)
	}
	b.ReportMetric(float64(sbytes)/float64(b.N), "spill_bytes/op")
	b.ReportMetric(float64(peak), "budget_hwm_bytes")
	b.ReportMetric(float64(vmem), "vmem_hwm_bytes")
	if left, _ := filepath.Glob(filepath.Join(os.TempDir(), "gpspill-*")); len(left) != 0 {
		b.Fatalf("spill temp dirs leaked: %v", left)
	}
}

// BenchmarkWALOverheadAndFailover measures the price of fault tolerance and
// the speed of recovery:
//
//  1. steady-state DML throughput under three durability configurations —
//     no WAL, WAL only, WAL + async mirror replication — asserting that
//     replicated throughput stays ≥ 0.6× the no-WAL baseline (the
//     acceptance gate for the replication hot path);
//  2. failover latency: kill a primary mid-steady-state and measure
//     kill→first-successful-query, reporting the p50 over several rounds.
func BenchmarkWALOverheadAndFailover(b *testing.B) {
	ctx := context.Background()
	const opsPerRun = 600

	runDML := func(cfg *cluster.Config) (opsPerSec float64) {
		e := core.NewEngine(cfg)
		defer e.Close()
		admin, _ := e.NewSession("")
		if _, err := admin.Exec(ctx, "CREATE TABLE wt (k int, v int) DISTRIBUTED BY (k)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := admin.Exec(ctx, fmt.Sprintf("INSERT INTO wt VALUES (%d, 0)", i)); err != nil {
				b.Fatal(err)
			}
		}
		t0 := time.Now()
		for i := 0; i < opsPerRun; i++ {
			var err error
			if i%3 == 0 {
				_, err = admin.Exec(ctx, fmt.Sprintf("UPDATE wt SET v = v + 1 WHERE k = %d", i%200))
			} else {
				_, err = admin.Exec(ctx, fmt.Sprintf("INSERT INTO wt VALUES (%d, %d)", 200+i, i))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(t0)
		if cfg.ReplicaMode != cluster.ReplicaNone {
			// Replication must actually have streamed the workload.
			st := e.Cluster().WALStats()
			if st.Records == 0 || st.Bytes == 0 {
				b.Fatalf("replicated run logged nothing: %+v", st)
			}
		}
		return float64(opsPerRun) / elapsed.Seconds()
	}

	var baseline, walOnly, replicated float64
	for i := 0; i < b.N; i++ {
		noWAL := cluster.GPDB6(2)
		noWAL.WAL = false
		baseline = runDML(noWAL)

		wal := cluster.GPDB6(2)
		walOnly = runDML(wal)

		repl := cluster.GPDB6(2)
		repl.ReplicaMode = cluster.ReplicaAsync
		repl.FTSInterval = 5 * time.Millisecond
		replicated = runDML(repl)
	}
	b.ReportMetric(baseline, "nowal_ops/sec")
	b.ReportMetric(walOnly, "wal_ops/sec")
	b.ReportMetric(replicated, "replica_ops/sec")
	ratio := replicated / baseline
	b.ReportMetric(ratio, "replica/nowal_ratio")
	if ratio < 0.6 {
		b.Fatalf("async-replication DML throughput %.2f× the no-WAL baseline (< 0.6×): %.0f vs %.0f ops/sec",
			ratio, replicated, baseline)
	}

	// Failover-to-first-successful-query latency, p50 over five rounds.
	cfg := cluster.GPDB6(2)
	cfg.ReplicaMode = cluster.ReplicaSync
	cfg.FTSInterval = 2 * time.Millisecond
	e := core.NewEngine(cfg)
	defer e.Close()
	admin, _ := e.NewSession("")
	if _, err := admin.Exec(ctx, "CREATE TABLE ft (k int, v int) DISTRIBUTED BY (k)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := admin.Exec(ctx, fmt.Sprintf("INSERT INTO ft VALUES (%d, %d)", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	var lat []time.Duration
	for round := 0; round < 5; round++ {
		victim := round % 2
		if err := e.Cluster().KillSegment(victim); err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		for {
			res, err := admin.Exec(ctx, "SELECT count(*) FROM ft")
			if err == nil && res.Rows[0][0].Int() == 500 {
				break
			}
			if time.Since(t0) > 10*time.Second {
				b.Fatalf("round %d: no successful query within 10s of kill (last err: %v)", round, err)
			}
		}
		lat = append(lat, time.Since(t0))
		if err := e.Cluster().Recover(victim); err != nil {
			b.Fatal(err)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := lat[len(lat)/2]
	b.ReportMetric(float64(p50.Microseconds())/1000, "failover_p50_ms")
	if e.Cluster().Failovers() != 5 {
		b.Fatalf("failovers = %d, want 5", e.Cluster().Failovers())
	}
}

// BenchmarkParserThroughput measures SQL parse cost for a representative
// OLTP statement.
func BenchmarkParserThroughput(b *testing.B) {
	e := core.NewEngine(cluster.GPDB6(1))
	defer e.Close()
	_ = e
	q := "UPDATE pgbench_accounts SET abalance = abalance + 42 WHERE aid = 12345"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseForBench(q); err != nil {
			b.Fatal(err)
		}
	}
}
