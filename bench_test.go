package greenplum

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
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
