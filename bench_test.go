package greenplum

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/experiments"
)

// The Benchmark* functions below regenerate every table and figure of the
// paper's evaluation (§7), at experiments.Quick's sweep. Each logs the
// reproduced table through b.Log, so
//
//	go test -run '^$' -bench Fig12 .
//
// prints Figure 12, and -bench . prints the full reproduction.

func runFigure(b *testing.B, name string, fn func(experiments.Options) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(experiments.Quick())
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
