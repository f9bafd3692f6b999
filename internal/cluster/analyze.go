package cluster

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/types"
)

// Analyze collects optimizer statistics for one table (or every table when
// name == ""): an MVCC-consistent reservoir sample of up to
// stats.DefaultSampleRows rows gathered across segments, turned into
// per-column null fraction, NDV, min/max and equi-depth histograms, and
// stored in the catalog. The statistics are stamped with the table's current
// write generation (statsGen), so any later write invalidates them — the
// planner then falls back to the live row count. It returns the number of
// tables analyzed.
func (c *Cluster) Analyze(ctx context.Context, name string) (int, error) {
	var tables []*catalog.Table
	if name == "" {
		tables = c.catalog.Tables()
	} else {
		t, err := c.catalog.Table(name)
		if err != nil {
			return 0, err
		}
		tables = []*catalog.Table{t}
	}
	lt := c.BeginTxn(nil)
	snap := c.Snapshot()
	defer func() {
		c.ReleaseSnapshot(snap)
		_, _ = c.CommitTxn(lt) // read-only: releases locks, logs nothing
	}()
	for _, t := range tables {
		if err := c.analyzeTable(ctx, lt, snap, t); err != nil {
			return 0, err
		}
	}
	// Fresh statistics change cost-based plan choices: invalidate every
	// cached plan so the next execution re-plans against them.
	c.BumpPlanEpoch()
	return len(tables), nil
}

// analyzeTable samples one table under the statement's snapshot.
func (c *Cluster) analyzeTable(ctx context.Context, lt *LiveTxn, snap *dtm.DistSnapshot, t *catalog.Table) error {
	// Capture the write generation before sampling: a write racing the scan
	// bumps it and the stored stats are treated as stale from birth.
	c.statsMu.Lock()
	if c.statsGen == nil {
		c.statsGen = make(map[string]uint64)
	}
	gen := c.statsGen[t.Name]
	c.statsMu.Unlock()

	res := newReservoir(stats.DefaultSampleRows, uint64(t.ID)*0x9e3779b97f4a7c15+1)
	nseg := c.SegCount()
	lt.grow(nseg)
	for i := 0; i < nseg; i++ {
		s, err := c.segUp(ctx, i)
		if err != nil {
			return err
		}
		acc := s.newAccess(lt.ownerOn(s), lt.dxid, snap)
		// Not idempotent: a retried scan would offer its rows to the
		// reservoir twice, so only a fault before the send is retried.
		err = c.dispatchSeg(i, false, func() error {
			for _, leaf := range leafIDs(t) {
				err := acc.ScanTable(ctx, leaf, exec.ScanSpec{}, exec.RowMark{}, func(row types.Row) (bool, bool, error) {
					res.offer(row)
					return false, true, nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		c.foldScan(acc)
	}
	colNames := make([]string, t.Schema.Len())
	for i := range colNames {
		colNames[i] = t.Schema.Columns[i].Name
	}
	ts := stats.BuildTableStats(t.Name, colNames, res.rows, res.seen, stats.DefaultBuckets)
	ts.Gen = gen
	c.catalog.SetTableStats(ts)
	return nil
}

// reservoir is a fixed-capacity uniform row sample (Vitter's algorithm R)
// with a deterministic xorshift generator, so ANALYZE is reproducible.
type reservoir struct {
	cap  int
	seen int64
	rng  uint64
	rows []types.Row
}

func newReservoir(capacity int, seed uint64) *reservoir {
	if seed == 0 {
		seed = 1
	}
	return &reservoir{cap: capacity, rng: seed}
}

func (r *reservoir) next() uint64 {
	x := r.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rng = x
	return x
}

// offer considers one row for the sample; rows are copied (storage iterators
// only lend them for the duration of the callback).
func (r *reservoir) offer(row types.Row) {
	r.seen++
	if len(r.rows) < r.cap {
		r.rows = append(r.rows, append(types.Row(nil), row...))
		return
	}
	// Replace a random slot with probability cap/seen.
	j := r.next() % uint64(r.seen)
	if j < uint64(r.cap) {
		r.rows[j] = append(types.Row(nil), row...)
	}
}

// TableStats implements the planner's statistics-provider upgrade interface:
// it returns the catalog's ANALYZE statistics for a table, or nil when the
// table was never analyzed or has been written since (the statsGen
// write-tracking invalidation).
func (c *Cluster) TableStats(table string) *stats.TableStats {
	t, err := c.catalog.Table(table)
	if err != nil {
		return nil
	}
	ts := c.catalog.TableStats(t.Name)
	if ts == nil {
		return nil
	}
	c.statsMu.Lock()
	gen := c.statsGen[t.Name]
	c.statsMu.Unlock()
	if ts.Gen != gen {
		return nil // written since ANALYZE: stale
	}
	return ts
}

// AnalyzedTables counts tables whose stored statistics are still valid.
func (c *Cluster) AnalyzedTables() int {
	n := 0
	for _, t := range c.catalog.Tables() {
		if c.TableStats(t.Name) != nil {
			n++
		}
	}
	return n
}

// ---- misestimate registry (risk-bounded plan choice) ----

// RecordMisestimate notes a plan whose actual rows exceeded the estimate's
// error bound at run time; subsequent executions of the same statement get
// the robust plan. It reports whether the key was new.
func (c *Cluster) RecordMisestimate(key string) bool {
	c.misestMu.Lock()
	defer c.misestMu.Unlock()
	if c.misestimated == nil {
		c.misestimated = make(map[string]struct{})
	}
	if _, ok := c.misestimated[key]; ok {
		return false
	}
	c.misestimated[key] = struct{}{}
	c.misestimates.Add(1)
	return true
}

// IsMisestimated reports whether a plan key has a recorded misestimate; the
// planner uses it to force the robust plan (redistribute + Grace hash join).
func (c *Cluster) IsMisestimated(key string) bool {
	c.misestMu.Lock()
	defer c.misestMu.Unlock()
	_, ok := c.misestimated[key]
	return ok
}

// NoteRobustFallback counts an execution that used the robust plan because
// of a recorded misestimate.
func (c *Cluster) NoteRobustFallback() { c.robustFallbacks.Add(1) }
