package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/interconnect"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// QueryResources carries the resource-group hooks for one statement.
type QueryResources struct {
	Mem exec.MemAccount
	CPU exec.CPUCharger
	// CPUBatchCost is the simulated CPU charged per executor row batch.
	CPUBatchCost time.Duration
	// Scan, when non-nil, receives the statement's block-scan counters
	// (zone-map pushdown effectiveness) after the query finishes — the
	// EXPLAIN ANALYZE "blocks: scanned/skipped" numbers.
	Scan *ScanCounters
	// SpillBudget is the statement's operator-memory budget in bytes (slot
	// quota × memory_spill_ratio; resgroup.Group.SpillBudget): blocking
	// operators exceeding it spill to per-segment temp files instead of
	// growing. 0 disables spilling.
	SpillBudget int64
	// Spill, when non-nil, receives the statement's spill counters after the
	// query finishes — the EXPLAIN ANALYZE "spill:" numbers.
	Spill *SpillCounters
	// NodeRows, when non-nil, collects per-plan-node actual output rows
	// during execution — the EXPLAIN ANALYZE est-vs-actual numbers and the
	// optimizer's risk-bound misestimate input.
	NodeRows *plan.NodeRowCounts
	// Ops, when non-nil, collects per-node per-segment executor statistics
	// (rows/batches/wall-time/peak-mem/spill) for operator-level
	// EXPLAIN ANALYZE and per-operator trace spans.
	Ops *plan.OpStats
	// Trace, when non-nil, is the statement's distributed trace. ExecSpan is
	// the coordinator's execute-span id: dispatch propagates it so every
	// per-segment slice span attaches under it — the simulated analogue of a
	// trace context travelling on the wire.
	Trace    *obs.Trace
	ExecSpan obs.SpanID
	// DML, when non-nil, receives per-segment rows-affected counts from
	// write dispatch (EXPLAIN ANALYZE on INSERT/UPDATE/DELETE).
	DML *DMLCounters
}

// trace returns the statement's trace (nil-safe: spans begun on a nil trace
// are inert).
func (r *QueryResources) trace() *obs.Trace {
	if r == nil {
		return nil
	}
	return r.Trace
}

// execSpanOf returns the coordinator execute-span id slice spans attach to.
func execSpanOf(r *QueryResources) obs.SpanID {
	if r == nil {
		return 0
	}
	return r.ExecSpan
}

// DMLCounters collects rows affected per segment for one write statement.
type DMLCounters struct {
	mu     sync.Mutex
	perSeg map[int]int64
}

// Add folds n affected rows into segment seg's count.
func (d *DMLCounters) Add(seg int, n int64) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.perSeg == nil {
		d.perSeg = make(map[int]int64)
	}
	d.perSeg[seg] += n
	d.mu.Unlock()
}

// PerSegment returns a copy of the per-segment affected-row counts.
func (d *DMLCounters) PerSegment() map[int]int64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]int64, len(d.perSeg))
	for k, v := range d.perSeg {
		out[k] = v
	}
	return out
}

// ScanCounters is a statement's block-granular scan accounting.
type ScanCounters struct {
	BlocksScanned int64
	BlocksSkipped int64
}

// SpillCounters is a statement's spill accounting: spill events (run dumps
// and hash-table flushes), bytes and files written, the high-water mark of
// budget-tracked operator memory (never above the budget by construction),
// and the true resource-group vmem high water (VmemPeak) — which also sees
// budget overshoot: spill-chunk floors, skewed partition reloads, file
// buffers, and non-spillable operators.
type SpillCounters struct {
	Spills     int64
	SpillBytes int64
	SpillFiles int64
	MemPeak    int64
	VmemPeak   int64
}

// gangSampleEvery makes one in this many direct-dispatchable reads run on
// the whole gang instead of on its one segment. Both paths return the same
// rows; the sample keeps the gang read path, which an all-point workload
// would otherwise never enter, under production traffic — and keeps true
// the benchmark's own assertion that point_1pc statements average more than
// one segment (docs/ARCHITECTURE.md, "Direct dispatch"), with which it goes.
const gangSampleEvery = 50

// RunSelect executes a SELECT plan, retrying the whole statement when a
// segment dies under it mid-scan: reads have no side effects beyond
// counters, so the retry simply waits for the mirror's promotion (inside
// segUp) and re-dispatches. A transaction that had written the dead segment
// is not retried — its writes are gone and only an abort is honest.
func (c *Cluster) RunSelect(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, pl *plan.Planned, res *QueryResources) ([]types.Row, *types.Schema, error) {
	for attempt := 0; ; attempt++ {
		rows, schema, err := c.runSelectOnce(ctx, t, snap, pl, res)
		if err == nil || attempt >= 2 {
			return rows, schema, err
		}
		var sde *SegmentDownError
		if !errors.As(err, &sde) {
			return nil, nil, err
		}
		if _, wrote := t.wroteOn(sde.Seg); wrote {
			return nil, nil, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", sde.Seg, ErrTxnLostWrites)
		}
	}
}

// runSelectOnce is one dispatch attempt: it opens the interconnect fabric,
// launches every (slice, segment) sender, and drains the top slice on the
// coordinator. A plan pinned to one segment (pl.DirectSegment, under
// Config.DirectDispatch) involves that segment alone, and its single sending
// slice runs inline in this goroutine below a pass-through gather: no
// fabric, no sender goroutines, no batch copies — behind the same fences,
// fault wrapper, failover wait and bookkeeping as the gang.
//
// A plain read runs under the transaction's owner id and the snapshot and
// takes no xid anywhere. SELECT … FOR UPDATE is a write: it draws the
// transaction's dxid, and every segment it is dispatched to opens a local
// transaction before any slice runs (the slices of one segment share its
// access) and joins the commit.
func (c *Cluster) runSelectOnce(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, pl *plan.Planned, res *QueryResources) ([]types.Row, *types.Schema, error) {
	root := pl.Root
	nseg := c.SegCount()
	t.grow(nseg)
	if pl.ForUpdate {
		t.DXID()
	}
	// Fence stale plans and lost writes before any work: a plan built
	// against a distribution map that online expansion has since flipped is
	// retryable (re-plan picks up the new placement); a transaction whose
	// own writes were routed under a flipped map must abort — reading the
	// new placement would silently violate read-your-writes.
	if err := c.checkMapVersions(pl.MapVersions); err != nil {
		return nil, nil, err
	}
	if err := c.checkWroteMaps(t); err != nil {
		return nil, nil, err
	}

	qctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	motions := pl.Motions
	lo, hi := 0, nseg
	senders := motions
	direct := c.cfg.DirectDispatch && pl.DirectSegment >= 0 && pl.DirectSegment < nseg && len(motions) == 1 &&
		c.directReads.Add(1)%gangSampleEvery != 0
	if direct {
		lo, hi, senders = pl.DirectSegment, pl.DirectSegment+1, nil
	}

	batchSize := c.cfg.ExecBatchSize // >= 1 after Config.withDefaults

	// MotionBuffer is row-denominated; the fabric counts buffer slots in
	// sends (batches), so the slot count shrinks by the batch size to keep
	// per-stream buffering (and the flow-control/back-pressure behaviour it
	// models) at the configured row scale.
	var fabric *interconnect.Fabric
	if !direct {
		fabric = interconnect.NewFabric(nseg, max(1, c.cfg.MotionBuffer/batchSize), 0)
		for _, m := range motions {
			switch m.Type {
			case plan.MotionGather:
				fabric.OpenGather(m.SliceID, nseg)
			default:
				fabric.OpenFanOut(m.SliceID, nseg)
			}
		}
	}

	// One spill manager per statement: all slices, segments and workers
	// share the operator-memory budget and the temp-file registry. nil when
	// the statement has no budget (no resource group, or spilling disabled).
	var spill *exec.SpillManager
	if res != nil && res.SpillBudget > 0 {
		spill = exec.NewSpillManager(res.SpillBudget)
		if spill != nil {
			spill.Faults = c.faults
		}
	}
	// Rebase the slot's memory high water so the peak captured below
	// belongs to this statement, not to earlier statements of the same
	// transaction (the slot lives for the whole transaction).
	if res != nil && res.Mem != nil {
		if hw, ok := res.Mem.(interface{ ResetMemoryHighWater() }); ok {
			hw.ResetMemoryHighWater()
		}
	}

	// One storage access (one local snapshot) per segment per statement.
	// Segments are resolved through segUp so a SELECT arriving while a
	// primary is being failed over waits for the promotion and reads the
	// promoted mirror instead of erroring.
	var accs []*storeAccess
	segsnap := make([]*Segment, nseg)
	if pl.ScansTables {
		accs = make([]*storeAccess, nseg)
		for i := lo; i < hi; i++ {
			s, err := c.segUp(ctx, i)
			if err != nil {
				return nil, nil, err
			}
			// Same lost-writes guard as the write path: reading a promoted
			// segment after this transaction's own writes died with the old
			// incarnation would silently violate read-your-writes.
			if gen, wrote := t.wroteOn(i); wrote && gen != s.gen {
				return nil, nil, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", i, ErrTxnLostWrites)
			}
			segsnap[i] = s
			// Per-segment statement dispatch: the fault wrapper retries
			// transient send faults with backoff (reads are idempotent, so
			// recv faults retry too) and honors the circuit breaker.
			if err := c.dispatchSeg(i, true, func() error {
				s.netHop()
				s.stmtOverhead()
				return nil
			}); err != nil {
				return nil, nil, err
			}
			accs[i] = s.newAccess(t.owner, t.dxid, snap)
			t.touched[i] = true
			if pl.ForUpdate {
				if _, err := accs[i].begin(); err != nil {
					return nil, nil, err
				}
			}
		}
	}

	mkCtx := func(segID int) *exec.Context {
		ec := &exec.Context{
			Ctx:         qctx,
			Recv:        func(slice int) exec.Receiver { return fabric.Receiver(slice, segID) },
			BatchSize:   batchSize,
			Spill:       spill,
			NumSegments: nseg,
			SegID:       segID,
		}
		if res != nil {
			ec.Mem = res.Mem
			ec.CPU = res.CPU
			ec.CPUBatchCost = res.CPUBatchCost
			ec.NodeRows = res.NodeRows
			ec.Ops = res.Ops
		}
		if segID >= 0 {
			ec.Store = accs[segID]
		}
		return ec
	}

	// Slice spans attach under the coordinator's execute span: the span id
	// crossed the dispatch boundary with the statement, like a trace context
	// on the wire. Their names are only built for a statement being traced.
	tr := res.trace()
	sliceName := func(m *plan.Motion) string {
		if tr == nil {
			return ""
		}
		return fmt.Sprintf("slice %d", m.SliceID)
	}

	var wg sync.WaitGroup
	for _, m := range senders {
		m, name := m, sliceName(m)
		for seg := 0; seg < nseg; seg++ {
			seg := seg
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer fabric.DoneSending(m.SliceID)
				sp := tr.Begin(execSpanOf(res), name, seg)
				defer sp.End()
				ec := mkCtx(seg)
				// Only slices the planner marked parallel-safe (Parallel > 1,
				// from the session's exec_parallelism at plan time) split.
				ec.Parallel = m.Parallel
				if err := runBatchSlice(qctx, ec, m, fabric, nseg); err != nil {
					cancel(err)
				}
			}()
		}
	}

	// Top slice runs on the coordinator; a direct plan's one sending slice
	// runs inside it, under the pinned segment's context.
	top := mkCtx(-1)
	var sp obs.ActiveSpan
	if direct {
		top.Inline = mkCtx(pl.DirectSegment)
		sp = tr.Begin(execSpanOf(res), sliceName(motions[0]), pl.DirectSegment)
	}
	rows, err := exec.DrainBatches(exec.BuildBatch(top, root))
	sp.End()
	// A failed sender cancels qctx with its error before closing its stream,
	// so the top drain can race past the cancellation and "succeed" with a
	// truncated stream. Consult the recorded cause even on a clean drain —
	// otherwise a segment-side error would silently yield partial results.
	if err == nil {
		if cause := context.Cause(qctx); cause != nil && cause != context.Canceled {
			err = cause
		}
	} else if cause := context.Cause(qctx); cause != nil && cause != context.Canceled {
		err = cause
	}
	cancel(nil)
	wg.Wait()
	// A FOR UPDATE makes writers of the segment incarnations it ran on. A
	// failed attempt records none: the transaction aborts, or RunSelect
	// retries and the retry records them.
	if err == nil && pl.ForUpdate {
		for i, acc := range accs {
			if acc != nil {
				t.markWrote(i, segsnap[i].gen)
			}
		}
	}
	// Fold the statement's scan counters into the per-segment cumulative
	// totals (SHOW scan_stats) and the caller's collector (EXPLAIN ANALYZE)
	// — unless the attempt died with the segment (RunSelect will retry and
	// recount; the dead incarnation's partial work is gone with it, and
	// folding it here would double-count the retried blocks).
	if !IsSegmentDown(err) {
		for i, acc := range accs {
			if acc == nil {
				continue
			}
			// A promotion that raced this statement already folded the dead
			// incarnation's totals into the retired counters; route the
			// statement's counts there too so they are not lost on an
			// object nobody aggregates anymore.
			if c.seg(i) != segsnap[i] {
				c.retiredScanned.Add(acc.stats.BlocksScanned.Load())
				c.retiredSkipped.Add(acc.stats.BlocksSkipped.Load())
			} else {
				acc.stats.AddTo(&segsnap[i].scanStats)
			}
			if res != nil && res.Scan != nil {
				res.Scan.BlocksScanned += acc.stats.BlocksScanned.Load()
				res.Scan.BlocksSkipped += acc.stats.BlocksSkipped.Load()
			}
		}
	}
	// Fold the statement's spill counters into the cluster totals (SHOW
	// spill_stats) and the caller's collector (EXPLAIN ANALYZE), then remove
	// any temp files an error path left behind. All slices have retired.
	// Like the scan counters, a dead attempt's partial spills are dropped
	// (the retry recounts); the temp-file cleanup always runs.
	if spill != nil {
		spills, sbytes, sfiles, peak := spill.Stats()
		if leaked := spill.Cleanup(); leaked > 0 {
			c.spillLeaks.Add(int64(leaked))
		}
		if !IsSegmentDown(err) {
			c.spills.Add(spills)
			c.spillBytes.Add(sbytes)
			c.spillFiles.Add(sfiles)
			c.spillPeak.SetMax(peak)
			if res.Spill != nil {
				res.Spill.Spills += spills
				res.Spill.SpillBytes += sbytes
				res.Spill.SpillFiles += sfiles
				if peak > res.Spill.MemPeak {
					res.Spill.MemPeak = peak
				}
			}
		}
	}
	// Record the statement's true resource-group memory high water too (the
	// Vmemtracker's view): budget overshoot from spill-chunk floors, skewed
	// partition reloads, spill-file buffers and non-spillable operators is
	// visible here but not in the budget-tracked peak above.
	if res != nil && res.Mem != nil {
		if hw, ok := res.Mem.(interface{ MemoryHighWater() int64 }); ok {
			v := hw.MemoryHighWater()
			c.vmemPeak.SetMax(v)
			if res.Spill != nil && v > res.Spill.VmemPeak {
				res.Spill.VmemPeak = v
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return rows, root.Schema(), nil
}

// runBatchSlice executes one (motion, location) sender: it pulls batches
// from the slice's operator tree (split into parallel worker pipelines when
// the slice allows it) and pays one interconnect send per (destination)
// batch. Redistribute motions fan rows out per destination at row
// granularity, preserving hash routing exactly.
func runBatchSlice(ctx context.Context, ec *exec.Context, m *plan.Motion, fabric *interconnect.Fabric, nseg int) error {
	it := exec.BuildBatchParallel(ec, m.Child)
	defer it.Close()
	var rows []types.Row // redistribute scratch, reused across batches
	var dests []int
	for {
		b, err := it.NextBatch()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch m.Type {
		case plan.MotionGather:
			// The iterator owns b's container; hand the receiver a copy.
			if err := fabric.SendBatch(ctx, m.SliceID, -1, b.CloneRows()); err != nil {
				return err
			}
		case plan.MotionRedistribute:
			// Route first, so each destination's container is allocated to
			// what it receives and not to the whole batch.
			rows, dests = rows[:0], dests[:0]
			counts := make([]int, nseg)
			for i, l := 0, b.Len(); i < l; i++ {
				row := b.Live(i)
				dest, err := exec.HashForRedistribute(m.HashExprs, row, nseg)
				if err != nil {
					return err
				}
				rows, dests = append(rows, row), append(dests, dest)
				counts[dest]++
			}
			outs := make([]*types.RowBatch, nseg)
			for i, row := range rows {
				d := dests[i]
				if outs[d] == nil {
					outs[d] = types.NewRowBatch(counts[d])
				}
				outs[d].Append(row)
			}
			for d, ob := range outs {
				if err := fabric.SendBatch(ctx, m.SliceID, d, ob); err != nil {
					return err
				}
			}
		case plan.MotionBroadcast:
			// Rows are immutable once emitted, so every destination gets its
			// own container over the same rows.
			for d := 0; d < nseg; d++ {
				if err := fabric.SendBatch(ctx, m.SliceID, d, b.CloneRows()); err != nil {
					return err
				}
			}
		}
	}
}

// modeOf converts a Table-1 lock level to a lockmgr.Mode.
func modeOf(level int) lockmgr.Mode {
	if level < 1 || level > 8 {
		return lockmgr.AccessExclusive
	}
	return lockmgr.Mode(level)
}

// ---- DML dispatch ----

// RunInsert routes pre-evaluated rows to their owning segments and
// dispatches the inserts there.
func (c *Cluster) RunInsert(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, ip *plan.InsertPlan, res *QueryResources) (int, error) {
	rows := ip.Rows
	if ip.Select != nil {
		selRows, _, err := c.RunSelect(ctx, t, snap, ip.Select, res)
		if err != nil {
			return 0, err
		}
		// Coerce SELECT output to the table schema.
		rows = make([]types.Row, 0, len(selRows))
		for _, r := range selRows {
			if len(r) != ip.Table.Schema.Len() {
				return 0, fmt.Errorf("cluster: INSERT SELECT arity mismatch: got %d columns, want %d", len(r), ip.Table.Schema.Len())
			}
			row := make(types.Row, len(r))
			for i, v := range r {
				cv, err := v.CastTo(ip.Table.Schema.Columns[i].Kind)
				if err != nil {
					return 0, err
				}
				row[i] = cv
			}
			rows = append(rows, row)
		}
	}

	nseg := c.SegCount()
	t.grow(nseg)
	// Rows hash across the table's placement width, not the live segment
	// count: mid-expansion a table keeps its old placement (and a replicated
	// table keeps full copies only there) until the mover flips it. The plan
	// carries the map version it was routed under; a flip since then makes
	// it stale and the statement retryable.
	routeW, mapVer := ip.Table.Placement()
	if routeW <= 0 || routeW > nseg {
		routeW = nseg
	}
	if ip.MapVersion != mapVer {
		return 0, &StaleDistMapError{Table: ip.Table.Name, Planned: ip.MapVersion, Current: mapVer}
	}
	perSeg := make([]map[catalog.TableID][]types.Row, nseg)
	rr := 0
	for _, row := range rows {
		leaf, err := leafFor(ip.Table, row)
		if err != nil {
			return 0, err
		}
		dest := plan.RouteRow(ip.Table, row, routeW, &rr)
		if dest < 0 { // replicated: every segment of the placement
			for d := 0; d < routeW; d++ {
				addRow(&perSeg[d], leaf, row)
			}
		} else {
			addRow(&perSeg[dest], leaf, row)
		}
	}

	// Direct dispatch sends the statement only to segments that receive
	// rows; without it the whole gang handles the statement (paper §7.2's
	// "unnecessary CPU cost on segments which in fact do not insert any
	// tuple") and every gang member joins the two-phase commit.
	targets := make([]int, 0, nseg)
	for i := 0; i < nseg; i++ {
		if perSeg[i] != nil || !c.cfg.DirectDispatch {
			targets = append(targets, i)
		}
	}
	n, err := c.dispatchWrite(ctx, t, ip.Table, mapVer, targets, res, "insert", func(seg int, s *Segment) (int, error) {
		return s.ExecInsert(ctx, t.dxid, snap, ip.Table, perSeg[seg])
	})
	if n > 0 {
		c.invalidateStats(ip.Table.Name)
	}
	return n, err
}

func addRow(m *map[catalog.TableID][]types.Row, leaf catalog.TableID, row types.Row) {
	if *m == nil {
		*m = make(map[catalog.TableID][]types.Row)
	}
	(*m)[leaf] = append((*m)[leaf], row)
}

// leafFor picks the partition leaf owning the row.
func leafFor(t *catalog.Table, row types.Row) (catalog.TableID, error) {
	if !t.IsPartitioned() {
		return t.ID, nil
	}
	key := row[t.PartitionCol]
	p := t.PartitionFor(key)
	if p == nil {
		return 0, fmt.Errorf("cluster: no partition of %q accepts key %s", t.Name, key)
	}
	return p.ID, nil
}

// RunModify dispatches an UPDATE or DELETE plan to the segments that can
// hold its rows: the one pl.DirectSegment names under direct dispatch, else
// the whole gang. res may be nil; when set, its trace and DML collectors
// observe the dispatch, its armed operator statistics the access paths and
// its Scan collector their block counters.
func (c *Cluster) RunModify(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, pl *plan.Planned, res *QueryResources) (int, error) {
	tab, plannedVer, op, err := modifyTarget(pl.Root)
	if err != nil {
		return 0, err
	}
	nseg := c.SegCount()
	t.grow(nseg)
	_, mapVer := tab.Placement()
	if plannedVer != mapVer {
		return 0, &StaleDistMapError{Table: tab.Name, Planned: plannedVer, Current: mapVer}
	}
	targets := []int{pl.DirectSegment}
	if !c.cfg.DirectDispatch || pl.DirectSegment < 0 || pl.DirectSegment >= nseg {
		targets = make([]int, nseg)
		for i := range targets {
			targets[i] = i
		}
	}
	var ops *plan.OpStats
	var scan *storage.ScanStats
	if res != nil {
		ops = res.Ops
		if res.Scan != nil {
			scan = new(storage.ScanStats)
		}
	}
	n, err := c.dispatchWrite(ctx, t, tab, mapVer, targets, res, op, func(_ int, s *Segment) (int, error) {
		return s.ExecModify(ctx, t.dxid, snap, tab, pl.Root, ops, scan)
	})
	if scan != nil {
		res.Scan.BlocksScanned += scan.BlocksScanned.Load()
		res.Scan.BlocksSkipped += scan.BlocksSkipped.Load()
	}
	if n > 0 {
		c.invalidateStats(tab.Name)
	}
	return n, err
}

// modifyTarget returns the table an UPDATE or DELETE root writes, the
// placement version it was planned under, and its trace span name.
func modifyTarget(root plan.Node) (*catalog.Table, uint64, string, error) {
	switch x := root.(type) {
	case *plan.UpdatePlan:
		return x.Table, x.MapVersion, "update", nil
	case *plan.DeletePlan:
		return x.Table, x.MapVersion, "delete", nil
	}
	return nil, 0, "", fmt.Errorf("cluster: %T is not an UPDATE or DELETE", root)
}

// segWrite is one target segment's outcome of a write dispatch: rows
// written, the incarnation the attempt ran on and whether the transaction
// has a local transaction there.
type segWrite struct {
	n, gen int
	began  bool
	err    error
}

// dispatchWrite is the one dispatch of INSERT, UPDATE and DELETE: it draws
// the transaction's dxid if this is its first write, then runs the
// statement's per-segment portion f on every target segment, each under an
// op trace span — in the caller's goroutine when there is only one target
// (below the same execOnSeg fences as the gang), one goroutine per segment
// otherwise. Then it does the writer bookkeeping: every target is touched,
// and one whose attempt ran and opened a local transaction becomes a writer
// of its segment incarnation and of tab at mapVer. It returns the rows
// written and the first error.
func (c *Cluster) dispatchWrite(ctx context.Context, t *LiveTxn, tab *catalog.Table, mapVer uint64, targets []int, res *QueryResources, op string, f func(seg int, s *Segment) (int, error)) (int, error) {
	t.DXID()
	var one [1]segWrite
	outs := one[:]
	if len(targets) == 1 {
		one[0] = c.writeOnSeg(ctx, t, targets[0], res, op, f)
	} else {
		gang := make([]segWrite, len(targets))
		var wg sync.WaitGroup
		for i, seg := range targets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gang[i] = c.writeOnSeg(ctx, t, seg, res, op, f)
			}()
		}
		wg.Wait()
		outs = gang
	}
	total := 0
	var firstErr error
	for i, seg := range targets {
		o := outs[i]
		t.touched[seg] = true
		// A segUp failure returns gen 0, which must not be recorded as a
		// written incarnation: bookkeeping only for attempts that ran.
		if o.err == nil && o.began {
			t.markWrote(seg, o.gen)
			t.noteWroteMap(tab.ID, mapVer)
		}
		if o.err == nil && res != nil {
			res.DML.Add(seg, int64(o.n))
		}
		total += o.n
		if o.err != nil && firstErr == nil {
			firstErr = o.err
		}
	}
	return total, firstErr
}

// writeOnSeg runs one target segment's portion of a write dispatch.
func (c *Cluster) writeOnSeg(ctx context.Context, t *LiveTxn, seg int, res *QueryResources, op string, f func(int, *Segment) (int, error)) segWrite {
	sp := res.trace().Begin(execSpanOf(res), op, seg)
	defer sp.End()
	var began bool
	n, gen, err := c.execOnSeg(ctx, t, seg, func(s *Segment) (int, error) {
		n, err := f(seg, s)
		_, began = s.openTxn(t.dxid)
		return n, err
	})
	return segWrite{n: n, gen: gen, began: began, err: err}
}

// LockTableEverywhere implements LOCK TABLE: the coordinator lock plus the
// same mode on every segment (paper Fig. 7's transaction C/D behaviour).
func (c *Cluster) LockTableEverywhere(ctx context.Context, t *LiveTxn, table string, level int) error {
	tab, err := c.catalog.Table(table)
	if err != nil {
		return err
	}
	if err := c.LockCoordinator(ctx, t, table, modeOf(level)); err != nil {
		return err
	}
	nseg := c.SegCount()
	t.grow(nseg)
	for i := 0; i < nseg; i++ {
		s, err := c.segUp(ctx, i)
		if err != nil {
			return err
		}
		if err := s.LockRelation(ctx, t.owner, tab, modeOf(level)); err != nil {
			return err
		}
		t.touched[i] = true
	}
	return nil
}
