package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/interconnect"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
)

// QueryResources carries the resource-group hooks for one statement.
type QueryResources struct {
	Mem exec.MemAccount
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
	// Ops, when non-nil, collects per-node per-location executor
	// statistics: EXPLAIN ANALYZE's and per-operator trace spans' (timed),
	// or the optimizer's risk-bound misestimate input (untimed).
	Ops *plan.OpStats
	// Trace, when non-nil, is the statement's distributed trace. ExecSpan is
	// the coordinator's execute-span id: dispatch propagates it so every
	// per-segment slice span attaches under it — the simulated analogue of a
	// trace context travelling on the wire.
	Trace    *obs.Trace
	ExecSpan obs.SpanID
}

// ScanCounters is a statement's block-granular scan accounting.
type ScanCounters struct {
	BlocksScanned int64
	BlocksSkipped int64
}

// SpillCounters is a statement's spill accounting: spill events (run dumps
// and hash-table flushes), bytes and files written.
type SpillCounters struct {
	Spills     int64
	SpillBytes int64
	SpillFiles int64
}

// gangSampleEvery makes one in this many direct-dispatchable reads run on
// the whole gang instead of on its one segment. Both paths return the same
// rows; the sample keeps the gang read path, which an all-point workload
// would otherwise never enter, under production traffic — and keeps true
// the benchmark's own assertion that point_1pc statements average more than
// one segment (docs/ARCHITECTURE.md, "Direct dispatch"), with which it goes.
const gangSampleEvery = 50

// motionSlots is each interconnect stream's buffer, in sends: 1 024 rows
// at the executor's batch size, which keeps per-stream buffering (and the
// flow-control/back-pressure behaviour it models) at a fixed row scale.
const motionSlots = 1024 / types.DefaultBatchSize

// Run dispatches a planned SELECT, INSERT, UPDATE or DELETE as one sliced
// plan (paper §3.2) and returns a SELECT's rows and the count of rows it
// returned or wrote. A statement whose segment dies under it is retried
// whole when that is safe: a read has no side effects beyond counters, and
// neither has a write that stored no row yet — an INSERT … SELECT whose
// source segment died, say, since a write reads its whole input first — so
// the retry simply waits for the mirror's promotion (inside segUp) and
// re-dispatches. A transaction that had written the dead segment is not
// retried — its writes are gone and only an abort is honest — and neither
// is a write that stored rows: each segment's portion of it is retried in
// place instead (attempt.write).
func (c *Cluster) Run(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, pl *plan.Planned, res *QueryResources) ([]types.Row, int, error) {
	return c.NewPortal(pl).Run(ctx, t, snap, res)
}

// A Portal is one session's reusable dispatch state for one plan, the
// executable plan of a lowered template (plan.Instance) that the session
// re-binds between runs. It keeps what a run would otherwise allocate: the
// attempt, the execution contexts of the coordinator slice and of the
// pinned segment, that segment's storage access, the write sink's scratch,
// a direct read's operator tree (exec.Reset starts it over), and the plan's
// distribution-map fences resolved to their tables. A run that cannot use a
// piece builds that piece afresh: the gang sample of a direct read (see
// gangSampleEvery), and a run that arms a collector (QueryResources.Ops,
// which wraps the operators).
// A failed run leaves the portal ready for the next one. One goroutine runs
// a portal at a time.
type Portal struct {
	c      *Cluster
	pl     *plan.Planned
	fences []mapFence
	d      attempt
	// top and pinned are the contexts of the coordinator slice and of the
	// pinned segment's slice; acc is that segment's access and mod the
	// scratch of a write's top slice there.
	top, pinned exec.Context
	acc         storeAccess
	mod         exec.Modifier
	// tree is a direct read's operator tree, built under top and pinned;
	// rebuild is set once it turned out not to start over.
	tree    exec.BatchIterator
	rebuild bool
}

// mapFence is one table of a plan and the distribution-map version the plan
// was built against.
type mapFence struct {
	tab *catalog.Table
	ver uint64
}

// NewPortal readies a portal for pl, resolving its fences' tables once. A
// table dropped since planning fences nothing; the scan reports it.
func (c *Cluster) NewPortal(pl *plan.Planned) *Portal {
	p := &Portal{c: c, pl: pl}
	for name, ver := range pl.MapVersions {
		if tab, err := c.catalog.Table(name); err == nil {
			p.fences = append(p.fences, mapFence{tab: tab, ver: ver})
		}
	}
	return p
}

// checkFences validates the plan's distribution-map versions against the
// live placements: only a flip makes the plan stale.
func (p *Portal) checkFences() error {
	for _, f := range p.fences {
		if _, cur := f.tab.Placement(); cur != f.ver {
			return &StaleDistMapError{Table: f.tab.Name, Planned: f.ver, Current: cur}
		}
	}
	return nil
}

// Run is Cluster.Run of the portal's plan.
func (p *Portal) Run(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, res *QueryResources) ([]types.Row, int, error) {
	c := p.c
	for attempt := 0; ; attempt++ {
		rows, n, err := c.runOnce(ctx, t, snap, p, res)
		if err == nil {
			return rows, n, nil
		}
		var sde *SegmentDownError
		if attempt >= 2 || n > 0 || !errors.As(err, &sde) {
			return nil, 0, err
		}
		if _, wrote := t.wroteOn(sde.Seg); wrote {
			return nil, 0, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", sde.Seg, ErrTxnLostWrites)
		}
	}
}

// writeOf returns the table a write's top node writes, the placement
// version it was planned under and its trace span's name; a nil table for
// a SELECT.
func writeOf(root plan.Node) (*catalog.Table, uint64, string) {
	switch x := root.(type) {
	case *plan.InsertPlan:
		return x.Table, x.MapVersion, "insert"
	case *plan.UpdatePlan:
		return x.Table, x.MapVersion, "update"
	case *plan.DeletePlan:
		return x.Table, x.MapVersion, "delete"
	}
	return nil, 0, ""
}

// attempt is one dispatch attempt's state, shared by all its slices.
type attempt struct {
	p    *Portal
	c    *Cluster
	t    *LiveTxn
	snap *dtm.DistSnapshot
	pl   *plan.Planned
	res  *QueryResources
	nseg int
	// tab is the table a write writes, nil for a SELECT.
	tab *catalog.Table
	// ctx is cancelled, with the first error, by a slice that fails while
	// others run in goroutines (cancel is nil when none do).
	ctx    context.Context
	cancel context.CancelCauseFunc
	fabric *interconnect.Fabric
	spill  *exec.SpillManager
	// tr is the statement's trace (nil: spans are inert) and span the
	// coordinator's execute span, which every slice's span attaches under.
	tr   *obs.Trace
	span obs.SpanID
	// segs[i] is the statement's work on segment lo+i: on every segment, or
	// — kept in one — only on the segment a pinned statement runs on.
	segs    []segSlices
	lo      int
	one     [1]segSlices
	senders sync.WaitGroup
}

// on is the statement's work on segment seg.
func (d *attempt) on(seg int) *segSlices { return &d.segs[seg-d.lo] }

// segSlices is a statement's work on one segment: read is the storage
// access of the slices reading it — one local snapshot per segment per
// statement — and top that of a write's top slice there, which opens the
// local transaction the readers must not see change under them; nil where
// none runs.
type segSlices struct {
	read, top *storeAccess
}

// runOnce is one dispatch attempt. It opens the interconnect fabric and
// launches every motion's senders — one per segment, or for a motion
// FromCoordinator one on the coordinator — and runs the top slice: on the
// coordinator for a SELECT, which drains its rows; for an INSERT, UPDATE or
// DELETE on each segment the write targets, where exec.Modifier stores them
// (writeTargets). A read pinned to one segment (pl.DirectSegment, under
// Config.DirectDispatch) involves that segment alone, and its single sending
// slice runs inline in this goroutine below a pass-through gather; a write
// with one target runs its top slice inline the same way. Either needs no
// fabric, no goroutines and no batch copies, and stays behind the same
// fences, fault wrapper, failover wait and bookkeeping as the gang.
//
// A plain read runs under the transaction's owner id and the snapshot and
// takes no xid anywhere. A write, and SELECT … FOR UPDATE, draws the
// transaction's dxid. Every segment a FOR UPDATE is dispatched to opens a
// local transaction before any slice runs (the slices of one segment share
// its access) and joins the commit, as does every segment a write targets
// without direct dispatch (paper §7.2); under it a write's segment joins at
// its first write, so one where nothing matched stays out of the commit.
//
// On failure n is the number of rows a write stored before it failed.
func (c *Cluster) runOnce(ctx context.Context, t *LiveTxn, snap *dtm.DistSnapshot, p *Portal, res *QueryResources) ([]types.Row, int, error) {
	nseg, pl := c.SegCount(), p.pl
	t.grow(nseg)
	d := &p.d
	*d = attempt{p: p, c: c, t: t, snap: snap, pl: pl, res: res, nseg: nseg, ctx: ctx}
	defer p.idle()
	if res != nil {
		d.tr, d.span = res.Trace, res.ExecSpan
	}
	tab, tabVer, _ := writeOf(pl.Root)
	if d.tab = tab; tab != nil || pl.ForUpdate {
		t.DXID()
	}
	// Fence stale plans and lost writes before any work: a plan built
	// against a distribution map that online expansion has since flipped is
	// retryable (re-plan picks up the new placement); a transaction whose
	// own writes were routed under a flipped map must abort before it reads
	// — reading the new placement would silently violate read-your-writes
	// (its writes are fenced at commit).
	if tab != nil {
		if _, cur := tab.Placement(); cur != tabVer {
			return nil, 0, &StaleDistMapError{Table: tab.Name, Planned: tabVer, Current: cur}
		}
	}
	if err := p.checkFences(); err != nil {
		return nil, 0, err
	}
	if tab == nil {
		if err := c.checkWroteMaps(t); err != nil {
			return nil, 0, err
		}
	}

	motions := pl.Motions
	direct := c.cfg.DirectDispatch && pl.DirectSegment >= 0 && pl.DirectSegment < nseg
	if d.tab == nil {
		direct = direct && len(motions) == 1 && c.directReads.Add(1)%gangSampleEvery != 0
	}
	sending := motions
	if direct {
		sending = nil
	}
	var targets []int
	var routed [][]types.Row
	if tab != nil && !direct {
		targets, routed = c.writeTargets(pl.Root, nseg)
	}
	if len(sending) > 0 || len(targets) > 1 {
		var cancel context.CancelCauseFunc
		d.ctx, cancel = context.WithCancelCause(ctx)
		d.cancel = cancel
		defer cancel(nil)
	}
	// One spill manager per statement: all slices, segments and workers
	// share the operator-memory budget and the temp-file registry. nil when
	// the statement has no budget (no resource group, or spilling disabled).
	if res != nil && res.SpillBudget > 0 {
		d.spill = exec.NewSpillManager(res.SpillBudget)
		if d.spill != nil {
			d.spill.Faults = c.faults
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

	// The storage accesses of the segments that run a slice reading a
	// table: a read's, and the senders of a write's motions (its top slices
	// open their own, write). Segments are resolved through segUp so a
	// statement arriving while a primary is being failed over waits for the
	// promotion and reads the promoted mirror instead of erroring.
	switch {
	case direct:
		d.segs, d.lo = d.one[:], pl.DirectSegment
	case pl.ScansTables || d.tab != nil:
		d.segs = make([]segSlices, nseg)
	}
	if pl.ScansTables && (d.tab == nil || len(sending) > 0) {
		for i := d.lo; i < d.lo+len(d.segs); i++ {
			s, err := c.segUp(ctx, i)
			if err != nil {
				return nil, 0, err
			}
			// Same lost-writes guard as the write path: reading a promoted
			// segment after this transaction's own writes died with the old
			// incarnation would silently violate read-your-writes.
			if gen, wrote := t.wroteOn(i); wrote && gen != s.gen {
				return nil, 0, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", i, ErrTxnLostWrites)
			}
			// Per-segment statement dispatch: the fault wrapper retries
			// transient send faults with backoff (reads are idempotent, so
			// recv faults retry too) and honors the circuit breaker.
			if err := c.dispatchSeg(i, true, func() error { return nil }); err != nil {
				return nil, 0, err
			}
			d.on(i).read = d.access(s)
			if pl.ForUpdate {
				if _, err := d.on(i).read.begin(); err != nil {
					return nil, 0, err
				}
			}
		}
	}

	// Motions come in post-order: a slice's streams open before any sender
	// that receives from them starts.
	if len(sending) > 0 {
		d.fabric = interconnect.NewFabric(nseg, motionSlots, 0)
	}
	for _, m := range sending {
		from, to := 0, nseg
		if m.FromCoordinator {
			from, to = -1, 0
		}
		if m.Type == plan.MotionGather {
			d.fabric.OpenGather(m.SliceID, to-from)
		} else {
			d.fabric.OpenFanOut(m.SliceID, to-from)
		}
		for seg := from; seg < to; seg++ {
			d.senders.Add(1)
			go d.send(m, seg, d.execCtx(new(exec.Context), seg))
		}
	}

	var rows []types.Row
	var n int
	var err error
	switch {
	case tab == nil:
		// The top slice runs on the coordinator; a direct plan's one sending
		// slice runs inside it, under the pinned segment's context.
		top := d.execCtx(&p.top, -1)
		var sp obs.ActiveSpan
		if direct {
			top.Inline = d.execCtx(&p.pinned, pl.DirectSegment)
			sp = d.tr.Begin(d.span, d.sliceName(motions[0]), pl.DirectSegment)
		}
		rows, err = exec.DrainBatches(p.readTree(direct, res))
		n = len(rows)
		sp.End()
	case direct || len(targets) == 1:
		// A write's top slice runs on each target segment, in this goroutine
		// when there is only one.
		seg := pl.DirectSegment
		if !direct {
			seg = targets[0]
		}
		n, err = d.write(&p.pinned, &p.mod, seg, routed)
	default:
		var wg sync.WaitGroup
		done := make([]struct {
			n   int
			err error
		}, len(targets))
		for i, seg := range targets {
			wg.Add(1)
			go func(routed [][]types.Row) {
				defer wg.Done()
				done[i].n, done[i].err = d.write(new(exec.Context), new(exec.Modifier), seg, routed)
			}(routed)
		}
		wg.Wait()
		// Every segment stores its own copy of a replicated table's rows:
		// the statement wrote one copy's count, not their sum.
		replicated := tab.Distribution == catalog.DistReplicated
		for _, r := range done {
			if replicated {
				n = max(n, r.n)
			} else {
				n += r.n
			}
			if err == nil {
				err = r.err
			}
		}
	}
	// A failed sender cancels the statement with its error before closing
	// its stream, so the top slice can race past the cancellation and
	// "succeed" with a truncated stream. Consult the recorded cause even on
	// a clean run — otherwise a segment-side error would silently yield
	// partial results. The cause is the first failure; the slices' own
	// errors may only report the cancellation it caused. A caller's plain
	// cancel leaves the cause context.Canceled, and then they stand.
	if cause := context.Cause(d.ctx); cause != nil && cause != context.Canceled {
		err = cause
	}
	if d.cancel != nil {
		d.cancel(nil)
	}
	d.senders.Wait()
	// A write makes writers of the segment incarnations its top slices
	// opened a local transaction on, and a FOR UPDATE of the ones it ran on.
	// A failed FOR UPDATE, or a failed write that stored no row, records
	// none: the transaction aborts, which reaches every segment it touched,
	// or Run retries and the retry records them.
	for i, on := range d.segs {
		switch seg := d.lo + i; {
		case on.top != nil && on.top.st != nil && (err == nil || n > 0):
			t.markWrote(seg, on.top.seg.gen)
			t.noteWroteMap(tab, tabVer)
		case on.top != nil:
			t.touched[seg] = true
		case on.read != nil && pl.ForUpdate && err == nil:
			t.markWrote(seg, on.read.seg.gen)
		}
	}
	if tab != nil && n > 0 {
		c.invalidateStats(tab.Name)
	}
	d.finish(err)
	if err != nil {
		if tab == nil {
			n = 0 // a read stores nothing, whatever rows it drained
		}
		return nil, n, err
	}
	return rows, n, nil
}

// idle drops what a run referenced — the caller's context, the fabric, the
// accesses, the collectors — so that between runs a portal holds its own
// buffers only.
func (p *Portal) idle() {
	p.d, p.top, p.pinned = attempt{}, exec.Context{}, exec.Context{}
	p.acc = storeAccess{local: txn.Snapshot{InProgress: p.acc.local.InProgress[:0]}}
}

// readTree returns the top slice's operator tree over the portal's contexts:
// for a direct read that arms no collectors, the kept tree started over, or
// a fresh one kept for the next run; else a fresh one.
func (p *Portal) readTree(direct bool, res *QueryResources) exec.BatchIterator {
	keep := direct && (res == nil || res.Ops == nil)
	if keep && p.tree != nil {
		if exec.Reset(p.tree) {
			return p.tree
		}
		p.tree, p.rebuild = nil, true
	}
	it := exec.BuildBatch(&p.top, p.pl.Root)
	if keep && !p.rebuild {
		p.tree = it
	}
	return it
}

// access returns the storage access of segment s for this attempt: the
// portal's own on a statement pinned to one segment, which opens one access
// only, else a fresh one.
func (d *attempt) access(s *Segment) *storeAccess {
	if d.segs == nil || &d.segs[0] != &d.one[0] {
		return s.newAccess(d.t.ownerOn(s), d.t.dxid, d.snap)
	}
	s.initAccess(&d.p.acc, d.t.ownerOn(s), d.t.dxid, d.snap)
	return &d.p.acc
}

// execCtx sets ec up as the execution context of a slice at location
// segID (-1 = coordinator) and returns it.
func (d *attempt) execCtx(ec *exec.Context, segID int) *exec.Context {
	*ec = exec.Context{Ctx: d.ctx, Spill: d.spill, NumSegments: d.nseg, SegID: segID}
	if fabric := d.fabric; fabric != nil {
		ec.Recv = func(slice int) exec.Receiver { return fabric.Receiver(slice, segID) }
	}
	if d.res != nil {
		ec.Mem = d.res.Mem
		ec.Ops = d.res.Ops
	}
	if segID >= 0 && d.segs != nil {
		ec.Store = d.on(segID).read
	}
	return ec
}

// sliceName is a sending slice's span name, built only for a statement
// being traced.
func (d *attempt) sliceName(m *plan.Motion) string {
	if d.tr == nil {
		return ""
	}
	return fmt.Sprintf("slice %d", m.SliceID)
}

// send runs motion m's sending slice at location seg under ec.
func (d *attempt) send(m *plan.Motion, seg int, ec *exec.Context) {
	defer d.senders.Done()
	defer d.fabric.DoneSending(m.SliceID)
	sp := d.tr.Begin(d.span, d.sliceName(m), seg)
	defer sp.End()
	if err := runBatchSlice(d.ctx, ec, m, d.fabric, d.nseg); err != nil {
		d.cancel(err)
	}
}

// write runs a write's top slice on segment seg, in ec, against its current
// primary, retrying once per failover: an entry refused by a dead primary
// waits for the mirror's promotion and re-runs against the new primary —
// the "retryable portion" of an in-flight statement. Its writes on the dead
// primary were uncommitted and are rolled back by recovery, so the retry
// cannot double-apply. A transaction that already wrote an earlier
// statement to the dead incarnation is not retryable; it fails with
// ErrTxnLostWrites. An error cancels the rest of the statement. routed,
// when set, holds an INSERT … VALUES's rows by the segment they go to; mod
// is the write sink's scratch.
func (d *attempt) write(ec *exec.Context, mod *exec.Modifier, seg int, routed [][]types.Row) (int, error) {
	_, _, op := writeOf(d.pl.Root)
	sp := d.tr.Begin(d.span, op, seg)
	defer sp.End()
	n, err := d.writeOnce(ec, mod, seg, routed)
	for retry := 0; IsSegmentDown(err) && retry < 2; retry++ {
		n, err = d.writeOnce(ec, mod, seg, routed) // the primary died between resolution and entry
	}
	if err != nil && d.cancel != nil {
		d.cancel(err)
	}
	return n, err
}

// writeOnce is one entry of a write's top slice into segment seg: there,
// exec.Modifier under the statement's RowExclusive lock on the table. Without
// direct dispatch every segment a write targets joins the commit (paper
// §7.2), so the local transaction opens up front; with it, at the first
// write.
func (d *attempt) writeOnce(ec *exec.Context, mod *exec.Modifier, seg int, routed [][]types.Row) (int, error) {
	s, err := d.c.segUp(d.ctx, seg)
	if err != nil {
		return 0, err
	}
	if gen, wrote := d.t.wroteOn(seg); wrote && gen != s.gen {
		return 0, fmt.Errorf("cluster: segment %d failed over after this transaction wrote it: %w", seg, ErrTxnLostWrites)
	}
	a := d.access(s)
	d.on(seg).top = a
	d.execCtx(ec, seg).Store = a
	if routed != nil {
		ec.Routed = routed[seg]
	}
	// Statement dispatch is not idempotent (a re-run would double-apply
	// DML inside the same snapshot): the wrapper retries transient
	// send-phase faults with backoff but surfaces recv-phase ones.
	var n int
	err = d.c.dispatchSeg(seg, false, func() (err error) {
		if err = s.checkUp(); err == nil {
			err = s.acquire(d.ctx, a.owner, lockmgr.RelationTag(uint64(d.tab.ID)), lockmgr.RowExclusive)
		}
		if err == nil && !s.cfg.DirectDispatch {
			_, err = a.begin()
		}
		if err == nil {
			n, err = mod.Modify(ec, d.pl.Root)
		}
		return err
	})
	return n, err
}

// finish folds the attempt's scan, spill and memory counters into the
// cluster's totals and res's collectors, and removes any temp files an
// error path left behind. All slices have retired.
func (d *attempt) finish(err error) {
	c, res := d.c, d.res
	// Fold the statement's scan counters into the cluster's cumulative
	// totals (SHOW scan_stats) and the caller's collector (EXPLAIN ANALYZE)
	// — unless the attempt died with the segment (Run will retry and
	// recount; the dead incarnation's partial work is gone with it, and
	// folding it here would double-count the retried blocks).
	for _, on := range d.segs {
		for _, acc := range [2]*storeAccess{on.read, on.top} {
			if acc == nil || IsSegmentDown(err) {
				continue
			}
			c.foldScan(acc)
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
	if d.spill != nil {
		spills, sbytes, sfiles, peak := d.spill.Stats()
		if leaked := d.spill.Cleanup(); leaked > 0 {
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
			}
		}
	}
	// Record the statement's true resource-group memory high water too (the
	// Vmemtracker's view): budget overshoot from spill-chunk floors, skewed
	// partition reloads, spill-file buffers and non-spillable operators is
	// visible here but not in the budget-tracked peak above.
	if res != nil && res.Mem != nil {
		if hw, ok := res.Mem.(interface{ MemoryHighWater() int64 }); ok {
			c.vmemPeak.SetMax(hw.MemoryHighWater())
		}
	}
}

// foldScan adds one access's block counters to the cluster's cumulative
// storage.scan.* counters. A statement that scanned no block (a point
// statement's index probe) writes no shared counter.
func (c *Cluster) foldScan(acc *storeAccess) {
	if n := acc.stats.BlocksScanned.Load(); n != 0 {
		c.blocksScanned.Add(n)
	}
	if n := acc.stats.BlocksSkipped.Load(); n != 0 {
		c.blocksSkipped.Add(n)
	}
}

// runBatchSlice executes one (motion, location) sender: it pulls batches
// from the slice's operator tree and pays one interconnect send per
// (destination) batch. The iterator keeps its containers, so each batch's
// live rows are copied into containers the fabric recycles from the
// receivers. A Redistribute Motion hashes each batch's key vectors at once
// and sends every row to Bucket(hash, nseg), the segment RouteRow stores its
// key on; an INSERT's motion spreads rows over its target's Width.
func runBatchSlice(ctx context.Context, ec *exec.Context, m *plan.Motion, fabric *interconnect.Fabric, nseg int) error {
	if m.Width > 0 {
		nseg = m.Width
	}
	it := exec.BuildBatch(ec, m.Child)
	defer it.Close()
	keyExprs, keyVecs := make([]*plan.VecExpr, len(m.HashExprs)), make([]types.Vec, len(m.HashExprs))
	for i, x := range m.HashExprs {
		keyExprs[i] = plan.CompileVec(x)
	}
	// Fan-out scratch reused across batches: each row's hash, then its
	// destination; rows per destination; the container filled for each.
	var hashes []uint64
	var counts []int
	var outs []*types.RowBatch
	switch m.Type {
	case plan.MotionRedistribute:
		counts = make([]int, nseg)
		fallthrough
	case plan.MotionBroadcast:
		outs = make([]*types.RowBatch, nseg)
	}
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
			ob := appendLive(fabric.Container(m.SliceID, -1, b.Len()), b)
			if err := fabric.SendBatch(ctx, m.SliceID, -1, ob); err != nil {
				return err
			}
			continue
		case plan.MotionRedistribute:
			for i, x := range keyExprs {
				if keyVecs[i], err = x.Eval(b); err != nil {
					return err
				}
			}
			hashes = slices.Grow(hashes[:0], b.Len())[:b.Len()]
			types.HashBatch(hashes, keyVecs, b)
			// Route first, so each destination's container is sized to
			// what it receives and not to the whole batch.
			clear(counts)
			for i, h := range hashes {
				d := types.Bucket(h, nseg)
				hashes[i] = uint64(d) // from here on, the row's destination
				counts[d]++
			}
			for d, n := range counts {
				if n > 0 {
					outs[d] = fabric.Container(m.SliceID, d, n)
				}
			}
			for i, d := range hashes {
				outs[d].Append(b.Live(i))
			}
		case plan.MotionBroadcast:
			// Receivers narrow a batch's selection in place, so every
			// destination gets its own container over the same rows.
			outs[0] = appendLive(fabric.Container(m.SliceID, 0, b.Len()), b)
			for d := 1; d < nseg; d++ {
				outs[d] = fabric.Container(m.SliceID, d, b.Len())
				outs[d].Rows = append(outs[d].Rows, outs[0].Rows...)
			}
		}
		// A sent container is the receiver's: fill them all, then send.
		for d, ob := range outs {
			if ob == nil {
				continue
			}
			outs[d] = nil
			if err := fabric.SendBatch(ctx, m.SliceID, d, ob); err != nil {
				return err
			}
		}
	}
}

// appendLive appends b's live rows to the row batch dst and returns it.
func appendLive(dst, b *types.RowBatch) *types.RowBatch {
	if b.Sel == nil && b.Cols == nil {
		dst.Rows = append(dst.Rows, b.Rows...)
		return dst
	}
	for i, l := 0, b.Len(); i < l; i++ {
		dst.Append(b.Live(i))
	}
	return dst
}

// writeTargets lists the segments the top slice of a write not pinned to
// one segment runs on, and routes an INSERT … VALUES's rows to them: each
// to the segment plan.RouteRow picks across the table's placement width,
// every segment of it for a replicated table. Without direct dispatch every
// segment is a target; with it, only those the rows reach (paper §7.2's
// "unnecessary CPU cost on segments which in fact do not insert any
// tuple"). The rows a motion brings go to the target's placement.
func (c *Cluster) writeTargets(root plan.Node, nseg int) (targets []int, routed [][]types.Row) {
	if ip, ok := root.(*plan.InsertPlan); ok {
		switch x := ip.Child.(type) {
		case *plan.Values:
			routed = make([][]types.Row, nseg)
			width := plan.PlacementWidth(ip.Table, nseg)
			for _, row := range x.Rows {
				if d := plan.RouteRow(ip.Table, row, width); d >= 0 {
					routed[d] = append(routed[d], row)
					continue
				}
				for d := range width {
					routed[d] = append(routed[d], row)
				}
			}
		case *plan.Motion:
			if x.Width > 0 {
				nseg = min(nseg, x.Width)
			}
		}
	}
	for i := range nseg {
		if routed == nil || len(routed[i]) > 0 || !c.cfg.DirectDispatch {
			targets = append(targets, i)
		}
		if routed != nil && routed[i] == nil {
			routed[i] = []types.Row{} // a target no row is routed to stores none
		}
	}
	return targets, routed
}

// LockTableEverywhere implements LOCK TABLE: the coordinator lock plus the
// same mode on every segment (paper Fig. 7's transaction C/D behaviour).
func (c *Cluster) LockTableEverywhere(ctx context.Context, t *LiveTxn, table string, mode lockmgr.Mode) error {
	tab, err := c.catalog.Table(table)
	if err != nil {
		return err
	}
	if err := c.LockCoordinator(ctx, t, table, mode); err != nil {
		return err
	}
	nseg := c.SegCount()
	t.grow(nseg)
	for i := 0; i < nseg; i++ {
		s, err := c.segUp(ctx, i)
		if err != nil {
			return err
		}
		if err := s.LockRelation(ctx, t, tab, mode); err != nil {
			return err
		}
	}
	return nil
}
