package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/dtm"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/resgroup"
	"repro/internal/types"
	"repro/internal/wal"
)

// Online expansion (gpexpand): AddSegments/StartExpand registers new empty
// segments (with mirrors) in the live topology, then a background mover —
// throttled by the expand_mover resource group so it cannot starve
// foreground traffic — re-distributes each table onto the widened placement
// while the old placement keeps serving reads and writes. Per table the
// mover:
//
//  1. takes a brief AccessExclusive fence to freeze a snapshot boundary
//     (a distributed snapshot plus each source segment's WAL position L0;
//     two-phase locking guarantees no writer of the table spans the fence,
//     so "committed at LSN <= L0" and "visible to the snapshot" coincide),
//  2. streams the frozen snapshot into a staging table that hashes across
//     the full target width — ordinary distributed micro-transactions, so
//     the copies are WAL-logged, mirrored and crash-safe like any write,
//  3. catches up by replaying each source segment's WAL tail: per-txn
//     buffers of Insert/SetXmax records are applied to the staging table as
//     committed multiset deltas (aborts are discarded; a Truncate restarts
//     the move),
//  4. takes a final fence, drains the tail, clones the table's indexes, and
//     flips routing atomically: the old table is dropped and the staging
//     table takes over its name with a bumped distribution-map version, so
//     every plan built against the old placement fails with a retryable
//     StaleDistMapError and in-flight writers fence via ErrTxnLostWrites.
//
// Replicated tables are staged by one INSERT … SELECT under one fence (they
// need no catch-up); randomly-distributed tables only flip their
// placement (scans already read rows wherever they live, and round-robin
// routing picks up the new width on the next plan).
const expandStagingPrefix = "__expand_"

// moverGroup is the resource group that throttles the expansion mover.
const moverGroup = "expand_mover"

const (
	// moveBatchRows rows are staged per throttled micro-transaction.
	moveBatchRows = 128
	// moveBatchCPU is charged to the mover's resource-group slot per batch.
	moveBatchCPU = 200 * time.Microsecond
	// maxTableRestarts bounds per-table move retries (faults, failovers,
	// concurrent TRUNCATE) before the whole expansion fails.
	maxTableRestarts = 50
	// maxUnfencedRounds caps optimistic catch-up rounds before the final
	// fence forces the tail to drain.
	maxUnfencedRounds = 6
)

// errMoveRestart restarts one table's move from scratch (e.g. the table was
// truncated mid-move, so the staged copy is garbage).
var errMoveRestart = errors.New("cluster: table changed under the mover; restarting its move")

// ExpandProgress is a snapshot of the (most recent) expansion run, surfaced
// by SHOW expand_status and DB.ExpandStatus.
type ExpandProgress struct {
	// Active is true while a mover is running.
	Active bool
	// From/Target are the segment counts the run started from and grows to.
	From, Target int
	// TablesTotal/TablesDone track per-table progress; Moving names the
	// table currently being streamed.
	TablesTotal, TablesDone int
	Moving                  string
	// RowsMoved counts rows staged (seed plus catch-up deltas).
	RowsMoved int64
	// Restarts counts table moves restarted after an error (injected faults,
	// segment failovers, concurrent truncates).
	Restarts int64
	// Done/Err report the terminal state of the last run.
	Done bool
	Err  string
}

// expandRun is the mutable state of one expansion run.
type expandRun struct {
	from, target int
	doneCh       chan struct{}

	mu          sync.Mutex
	moving      string
	tablesTotal int
	tablesDone  int
	rowsMoved   int64
	restarts    int64
	done        bool
	err         error
}

func (r *expandRun) snapshot() ExpandProgress {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := ExpandProgress{
		Active: !r.done, From: r.from, Target: r.target,
		TablesTotal: r.tablesTotal, TablesDone: r.tablesDone, Moving: r.moving,
		RowsMoved: r.rowsMoved, Restarts: r.restarts, Done: r.done,
	}
	if r.err != nil {
		p.Err = r.err.Error()
	}
	return p
}

func (r *expandRun) setTotal(n int) { r.mu.Lock(); r.tablesTotal = n; r.mu.Unlock() }
func (r *expandRun) setMoving(name string) {
	r.mu.Lock()
	r.moving = name
	r.mu.Unlock()
}
func (r *expandRun) bumpDone()     { r.mu.Lock(); r.tablesDone++; r.moving = ""; r.mu.Unlock() }
func (r *expandRun) bumpRestarts() { r.mu.Lock(); r.restarts++; r.mu.Unlock() }
func (r *expandRun) addRows(n int64) {
	r.mu.Lock()
	r.rowsMoved += n
	r.mu.Unlock()
}
func (r *expandRun) finish(err error) {
	r.mu.Lock()
	r.done = true
	r.err = err
	r.moving = ""
	r.mu.Unlock()
}
func (r *expandRun) isDone() bool { r.mu.Lock(); defer r.mu.Unlock(); return r.done }

// AddSegments grows the cluster by n segments and starts the background
// rebalance; it returns the new segment count.
func (c *Cluster) AddSegments(n int) (int, error) {
	if n <= 0 {
		return c.SegCount(), fmt.Errorf("cluster: AddSegments needs a positive count, got %d", n)
	}
	target := c.SegCount() + n
	return target, c.StartExpand(target)
}

// StartExpand grows the topology to target segments synchronously (new
// segments and their mirrors serve immediately) and starts the background
// mover that re-distributes existing tables. Only one expansion runs at a
// time.
func (c *Cluster) StartExpand(target int) error {
	c.expandMu.Lock()
	defer c.expandMu.Unlock()
	if c.closed.Load() {
		return errors.New("cluster: closed")
	}
	if c.expand != nil && !c.expand.isDone() {
		return fmt.Errorf("cluster: an expansion to %d segments is already in progress", c.expand.target)
	}
	from := c.SegCount()
	if target <= from {
		return fmt.Errorf("cluster: EXPAND TO %d: cluster already has %d segments", target, from)
	}
	if err := c.growTopology(target); err != nil {
		return err
	}
	run := &expandRun{from: from, target: target, doneCh: make(chan struct{})}
	c.expand = run
	go c.runExpand(run)
	return nil
}

// WaitExpand blocks until the current expansion run (if any) finishes and
// returns its terminal error.
func (c *Cluster) WaitExpand(ctx context.Context) error {
	c.expandMu.Lock()
	run := c.expand
	c.expandMu.Unlock()
	if run == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-run.doneCh:
	}
	run.mu.Lock()
	defer run.mu.Unlock()
	return run.err
}

// ExpandStatus reports the most recent expansion run's progress.
func (c *Cluster) ExpandStatus() ExpandProgress {
	c.expandMu.Lock()
	run := c.expand
	c.expandMu.Unlock()
	if run == nil {
		return ExpandProgress{From: c.SegCount(), Target: c.SegCount(), Done: true}
	}
	return run.snapshot()
}

// growTopology builds segments [cur, target), instantiates every catalog
// table (and its indexes) on them — and on their mirrors — and publishes the
// longer topology. Runs under ddlMu so no CREATE/DROP TABLE races the
// per-segment instantiation; the publish itself follows promote's pattern
// (append under topoMu, cycle topoCh so dispatch waits wake).
func (c *Cluster) growTopology(target int) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	cur := c.SegCount()
	if target <= cur {
		return fmt.Errorf("cluster: grow to %d: already at %d segments", target, cur)
	}
	tables := c.catalog.Tables()
	newSegs := make([]*Segment, 0, target-cur)
	newMirrors := make([]*Mirror, 0, target-cur)
	for i := cur; i < target; i++ {
		seg, m := c.buildSegment(i)
		for _, t := range tables {
			seg.CreateTable(t)
			for _, ix := range t.Indexes {
				if err := seg.CreateIndex(t, ix); err != nil {
					return err
				}
			}
			if m != nil {
				// Mirrors carry data only; indexes are rebuilt at promotion.
				m.CreateTable(t)
			}
		}
		newSegs = append(newSegs, seg)
		newMirrors = append(newMirrors, m)
	}
	c.topoMu.Lock()
	old := c.topoNow()
	nt := &topology{
		slots:    make([]*atomic.Pointer[Segment], 0, target),
		breakers: make([]*fault.Breaker, 0, target),
	}
	nt.slots = append(nt.slots, old.slots...)
	nt.breakers = append(nt.breakers, old.breakers...)
	for _, seg := range newSegs {
		slot := &atomic.Pointer[Segment]{}
		slot.Store(seg)
		nt.slots = append(nt.slots, slot)
		nt.breakers = append(nt.breakers, fault.NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown))
	}
	c.topo.Store(nt)
	c.mirrors = append(c.mirrors, newMirrors...)
	c.promoting = append(c.promoting, make([]bool, len(newSegs))...)
	close(c.topoCh)
	c.topoCh = make(chan struct{})
	c.topoMu.Unlock()
	// Cached plans were built for the old width: re-plan everything.
	c.BumpPlanEpoch()
	return nil
}

// runExpand is the background mover: it walks every table that still hashes
// across the old width and re-distributes it, restarting a table's move on
// transient errors.
func (c *Cluster) runExpand(run *expandRun) {
	var runErr error
	defer func() {
		run.finish(runErr)
		close(run.doneCh)
	}()
	ctx := context.Background()
	slot := c.moverSlot(ctx)
	if slot != nil {
		defer slot.Release()
	}
	tables := c.catalog.Tables()
	run.setTotal(len(tables))
	for _, t := range tables {
		run.setMoving(t.Name)
		for attempt := 0; ; attempt++ {
			if c.closed.Load() {
				runErr = errors.New("cluster: closed during expansion")
				return
			}
			err := c.moveTable(ctx, run, slot, t)
			if err == nil {
				break
			}
			if attempt >= maxTableRestarts {
				runErr = fmt.Errorf("cluster: expansion of table %q: %w", t.Name, err)
				return
			}
			run.bumpRestarts()
			time.Sleep(fault.Backoff(attempt, time.Millisecond, 50*time.Millisecond))
		}
		run.bumpDone()
	}
}

// moverSlot admits the mover into its throttling resource group (creating
// the group on first use). A nil slot means "unthrottled" — the group could
// not be created, which never blocks an expansion.
func (c *Cluster) moverSlot(ctx context.Context) *resgroup.Slot {
	g, ok := c.groups.Group(moverGroup)
	if !ok {
		def := &catalog.ResourceGroupDef{
			Name: moverGroup, Concurrency: 1, CPURateLimit: 10,
			MemoryLimit: 5, MemSharedQuota: 50,
		}
		if err := c.ApplyCreateResourceGroup(def); err == nil {
			g, ok = c.groups.Group(moverGroup)
		}
	}
	if !ok {
		return nil
	}
	s, err := g.Admit(ctx)
	if err != nil {
		return nil
	}
	return s
}

// moverThrottle charges one batch of mover work to the resource group (so
// foreground queries keep their CPU share) and evaluates the move_stream
// fault point with the batch's source segment.
func (c *Cluster) moverThrottle(ctx context.Context, slot *resgroup.Slot, seg int) error {
	if slot != nil {
		if err := slot.ChargeCPU(ctx, moveBatchCPU); err != nil {
			return err
		}
	}
	return c.faults.Inject(fault.MoveStream, seg)
}

// moveTable re-distributes one table onto the target width.
func (c *Cluster) moveTable(ctx context.Context, run *expandRun, slot *resgroup.Slot, t *catalog.Table) error {
	if c.catalog.TableByID(t.ID) == nil {
		return nil // dropped (or already flipped) since the run started
	}
	w, ver := t.Placement()
	if w <= 0 {
		w = run.from
	}
	if w >= run.target {
		return nil // already on the new placement
	}
	switch t.Distribution {
	case catalog.DistRandom:
		return c.flipRandom(ctx, t, w, run.target, ver)
	case catalog.DistReplicated:
		return c.moveReplicated(ctx, run, slot, t, w, run.target, ver)
	default:
		return c.moveHash(ctx, run, slot, t, w, run.target, ver)
	}
}

// fenceTable quiesces a table: the coordinator AccessExclusive lock (waits
// out — and blocks — every statement that parse-analyzed the table) plus
// AccessExclusive on each of the first upto segments (waits out join readers
// that only hold segment-side locks). The caller releases the fence with
// finishFence.
func (c *Cluster) fenceTable(ctx context.Context, tab *catalog.Table, upto int) (*LiveTxn, error) {
	lt := c.BeginTxn()
	lt.grow(c.SegCount())
	if err := c.LockCoordinator(ctx, lt, tab.Name, lockmgr.AccessExclusive); err != nil {
		c.AbortTxn(lt)
		return nil, err
	}
	for i := 0; i < upto; i++ {
		s, err := c.segUp(ctx, i)
		if err != nil {
			c.AbortTxn(lt)
			return nil, err
		}
		if err := s.LockRelation(ctx, lt.owner, tab, lockmgr.AccessExclusive); err != nil {
			c.AbortTxn(lt)
			return nil, err
		}
		lt.touched[i] = true
	}
	return lt, nil
}

// finishFence releases a fence transaction (read-only: it logs nothing).
func (c *Cluster) finishFence(lt *LiveTxn) { _, _ = c.CommitTxn(lt) }

// flipRandom widens a randomly-distributed table: pure metadata. Scans read
// rows wherever they physically live and round-robin routing picks up the
// new width with the next plan, so no data moves.
func (c *Cluster) flipRandom(ctx context.Context, t *catalog.Table, w, target int, ver uint64) error {
	lt, err := c.fenceTable(ctx, t, w)
	if err != nil {
		return err
	}
	defer c.finishFence(lt)
	if err := c.faults.Inject(fault.MapFlip, CoordinatorSeg); err != nil {
		return err
	}
	t.SetPlacement(target, ver+1)
	c.invalidateStats(t.Name)
	c.BumpPlanEpoch()
	return nil
}

// moveReplicated widens a replicated table by stage and flip, like the hash
// path without its catch-up: under one fence, which quiesces the table's
// writers, one INSERT … SELECT inside the fence transaction broadcasts
// segment 0's copy into a replicated staging clone across the target width.
// The copy is charged to the mover's throttle per batch of rows read, as
// the hash seed is, before it commits. Once it has committed, and before the
// fence lifts, the clone takes the table's indexes and flipTable swaps it
// in.
func (c *Cluster) moveReplicated(ctx context.Context, run *expandRun, slot *resgroup.Slot, t *catalog.Table, w, target int, ver uint64) (err error) {
	st, err := c.createStaging(t)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = c.ApplyDropTable(expandStagingPrefix + t.Name) // st.Name changes at the flip
		}
	}()
	lt, err := c.fenceTable(ctx, t, w)
	if err != nil {
		return err
	}
	committed := false
	defer func() {
		if !committed {
			c.AbortTxn(lt)
		}
	}()
	if err := c.moverThrottle(ctx, slot, 0); err != nil {
		return err
	}
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	scan := plan.NewScan(t, leafIDs(t), nil)
	scan.OnSeg = 0
	_, stVer := st.Placement()
	copyAll := &plan.InsertPlan{Table: st, Child: &plan.Motion{Child: scan, Type: plan.MotionBroadcast, Width: target}, MapVersion: stVer}
	_, n, err := c.Run(ctx, lt, snap, plan.NewPlanned(copyAll), nil)
	if err != nil {
		return err
	}
	for b := 0; b < n/target/moveBatchRows; b++ {
		if err := c.moverThrottle(ctx, slot, 0); err != nil {
			return err
		}
	}
	committed = true
	if _, err := c.commitThen(lt, func() error {
		if err := c.cloneIndexes(t, st, target); err != nil {
			return err
		}
		if err := c.faults.Inject(fault.MapFlip, CoordinatorSeg); err != nil {
			return err
		}
		return c.flipTable(t, st, w, target, ver)
	}); err != nil {
		return err
	}
	run.addRows(int64(n))
	return nil
}

// createStaging creates t's staging table, dropping one an earlier attempt
// left behind.
func (c *Cluster) createStaging(t *catalog.Table) (*catalog.Table, error) {
	stName := expandStagingPrefix + t.Name
	if c.catalog.HasTable(stName) {
		if err := c.ApplyDropTable(stName); err != nil {
			return nil, err
		}
	}
	st := stagingClone(t, stName)
	return st, c.ApplyCreateTable(st)
}

// ---- hash-distributed move: snapshot seed + WAL tail catch-up ----

// tidKey identifies one stored tuple version on a source segment.
type tidKey struct {
	seg  int
	leaf uint64
	tid  uint64
}

// tailTxn buffers one local transaction's table records from the WAL tail
// until its Commit (apply) or Abort (discard) record arrives.
type tailTxn struct {
	inserts []types.Row
	deletes map[tidKey]struct{}
}

// hashMove is the per-table state of a hash-distributed move.
type hashMove struct {
	c       *Cluster
	run     *expandRun
	slot    *resgroup.Slot
	t, st   *catalog.Table
	w       int
	target  int
	leafSet map[uint64]struct{}
	// lastLSN[i] is the catch-up boundary per source segment: records at or
	// below it are covered by the seeded snapshot (or an earlier round).
	lastLSN []wal.LSN
	// histDone[i] marks that segment i's full history was replayed once (the
	// TID index needs pre-boundary Insert records: SetXmax carries no row).
	histDone   []bool
	pending    []map[uint64]*tailTxn
	tidContent map[tidKey]types.Row
}

func (m *hashMove) buf(seg int, xid uint64) *tailTxn {
	b := m.pending[seg][xid]
	if b == nil {
		b = &tailTxn{deletes: make(map[tidKey]struct{})}
		m.pending[seg][xid] = b
	}
	return b
}

// moveHash streams a hash-distributed table onto the target width through a
// staging table, catching up from the sources' WAL tails, and flips routing
// by renaming the staging table over the original.
func (c *Cluster) moveHash(ctx context.Context, run *expandRun, slot *resgroup.Slot, t *catalog.Table, w, target int, ver uint64) (err error) {
	st, err := c.createStaging(t)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = c.ApplyDropTable(expandStagingPrefix + t.Name) // st.Name changes at the flip
		}
	}()

	m := &hashMove{
		c: c, run: run, slot: slot, t: t, st: st, w: w, target: target,
		leafSet:    make(map[uint64]struct{}, len(leafIDs(t))),
		lastLSN:    make([]wal.LSN, w),
		histDone:   make([]bool, w),
		pending:    make([]map[uint64]*tailTxn, w),
		tidContent: make(map[tidKey]types.Row),
	}
	for _, leaf := range leafIDs(t) {
		m.leafSet[uint64(leaf)] = struct{}{}
	}
	for i := range m.pending {
		m.pending[i] = make(map[uint64]*tailTxn)
	}

	// Phase 1 — brief fence: freeze the snapshot/WAL boundary. 2PL means no
	// writer of t spans the fence, so every transaction is either fully
	// committed at LSN <= L0 (visible to snap) or starts after (caught by
	// the tail replay).
	ltF, err := c.fenceTable(ctx, t, w)
	if err != nil {
		return err
	}
	ltR := c.BeginTxn()
	ltR.grow(c.SegCount())
	snap := c.Snapshot()
	readerOpen := true
	closeReader := func() {
		c.ReleaseSnapshot(snap)
		_, _ = c.CommitTxn(ltR)
		readerOpen = false
	}
	defer func() {
		if readerOpen {
			closeReader()
		}
	}()
	accs := make([]*storeAccess, w)
	for i := 0; i < w; i++ {
		s, serr := c.segUp(ctx, i)
		if serr != nil {
			c.finishFence(ltF)
			return serr
		}
		ltR.touched[i] = true
		m.lastLSN[i] = s.log.LastLSN()
		accs[i] = s.newAccess(ltR.owner, ltR.dxid, snap)
	}
	c.finishFence(ltF)

	// Phase 2 — seed: stream the frozen snapshot into staging, batched and
	// throttled; the old placement serves traffic throughout.
	for i := 0; i < w; i++ {
		for _, leaf := range leafIDs(t) {
			batch := make([]types.Row, 0, moveBatchRows)
			flush := func() error {
				if len(batch) == 0 {
					return nil
				}
				if terr := c.moverThrottle(ctx, slot, i); terr != nil {
					return terr
				}
				if serr := c.stageDelta(ctx, run, st, target, batch, nil); serr != nil {
					return serr
				}
				batch = batch[:0]
				return nil
			}
			scanErr := accs[i].ScanTable(ctx, leaf, exec.ScanSpec{}, exec.RowMark{}, func(row types.Row) (bool, bool, error) {
				batch = append(batch, row.Clone())
				if len(batch) >= moveBatchRows {
					if ferr := flush(); ferr != nil {
						return false, false, ferr
					}
				}
				return false, true, nil
			})
			if scanErr != nil {
				return scanErr
			}
			if ferr := flush(); ferr != nil {
				return ferr
			}
		}
	}
	closeReader()

	// Phase 3 — optimistic catch-up: apply committed tail deltas while the
	// table stays fully online.
	for round := 0; round < maxUnfencedRounds; round++ {
		n, rerr := m.replayTails(ctx)
		if rerr != nil {
			return rerr
		}
		if n == 0 {
			break
		}
	}

	// Phase 4 — final fence: drain the tail (all table writers are resolved
	// once the fence is held), clone indexes, flip.
	ltF2, err := c.fenceTable(ctx, t, w)
	if err != nil {
		return err
	}
	defer c.finishFence(ltF2)
	if _, err := m.replayTails(ctx); err != nil {
		return err
	}
	for i := range m.pending {
		if len(m.pending[i]) > 0 {
			return fmt.Errorf("cluster: expansion tail left unresolved transactions on segment %d", i)
		}
	}
	if err := c.cloneIndexes(t, st, target); err != nil {
		return err
	}
	if err := c.faults.Inject(fault.MapFlip, CoordinatorSeg); err != nil {
		return err
	}
	return c.flipTable(t, st, w, target, ver)
}

// replayTails replays each source segment's WAL tail once, buffering table
// records per local transaction and applying them to the staging table when
// their Commit record arrives. Returns how many committed transactions were
// applied. The first pass over a segment replays its full history to build
// the TID→row index (SetXmax records reference tuples by TID only, possibly
// from before the boundary); only records past the boundary feed buffers.
func (m *hashMove) replayTails(ctx context.Context) (int, error) {
	applied := 0
	for i := 0; i < m.w; i++ {
		s, err := m.c.segUp(ctx, i)
		if err != nil {
			return applied, err
		}
		from := wal.LSN(1)
		if m.histDone[i] {
			from = m.lastLSN[i] + 1
		}
		var maxSeen wal.LSN
		err = s.log.ReplayFrom(from, func(r wal.Record) error {
			if r.LSN > maxSeen {
				maxSeen = r.LSN
			}
			if r.Type == wal.TypeInsert {
				if _, ok := m.leafSet[r.Leaf]; ok {
					m.tidContent[tidKey{i, r.Leaf, r.TID}] = r.Row.Clone()
				}
			}
			if r.LSN <= m.lastLSN[i] {
				return nil // covered by the seeded snapshot / earlier round
			}
			switch r.Type {
			case wal.TypeInsert:
				if _, ok := m.leafSet[r.Leaf]; ok {
					b := m.buf(i, r.Xid)
					b.inserts = append(b.inserts, r.Row.Clone())
				}
			case wal.TypeSetXmax:
				if _, ok := m.leafSet[r.Leaf]; ok {
					m.buf(i, r.Xid).deletes[tidKey{i, r.Leaf, r.TID}] = struct{}{}
				}
			case wal.TypeTruncate:
				if _, ok := m.leafSet[r.Leaf]; ok {
					return errMoveRestart
				}
			case wal.TypeCommit:
				if b, ok := m.pending[i][r.Xid]; ok {
					delete(m.pending[i], r.Xid)
					if aerr := m.applyTxn(ctx, i, b); aerr != nil {
						return aerr
					}
					applied++
				}
			case wal.TypeAbort:
				delete(m.pending[i], r.Xid)
			}
			// ClearXmax records only clean up after aborted stampers (the
			// abort already discarded that transaction's buffer) and
			// LinkUpdate only chains ctids — neither changes the multiset.
			return nil
		})
		if err != nil {
			return applied, err
		}
		if maxSeen > m.lastLSN[i] {
			m.lastLSN[i] = maxSeen
		}
		m.histDone[i] = true
	}
	return applied, nil
}

// applyTxn applies one committed tail transaction's net effect to staging.
func (m *hashMove) applyTxn(ctx context.Context, seg int, b *tailTxn) error {
	if terr := m.c.moverThrottle(ctx, m.slot, seg); terr != nil {
		return terr
	}
	var minus []types.Row
	for k := range b.deletes {
		row, ok := m.tidContent[k]
		if !ok {
			return fmt.Errorf("cluster: expansion catch-up references unknown tuple (seg %d leaf %d tid %d)", k.seg, k.leaf, k.tid)
		}
		minus = append(minus, row)
	}
	return m.c.stageDelta(ctx, m.run, m.st, m.target, b.inserts, minus)
}

// stageDelta applies one batch of row additions and removals to the staging
// table in a single distributed micro-transaction. Removals delete by full
// row equality: identical rows hash to the same segment and are fungible, so
// deleting all copies and re-inserting count-1 keeps the multiset exact.
func (c *Cluster) stageDelta(ctx context.Context, run *expandRun, st *catalog.Table, target int, plus, minus []types.Row) error {
	if len(plus) == 0 && len(minus) == 0 {
		return nil
	}
	lt := c.BeginTxn()
	lt.grow(c.SegCount())
	committed := false
	defer func() {
		if !committed {
			c.AbortTxn(lt)
		}
	}()
	snap := c.Snapshot()
	defer c.ReleaseSnapshot(snap)
	_, ver := st.Placement()
	for _, row := range minus {
		dp := &plan.DeletePlan{Table: st, Child: plan.NewScan(st, leafIDs(st), rowEqFilter(st, row)), MapVersion: ver}
		_, removed, err := c.Run(ctx, lt, snap, &plan.Planned{Root: dp, DirectSegment: plan.RouteRow(st, row, target)}, nil)
		if err != nil {
			return err
		}
		if removed == 0 {
			return fmt.Errorf("cluster: expansion delta: no staged copy of a deleted %s row", st.Name)
		}
		if err := c.stageRows(ctx, lt, snap, st, slices.Repeat([]types.Row{row}, removed-1)); err != nil {
			return err
		}
	}
	if err := c.stageRows(ctx, lt, snap, st, plus); err != nil {
		return err
	}
	if _, err := c.CommitTxn(lt); err != nil {
		committed = true // CommitTxn already cleaned up
		return err
	}
	committed = true
	run.addRows(int64(len(plus) + len(minus)))
	return nil
}

// stageRows inserts rows into the staging table within the mover's
// micro-transaction lt: the InsertPlan dispatch every INSERT runs, each row
// routed across st's placement, which is the target width.
func (c *Cluster) stageRows(ctx context.Context, lt *LiveTxn, snap *dtm.DistSnapshot, st *catalog.Table, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	_, ver := st.Placement()
	ip := &plan.InsertPlan{Table: st, Child: &plan.Values{Out: st.Schema, Rows: rows}, MapVersion: ver}
	_, _, err := c.Run(ctx, lt, snap, &plan.Planned{Root: ip, DirectSegment: -1}, nil)
	return err
}

// cloneIndexes builds the original table's indexes on the staging table
// (created bare so the seed streams without index maintenance).
func (c *Cluster) cloneIndexes(t, st *catalog.Table, target int) error {
	c.ddlMu.Lock()
	defer c.ddlMu.Unlock()
	for _, ix := range t.Indexes {
		exists := false
		for _, sx := range st.Indexes {
			if sx.Name == ix.Name {
				exists = true
				break
			}
		}
		if exists {
			continue
		}
		idx := &catalog.Index{Name: ix.Name, Columns: append([]int(nil), ix.Columns...)}
		if err := c.catalog.AddIndex(st.Name, idx); err != nil {
			return err
		}
		for i := 0; i < target; i++ {
			if err := c.seg(i).CreateIndex(st, idx); err != nil {
				return err
			}
		}
	}
	return nil
}

// flipTable atomically moves routing to the widened placement: the staging
// table is renamed over the old one in a single catalog step — planners
// resolve names without ddlMu, and must find one of the two at any moment —
// and only then is the old table dropped on the segments and mirrors
// (in-flight mirror tail records for its leaves are skipped, the normal
// dropped-table contract). The staging table keeps its IDs, so engines, WAL
// leaf bindings, mirrors and locks carry over untouched. Both the retired
// object and the renamed one get a bumped map version, set before the swap
// shows the new one under the live name: plans holding either fail
// retryably, and in-flight writers of the old placement fence with
// ErrTxnLostWrites.
func (c *Cluster) flipTable(t, st *catalog.Table, w, target int, ver uint64) error {
	stName := st.Name
	c.ddlMu.Lock()
	t.SetPlacement(w, ver+1)
	st.SetPlacement(target, ver+1)
	err := c.catalog.RenameTableOver(stName, t.Name)
	if err == nil {
		c.eachSeg(func(_ int, s *Segment) { s.DropTable(t) })
		c.eachMirror(func(m *Mirror) { m.DropTable(t) })
	}
	c.ddlMu.Unlock()
	if err != nil {
		return err
	}
	c.invalidateStats(stName)
	c.invalidateStats(st.Name)
	c.BumpPlanEpoch()
	return nil
}

// stagingClone describes the staging table: same schema, distribution and
// partition layout as the original, fresh IDs, no indexes (built at flip).
func stagingClone(t *catalog.Table, name string) *catalog.Table {
	st := &catalog.Table{
		Name:         name,
		Schema:       t.Schema,
		Distribution: t.Distribution,
		DistKeyCols:  append([]int(nil), t.DistKeyCols...),
		Storage:      t.Storage,
		PartitionCol: t.PartitionCol,
	}
	for _, p := range t.Partitions {
		st.Partitions = append(st.Partitions, catalog.Partition{
			Name: p.Name, Start: p.Start, End: p.End, Storage: p.Storage,
		})
	}
	return st
}

// rowEqFilter builds the full-row equality predicate used to delete a moved
// row's staged copy by content (NULLs compare via IS NULL).
func rowEqFilter(t *catalog.Table, row types.Row) plan.Expr {
	var f plan.Expr
	for i := 0; i < t.Schema.Len(); i++ {
		col := t.Schema.Columns[i]
		ref := &plan.ColRef{Idx: i, Name: col.Name, Typ: col.Kind}
		var cond plan.Expr
		if row[i].IsNull() {
			cond = &plan.IsNull{Operand: ref}
		} else {
			cond = &plan.BinOp{Op: "=", Left: ref, Right: &plan.Const{Val: row[i]}}
		}
		if f == nil {
			f = cond
		} else {
			f = &plan.BinOp{Op: "AND", Left: f, Right: cond}
		}
	}
	return f
}
