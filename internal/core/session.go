package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/dtm"
	"repro/internal/fault"
	"repro/internal/lockmgr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/resgroup"
	"repro/internal/sql"
	"repro/internal/types"
)

// ErrTxnAborted is returned for statements issued inside a failed explicit
// transaction before ROLLBACK.
var ErrTxnAborted = errors.New("core: current transaction is aborted, commands ignored until end of transaction block")

// Session is one client connection. Sessions are not safe for concurrent
// use; open one per worker goroutine.
type Session struct {
	engine *Engine
	role   *catalog.Role

	// settings are the typed SET values (settingTable declares each one).
	settings sessionSettings

	// Transaction state.
	txn      *cluster.LiveTxn
	explicit bool
	failed   bool

	// Resource-group integration (enabled via UseResourceGroup).
	useRG   bool
	slot    *resgroup.Slot
	stmtCPU time.Duration // CPU charged once per statement

	// sess is this session's gp_stat_activity entry.
	sess *obs.SessionInfo
	// cur is the in-flight statement's observability state, in ob; nil
	// while idle.
	cur *stmtObs
	ob  stmtObs
	// snap is the running statement's distributed snapshot, released and
	// retaken per statement.
	snap dtm.DistSnapshot
	// insts are the instances of the cached templates this session runs,
	// lowered under plan epoch instEpoch (see instanceOf).
	insts     map[*plan.Planned]*instance
	instEpoch uint64
	// lastParse is the time the preceding Exec spent in the parser
	// (0 on a statement-cache hit); it becomes the trace's parse span.
	lastParse time.Duration
	// lastSQL is the raw text the client sent to Exec — what the activity
	// views display (the cache's normalized form is the fallback).
	lastSQL string
}

// stmtObs carries one statement's observability window: the query id, the
// distributed trace (under SET trace_queries), and the counters folded into
// the gp_stat_queries record when the statement finishes.
type stmtObs struct {
	qid     uint64
	sql     string
	start   time.Time
	trace   *obs.Trace
	root    obs.ActiveSpan
	scan    cluster.ScanCounters
	spill   cluster.SpillCounters
	rows    int64
	rowsSet bool
}

// setRows overrides the record's row count (EXPLAIN ANALYZE result rows are
// plan text, not query output, so handlers report the real count here).
func (o *stmtObs) setRows(n int64) {
	if o != nil {
		o.rows, o.rowsSet = n, true
	}
}

// NewSession opens a session for the given role (empty = gpadmin).
func (e *Engine) NewSession(roleName string) (*Session, error) {
	if roleName == "" {
		roleName = "gpadmin"
	}
	r, err := e.cluster.Catalog().Role(roleName)
	if err != nil {
		return nil, err
	}
	s := &Session{engine: e, role: r, sess: e.activity.Register(r.Name)}
	for _, st := range settingTable {
		if st.init != nil {
			st.init(&s.settings, e.cluster.Config())
		}
	}
	return s, nil
}

// UseResourceGroup toggles resource-group enforcement for this session's
// statements, with the given per-statement CPU cost.
func (s *Session) UseResourceGroup(enabled bool, stmtCPU time.Duration) {
	s.useRG = enabled
	s.stmtCPU = stmtCPU
}

// InTxn reports whether an explicit transaction block is open.
func (s *Session) InTxn() bool { return s.txn != nil && s.explicit }

// Exec parses and executes a single statement with optional $N parameters.
// The parse goes through the engine's shared statement cache: repeated
// statement texts skip the parser entirely, and SELECT, INSERT, UPDATE and
// DELETE reuse cached plans while the catalog/stats epoch, planner settings and
// parameter kinds match.
func (s *Session) Exec(ctx context.Context, sqlText string, params ...types.Datum) (*Result, error) {
	t0 := time.Now()
	st, entry, err := s.engine.stmts.parse(sqlText)
	if err != nil {
		return nil, err
	}
	s.lastParse = time.Since(t0)
	s.lastSQL = sqlText
	return s.execParsed(ctx, st, entry, params...)
}

// Close tears the session down: it rolls back any open transaction and
// releases the resource-group slot. The network session layer calls it on
// every disconnect — including abrupt socket closes mid-transaction — so a
// dead connection can never pin locks or admission slots. Idempotent.
func (s *Session) Close() {
	s.failed = false
	s.abortCurrent()
	s.insts = nil
	s.engine.activity.Unregister(s.sess)
}

// TxnStatus reports the session's transaction state as the wire protocol's
// ready-status byte: 'I' idle, 'T' inside an open block, 'F' failed block.
func (s *Session) TxnStatus() byte {
	switch {
	case s.failed:
		return 'F'
	case s.InTxn():
		return 'T'
	default:
		return 'I'
	}
}

// ExecScript runs a semicolon-separated script, stopping at the first error.
func (s *Session) ExecScript(ctx context.Context, script string) error {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := s.execParsed(ctx, st, nil); err != nil {
			return fmt.Errorf("core: executing %q: %w", st.String(), err)
		}
	}
	return nil
}

// execParsed executes a statement, with entry carrying the shared
// statement-cache slot when the text came through Exec.
func (s *Session) execParsed(ctx context.Context, st sql.Statement, entry *stmtEntry, params ...types.Datum) (*Result, error) {
	parseDur := s.lastParse
	s.lastParse = 0
	rawSQL := s.lastSQL
	s.lastSQL = ""
	// Transaction control is always allowed.
	switch st.(type) {
	case *sql.BeginStmt:
		return s.execBegin(ctx)
	case *sql.CommitStmt:
		return s.execCommit()
	case *sql.RollbackStmt:
		return s.execRollback()
	}
	if s.failed {
		return nil, ErrTxnAborted
	}

	// statement_timeout bounds one statement's wall time (including the
	// implicit commit); 0 = no limit.
	if ms := s.settings.statementTimeoutMS; ms > 0 {
		tctx, cancel := context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
		ctx = tctx
	}

	ob := s.beginObserve(st, entry, rawSQL, parseDur)
	implicit := s.txn == nil
	if implicit {
		if err := s.beginTxn(ctx, false); err != nil {
			s.finishObserve(ob, nil, err)
			return nil, err
		}
	}
	// A statement whose context is already done fails before it runs: a
	// point read or write would otherwise never look at ctx.
	var res *Result
	err := ctx.Err()
	if err == nil {
		res, err = s.execStatement(ctx, st, entry, params)
	}
	if err != nil {
		// Statement failure aborts the transaction (deadlock victims and
		// cancelled queries must release their locks to unblock others).
		s.abortCurrent()
		if !implicit {
			// Explicit block: subsequent statements fail until ROLLBACK.
			s.failed = true
			s.explicit = true
		}
		s.finishObserve(ob, nil, err)
		return nil, err
	}
	if implicit {
		if _, cerr := s.commitCurrent(); cerr != nil {
			s.finishObserve(ob, nil, cerr)
			return nil, cerr
		}
	}
	s.finishObserve(ob, res, nil)
	return res, nil
}

// beginObserve opens the statement's observability window: a query id, the
// gp_stat_activity "active" flip, and — under SET trace_queries — the
// distributed trace with its parse span.
func (s *Session) beginObserve(st sql.Statement, entry *stmtEntry, rawSQL string, parseDur time.Duration) *stmtObs {
	ob := &s.ob
	*ob = stmtObs{qid: s.engine.activity.NextQueryID(), start: time.Now()}
	switch {
	case rawSQL != "":
		ob.sql = rawSQL // what the client actually sent
	case entry != nil:
		ob.sql = entry.str // computed once, shared by the statement cache
	default:
		ob.sql = st.String()
	}
	s.sess.StartQuery(ob.sql)
	if s.settings.traceQueries {
		ob.trace = obs.NewTrace(ob.qid, ob.sql)
		ob.root = ob.trace.Begin(0, "query", -1)
		if parseDur > 0 {
			ob.trace.Record(ob.root.ID(), "parse", -1, ob.start.Add(-parseDur), parseDur)
		}
	}
	s.cur = ob
	return ob
}

// finishObserve closes the window: the per-query duration histogram and
// statement/error counters, the gp_stat_queries record (slow-flagged past
// log_min_duration), and the finished trace into the trace store. All
// durations come from time.Since's monotonic reading, so wall-clock steps
// cannot skew them.
func (s *Session) finishObserve(ob *stmtObs, res *Result, err error) {
	s.cur = nil
	s.sess.EndQuery()
	dur := time.Since(ob.start)
	e := s.engine
	e.qStatements.Add(1)
	e.qSeconds.Observe(dur)
	rows := ob.rows
	if !ob.rowsSet && res != nil {
		if len(res.Rows) > 0 {
			rows = int64(len(res.Rows))
		} else {
			rows = int64(res.RowsAffected)
		}
	}
	rec := obs.QueryRecord{
		QueryID:       ob.qid,
		SQL:           ob.sql,
		Start:         ob.start,
		Dur:           dur,
		Rows:          rows,
		BlocksScanned: ob.scan.BlocksScanned,
		BlocksSkipped: ob.scan.BlocksSkipped,
		SpillBytes:    ob.spill.SpillBytes,
	}
	if s.sess != nil {
		rec.Session = s.sess.ID
	}
	if err != nil {
		e.qErrors.Add(1)
		rec.Err = err.Error()
	}
	if ms := s.settings.logMinDurationMS; ms >= 0 && dur >= time.Duration(ms)*time.Millisecond {
		rec.Slow = true
	}
	e.activity.Record(rec)
	if ob.trace != nil {
		ob.root.End()
		e.activity.Traces().Add(ob.trace)
	}
	*ob = stmtObs{}
}

func (s *Session) execBegin(ctx context.Context) (*Result, error) {
	if s.txn != nil {
		return nil, errors.New("core: there is already a transaction in progress")
	}
	s.failed = false
	if err := s.beginTxn(ctx, true); err != nil {
		return nil, err
	}
	return &Result{Tag: "BEGIN"}, nil
}

func (s *Session) execCommit() (*Result, error) {
	if s.failed {
		// COMMIT of a failed transaction is a rollback.
		s.failed = false
		s.abortCurrent()
		return &Result{Tag: "ROLLBACK"}, nil
	}
	if s.txn == nil {
		return &Result{Tag: "COMMIT"}, nil
	}
	if _, err := s.commitCurrent(); err != nil {
		return nil, err
	}
	return &Result{Tag: "COMMIT"}, nil
}

func (s *Session) execRollback() (*Result, error) {
	s.failed = false
	s.abortCurrent()
	return &Result{Tag: "ROLLBACK"}, nil
}

func (s *Session) beginTxn(ctx context.Context, explicit bool) error {
	if s.useRG && s.slot == nil {
		g, ok := s.engine.cluster.Groups().Group(s.role.ResourceGroup)
		if !ok {
			return fmt.Errorf("core: resource group %q not running", s.role.ResourceGroup)
		}
		slot, err := g.Admit(ctx)
		if err != nil {
			return err
		}
		s.slot = slot
	}
	s.txn = s.engine.cluster.BeginTxn()
	s.explicit = explicit
	return nil
}

func (s *Session) commitCurrent() (int, error) {
	t := s.txn
	s.txn = nil
	s.explicit = false
	defer s.releaseSlot()
	if t == nil {
		return 0, nil
	}
	_, err := s.engine.cluster.CommitTxn(t)
	return 0, err
}

func (s *Session) abortCurrent() {
	t := s.txn
	s.txn = nil
	s.explicit = false
	defer s.releaseSlot()
	if t != nil {
		s.engine.cluster.AbortTxn(t)
	}
}

func (s *Session) releaseSlot() {
	if s.slot != nil {
		s.slot.Release()
		s.slot = nil
	}
}

func (s *Session) planner(params []types.Datum) *plan.Planner {
	return &plan.Planner{
		Catalog: s.engine.cluster.Catalog(),
		// Live count, not cfg.NumSegments: online expansion widens the
		// cluster at runtime and new plans must route across the new width.
		NumSegments: s.engine.cluster.SegCount(),
		Optimizer:   s.settings.optimizer,
		Stats:       s.engine.cluster,
		Params:      params,
	}
}

// planFor returns the executable plan of a SELECT, INSERT, UPDATE or
// DELETE bound to params. On a hit in the plan cache (current epoch,
// settings and parameter kinds) it is the session's instance of the cached
// template; on a miss the statement is planned, the plan stored when a
// later execution can look it up, and run through a throwaway instance. A
// text thus enters the session's set on its second execution, so texts run
// once never displace the ones that repeat. Under SET trace_queries the
// lookup, the planning and the binding together are the trace's plan span,
// so a hit shows as a near-zero one.
func (s *Session) planFor(st sql.Statement, entry *stmtEntry, params []types.Datum, robust bool) (*instance, error) {
	if ob := s.cur; ob != nil && ob.trace != nil {
		defer func(t0 time.Time) { ob.trace.Record(ob.root.ID(), "plan", -1, t0, time.Since(t0)) }(time.Now())
	}
	ps := s.settings.planSettings
	kinds, cacheable := paramKinds(params)
	cacheable = cacheable && entry != nil
	key := planKey{epoch: s.engine.cluster.PlanEpoch(), planSettings: ps, robust: robust, kinds: kinds}
	var pl *plan.Planned
	if cacheable {
		pl = entry.lookupPlan(s.engine.stmts, key)
	}
	hit := pl != nil
	if pl == nil {
		p := s.planner(params)
		p.Robust = robust
		var err error
		if pl, err = p.Plan(st, s.engine.cluster.Config().GDD); err != nil {
			return nil, err
		}
		// The cost-based optimizer plans from the parameter values, so its
		// plan of a parameterised statement is good for this execution only.
		if cacheable && (len(params) == 0 || !ps.costBased()) {
			entry.storePlan(key, pl)
		}
	}
	var in *instance
	var err error
	if hit {
		in, err = s.instanceOf(pl, key.epoch)
	} else {
		in, err = s.newInstance(pl)
	}
	if err != nil {
		return nil, err
	}
	if err := in.Bind(params); err != nil {
		return nil, err
	}
	return in, nil
}

// execStatement runs one non-transaction-control statement inside s.txn.
func (s *Session) execStatement(ctx context.Context, st sql.Statement, entry *stmtEntry, params []types.Datum) (*Result, error) {
	cl := s.engine.cluster
	switch x := st.(type) {
	case *sql.SelectStmt:
		costBased, robust := s.settings.costBased(), false
		var key string // the misestimate key, only needed by the cost-based path
		if costBased {
			if key = x.String(); entry != nil {
				key = entry.str // same string, computed once and cached
			}
			if cl.IsMisestimated(key) {
				// A prior execution of this statement broke its cardinality
				// error bounds: fall back to the robust plan (no broadcast,
				// conservative memory grants) for this and later runs.
				robust = true
				cl.NoteRobustFallback()
			}
		}
		in, err := s.planFor(x, entry, params, robust)
		if err != nil {
			return nil, err
		}
		pl := &in.Planned
		// Tracing arms timed operator stats so per-operator spans can be
		// synthesized once the slices retire; the risk check counts rows
		// only. runPlanned clears in.res, so the check keeps its own
		// reference to the collector.
		traced := s.cur != nil && s.cur.trace != nil
		var ops *plan.OpStats
		if traced || costBased && !robust {
			ops = plan.NewOpStats(pl.Root, cl.SegCount(), traced)
		}
		in.res = cluster.QueryResources{Ops: ops}
		res := &in.res
		if ob := s.cur; ob != nil {
			res.Scan, res.Spill = &ob.scan, &ob.spill
		}
		rows, _, _, err := s.runPlanned(ctx, in, res)
		if err != nil {
			return nil, err
		}
		s.cur.setRows(int64(len(rows)))
		if costBased && !robust && plan.CheckRiskBounds(pl.Costs, ops) {
			cl.RecordMisestimate(key)
		}
		return &Result{Columns: in.cols, Rows: rows, Tag: "SELECT"}, nil

	case *sql.AnalyzeStmt:
		n, err := cl.Analyze(ctx, x.Table)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Tag: "ANALYZE"}, nil

	case *sql.InsertStmt, *sql.UpdateStmt, *sql.DeleteStmt:
		in, err := s.planFor(st, entry, params, false)
		if err != nil {
			return nil, err
		}
		_, n, _, err := s.runPlanned(ctx, in, nil)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Tag: in.writeTag(n)}, nil

	case *sql.LockStmt:
		mode := lockmgr.ModeForName(x.Mode)
		if mode == 0 {
			return nil, fmt.Errorf("core: unknown lock mode %q", x.Mode)
		}
		if err := cl.LockTableEverywhere(ctx, s.txn, x.Table, mode); err != nil {
			return nil, wrapLockErr(err)
		}
		return &Result{Tag: "LOCK TABLE"}, nil

	case *sql.ExplainStmt:
		return s.execExplain(ctx, x, params)

	case *sql.CreateTableStmt:
		if err := s.engine.applyCreateTable(x); err != nil {
			return nil, err
		}
		return &Result{Tag: "CREATE TABLE"}, nil

	case *sql.DropTableStmt:
		if x.IfExists && !cl.Catalog().HasTable(x.Name) {
			return &Result{Tag: "DROP TABLE"}, nil
		}
		if err := cl.ApplyDropTable(x.Name); err != nil {
			return nil, err
		}
		return &Result{Tag: "DROP TABLE"}, nil

	case *sql.TruncateStmt:
		if err := cl.ApplyTruncate(ctx, s.txn, x.Name); err != nil {
			return nil, wrapLockErr(err)
		}
		return &Result{Tag: "TRUNCATE TABLE"}, nil

	case *sql.CreateIndexStmt:
		t, err := cl.Catalog().Table(x.Table)
		if err != nil {
			return nil, err
		}
		idx := &catalog.Index{Name: strings.ToLower(x.Name)}
		for _, c := range x.Columns {
			i := t.Schema.ColumnIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("core: column %q of table %q does not exist", c, x.Table)
			}
			idx.Columns = append(idx.Columns, i)
		}
		if err := cl.ApplyCreateIndex(ctx, s.txn, x.Table, idx); err != nil {
			return nil, wrapLockErr(err)
		}
		return &Result{Tag: "CREATE INDEX"}, nil

	case *sql.VacuumStmt:
		n, err := cl.Vacuum(x.Table)
		if err != nil {
			return nil, err
		}
		return &Result{RowsAffected: n, Tag: "VACUUM"}, nil

	case *sql.CreateResourceGroupStmt:
		if err := s.engine.applyResourceGroup(x); err != nil {
			return nil, err
		}
		return &Result{Tag: "CREATE RESOURCE GROUP"}, nil

	case *sql.DropResourceGroupStmt:
		if err := cl.ApplyDropResourceGroup(x.Name); err != nil {
			return nil, err
		}
		return &Result{Tag: "DROP RESOURCE GROUP"}, nil

	case *sql.CreateRoleStmt:
		if err := cl.Catalog().CreateRole(x.Name, x.ResourceGroup); err != nil {
			return nil, err
		}
		return &Result{Tag: "CREATE ROLE"}, nil

	case *sql.AlterRoleStmt:
		if err := cl.Catalog().AlterRole(x.Name, x.ResourceGroup); err != nil {
			return nil, err
		}
		return &Result{Tag: "ALTER ROLE"}, nil

	case *sql.AlterSystemExpandStmt:
		if err := cl.StartExpand(x.Target); err != nil {
			return nil, err
		}
		return &Result{Tag: fmt.Sprintf("EXPAND %d", x.Target)}, nil

	case *sql.SetStmt:
		return s.execSet(x.Name, x.Value)

	case *sql.ShowStmt:
		return s.execShow(x)

	case *sql.FaultStmt:
		return s.execFault(x)

	default:
		return nil, fmt.Errorf("core: unsupported statement %T", st)
	}
}

// execFault executes the FAULT admin statement against the cluster's fault
// registry.
func (s *Session) execFault(x *sql.FaultStmt) (*Result, error) {
	cl := s.engine.cluster
	switch x.Verb {
	case sql.FaultStatus:
		res := &Result{
			Columns: []string{"point", "segment", "action", "hits", "triggers", "exhausted"},
			Tag:     "FAULT STATUS",
		}
		for _, ps := range cl.FaultStatus() {
			res.Rows = append(res.Rows, types.Row{
				types.NewText(ps.Point),
				types.NewInt(int64(ps.Seg)),
				types.NewText(ps.Action.String()),
				types.NewInt(ps.Hits),
				types.NewInt(ps.Triggers),
				types.NewText(onOff(ps.Exhausted)),
			})
		}
		return res, nil

	case sql.FaultReset:
		n := cl.ResetFault(x.Point)
		return &Result{RowsAffected: n, Tag: "FAULT RESET"}, nil

	case sql.FaultResume:
		n := cl.ResumeFault(x.Point)
		return &Result{RowsAffected: n, Tag: "FAULT RESUME"}, nil

	default: // sql.FaultInject
		actName := x.Action
		if actName == "" {
			actName = "error"
		}
		act, ok := fault.ParseAction(actName)
		if !ok {
			return nil, fmt.Errorf("core: unknown fault action %q", actName)
		}
		if x.Probability < 0 || x.Probability > 100 {
			return nil, fmt.Errorf("core: fault probability must be between 0 and 100 (got %d)", x.Probability)
		}
		spec := fault.Spec{
			Point:       x.Point,
			Seg:         x.Seg,
			Action:      act,
			Message:     x.Message,
			Sleep:       time.Duration(x.SleepMS) * time.Millisecond,
			Start:       x.Start,
			Count:       x.Count,
			Probability: x.Probability,
			Seed:        x.Seed,
		}
		if err := cl.InjectFault(spec); err != nil {
			return nil, err
		}
		return &Result{Tag: "FAULT INJECT"}, nil
	}
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// writeTag is the command tag of a write that wrote n rows.
func writeTag(root plan.Node, n int) string {
	switch root.(type) {
	case *plan.InsertPlan:
		return fmt.Sprintf("INSERT 0 %d", n)
	case *plan.UpdatePlan:
		return fmt.Sprintf("UPDATE %d", n)
	}
	return fmt.Sprintf("DELETE %d", n)
}

func (s *Session) execExplain(ctx context.Context, x *sql.ExplainStmt, params []types.Datum) (*Result, error) {
	p := s.planner(params)
	p.Fold = true
	pl, err := p.Plan(x.Target, s.engine.cluster.Config().GDD)
	if err != nil {
		return nil, err
	}
	if x.Analyze {
		return s.explainAnalyze(ctx, pl)
	}
	return planResult(plan.ExplainPlan(pl.Root, pl.Costs, nil)), nil
}

// planResult is a rendered plan as an EXPLAIN result, one row per line.
func planResult(text string) *Result {
	res := &Result{Columns: []string{"QUERY PLAN"}, Tag: "EXPLAIN"}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewText(line)})
	}
	return res
}

// runPlanned executes a bound SELECT, INSERT, UPDATE or DELETE: the
// coordinator lock (with the GPDB 5 FOR UPDATE serialization upgrade), the
// per-statement CPU charge, and one cluster dispatch under a fresh
// snapshot. The plain path and EXPLAIN ANALYZE both go through here, so the
// measured execution is exactly the real one. res holds the collectors the
// caller armed (nil: none); the resource-group hooks and the trace join them
// here, in the instance's holder when the caller armed none. It returns a
// SELECT's rows, the count of rows returned or written, and the time the
// dispatch took.
func (s *Session) runPlanned(ctx context.Context, in *instance, res *cluster.QueryResources) ([]types.Row, int, time.Duration, error) {
	cl, pl := s.engine.cluster, &in.Planned
	mode := pl.LockMode
	if pl.ForUpdate && !cl.Config().GDD {
		// GPDB 5 locking: FOR UPDATE serializes at the coordinator.
		mode = lockmgr.Exclusive
	}
	if in.lockTab != nil {
		if err := cl.LockCoordinatorTable(ctx, s.txn, in.lockTab, mode); err != nil {
			return nil, 0, 0, wrapLockErr(err)
		}
	}
	rg, ob := s.useRG && s.slot != nil, s.cur
	traced := ob != nil && ob.trace != nil
	if res == nil && (rg || traced) {
		in.res = cluster.QueryResources{}
		res = &in.res
	}
	if rg {
		// The statement pays its CPU quantum and runs under the slot's
		// memory accounting, with an operator-memory budget of slot quota ×
		// memory_spill_ratio, where a SET memory_spill_ratio overrides the
		// group's MEMORY_SPILL_RATIO, which overrides
		// Config.MemorySpillRatio; 0 = spilling disabled.
		if s.stmtCPU > 0 {
			if err := s.slot.ChargeCPU(ctx, s.stmtCPU); err != nil {
				return nil, 0, 0, err
			}
		}
		res.Mem = s.slot
		if g, ok := cl.Groups().Group(s.role.ResourceGroup); ok {
			res.SpillBudget = g.SpillBudget(s.settings.spillRatio, cl.Config().MemorySpillRatio)
		}
	}
	var execSp obs.ActiveSpan
	if traced {
		res.Trace = ob.trace
		execSp = ob.trace.Begin(ob.root.ID(), "execute", -1)
		res.ExecSpan = execSp.ID()
	}
	start := time.Now()
	snap := cl.SnapshotInto(&s.snap)
	rows, n, err := in.portal.Run(ctx, s.txn, snap, res)
	cl.ReleaseSnapshot(snap)
	elapsed := time.Since(start)
	if res != nil && res.Ops != nil && res.Trace != nil {
		recordOpSpans(res.Trace, res.ExecSpan, in.Root, res.Ops, start)
	}
	in.res = cluster.QueryResources{} // its collectors are the statement's
	execSp.End()
	if err != nil {
		return nil, 0, 0, wrapLockErr(err)
	}
	return rows, n, elapsed, nil
}

// recordOpSpans synthesizes per-operator spans from the executor statistics:
// one span per (plan node, active location) carrying the operator's
// inclusive wall time, parented under the coordinator's execute span.
func recordOpSpans(tr *obs.Trace, parent obs.SpanID, root plan.Node, ops *plan.OpStats, start time.Time) {
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		for seg := -1; ops.At(n, seg) != nil; seg++ {
			if c := ops.At(n, seg); c.Ran() {
				tr.Record(parent, n.Explain(), seg, start, time.Duration(c.WallNanos.Load()))
			}
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(root)
}

// explainAnalyze executes the planned statement for real — a write
// included (PostgreSQL semantics: the rows are written; wrap in
// BEGIN/ROLLBACK to measure without keeping the effects) — and renders the
// operator-level statistics: per-node rows/batches/inclusive wall time, peak
// operator memory, spill bytes, skew ratio, and per-segment detail lines,
// plus the statement-level counters — the zone-map pushdown's blocks
// scanned/skipped, spill activity, the rows returned or affected and the
// elapsed time.
func (s *Session) explainAnalyze(ctx context.Context, pl *plan.Planned) (*Result, error) {
	in, err := s.newInstance(pl)
	if err != nil {
		return nil, err
	}
	var scan cluster.ScanCounters
	var spill cluster.SpillCounters
	res := &cluster.QueryResources{Scan: &scan, Spill: &spill, Ops: plan.NewOpStats(pl.Root, s.engine.cluster.SegCount(), true)}
	_, n, elapsed, err := s.runPlanned(ctx, in, res)
	if err != nil {
		return nil, err
	}
	// Fold into the statement's gp_stat_queries record so the retained query
	// and the EXPLAIN ANALYZE totals match.
	if ob := s.cur; ob != nil {
		ob.scan, ob.spill = scan, spill
		ob.setRows(int64(n))
	}
	rows := fmt.Sprintf("rows: %d", n)
	switch pl.Root.(type) {
	case *plan.InsertPlan, *plan.UpdatePlan, *plan.DeletePlan:
		rows = fmt.Sprintf("rows affected: %d", n)
	}
	out := planResult(plan.ExplainPlan(pl.Root, pl.Costs, res.Ops))
	out.Rows = append(out.Rows,
		types.Row{types.NewText(fmt.Sprintf("blocks: scanned=%d skipped=%d",
			scan.BlocksScanned, scan.BlocksSkipped))},
		types.Row{types.NewText(fmt.Sprintf("spill: spills=%d bytes=%d files=%d",
			spill.Spills, spill.SpillBytes, spill.SpillFiles))},
		types.Row{types.NewText(rows)},
		types.Row{types.NewText(fmt.Sprintf("execution time: %.3f ms", float64(elapsed.Microseconds())/1000))},
	)
	return out, nil
}

func columnNames(s *types.Schema) []string {
	if s == nil {
		return nil
	}
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// wrapLockErr annotates deadlock-victim errors with the PostgreSQL-style
// message users grep for.
func wrapLockErr(err error) error {
	if errors.Is(err, lockmgr.ErrDeadlockVictim) {
		return fmt.Errorf("deadlock detected: %w", err)
	}
	return err
}
