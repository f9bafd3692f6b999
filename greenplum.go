// Package greenplum is a from-scratch Go reproduction of the system
// described in "Greenplum: A Hybrid Database for Transactional and
// Analytical Workloads" (SIGMOD 2021): an MPP database — coordinator plus N
// segments — augmented with the paper's three HTAP mechanisms:
//
//   - a Global Deadlock Detector (GDD) that downgrades DML table locks from
//     Exclusive to RowExclusive and detects cross-segment waits with a
//     greedy edge-reduction algorithm;
//   - a one-phase commit fast path for transactions that write exactly one
//     segment;
//   - resource groups isolating CPU (shares or dedicated cores) and memory
//     (three-layer Vmemtracker) between transactional and analytical
//     workloads.
//
// The whole stack — SQL parser, distributed planner with Motion nodes, MVCC
// storage engines (heap, AO-row, AO-column with compression), distributed
// snapshots, 2PC/1PC, interconnect and the GDD daemon — is implemented in
// this module with no dependencies beyond the standard library.
//
// Quick start:
//
//	db, _ := greenplum.Open(greenplum.Options{Segments: 4})
//	defer db.Close()
//	conn, _ := db.Connect("")
//	conn.Exec(ctx, `CREATE TABLE t (a int, b text) DISTRIBUTED BY (a)`)
//	conn.Exec(ctx, `INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
//	res, _ := conn.Query(ctx, `SELECT * FROM t ORDER BY a`)
//	for _, row := range res.Rows { fmt.Println(row) }
package greenplum

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/types"
)

// Datum is a single SQL value.
type Datum = types.Datum

// Row is a result tuple.
type Row = types.Row

// Value constructors re-exported for parameter binding.
var (
	// Int builds an integer datum.
	Int = types.NewInt
	// Float builds a float datum.
	Float = types.NewFloat
	// Text builds a text datum.
	Text = types.NewText
	// Bool builds a boolean datum.
	Bool = types.NewBool
	// Null is the SQL NULL.
	Null = types.Null
)

// Mode selects a feature preset.
type Mode int

// Presets.
const (
	// ModeGPDB6 enables the paper's HTAP features: global deadlock
	// detection, one-phase commit, direct dispatch.
	ModeGPDB6 Mode = iota
	// ModeGPDB5 is the baseline: Exclusive table locks for UPDATE/DELETE,
	// two-phase commit always, whole-gang dispatch.
	ModeGPDB5
)

// Options configures a database instance.
type Options struct {
	// Segments is the worker count (default 4).
	Segments int
	// Mode picks the GPDB5/GPDB6 preset (default GPDB6).
	Mode Mode
	// GDDPeriod overrides the deadlock detector period (default 20ms).
	GDDPeriod time.Duration
	// Cores sizes the simulated machine for resource groups (default 32).
	Cores int
	// MemoryBytes sizes cluster memory for resource groups (default 8 GiB).
	MemoryBytes int64
	// Replica selects mirror replication: "" or "none" (no mirrors),
	// "async" (mirrors trail the WAL stream), or "sync" (every commit
	// flush waits for the mirror's apply). With mirrors on, the FTS daemon
	// probes primaries and promotes mirrors of dead ones automatically.
	Replica string
}

// DB is one running database instance.
type DB struct {
	engine *core.Engine
}

// Open boots a database.
func Open(opts Options) (*DB, error) {
	nseg := opts.Segments
	if nseg <= 0 {
		nseg = 4
	}
	var cfg *cluster.Config
	if opts.Mode == ModeGPDB5 {
		cfg = cluster.GPDB5(nseg)
	} else {
		cfg = cluster.GPDB6(nseg)
	}
	if opts.GDDPeriod > 0 {
		cfg.GDDPeriod = opts.GDDPeriod
	}
	if opts.Cores > 0 {
		cfg.Cores = opts.Cores
	}
	if opts.MemoryBytes > 0 {
		cfg.MemoryBytes = opts.MemoryBytes
	}
	if opts.Replica != "" {
		mode, ok := cluster.ParseReplicaMode(opts.Replica)
		if !ok {
			return nil, fmt.Errorf("greenplum: unknown replica mode %q (want none, async or sync)", opts.Replica)
		}
		cfg.ReplicaMode = mode
	}
	return &DB{engine: core.NewEngine(cfg)}, nil
}

// AllSegments arms a FaultSpec on every segment (and the coordinator).
const AllSegments = fault.AllSegments

// FaultSpec arms one named fault point — the Go-API equivalent of the FAULT
// INJECT statement. Seg 0 targets segment 0; use AllSegments (-1) to cover
// the whole cluster.
type FaultSpec struct {
	// Point names the fault point (catalog in docs/FAULTS.md).
	Point string
	// Seg targets one segment id, or AllSegments.
	Seg int
	// Action is error, panic, sleep, hang, torn-write or skip ("" = error).
	Action string
	// Message overrides the injected error text.
	Message string
	// Sleep is the pause for the sleep action.
	Sleep time.Duration
	// Start is the first matching hit (1-based) that may trigger; 0 = 1.
	Start int
	// Count caps how many hits trigger; 0 = unlimited.
	Count int
	// Probability is the percent chance (1..99) an eligible hit triggers;
	// 0 or 100 = always.
	Probability int
	// Seed makes probabilistic schedules replay deterministically.
	Seed int64
}

// InjectFault arms a fault point.
func (db *DB) InjectFault(spec FaultSpec) error {
	name := strings.ToLower(spec.Action)
	if name == "" {
		name = "error"
	}
	act, ok := fault.ParseAction(name)
	if !ok {
		return fmt.Errorf("greenplum: unknown fault action %q", spec.Action)
	}
	return db.engine.Cluster().InjectFault(fault.Spec{
		Point:       spec.Point,
		Seg:         spec.Seg,
		Action:      act,
		Message:     spec.Message,
		Sleep:       spec.Sleep,
		Start:       spec.Start,
		Count:       spec.Count,
		Probability: spec.Probability,
		Seed:        spec.Seed,
	})
}

// ResetFaults disarms the named fault point ("" = every point), waking any
// goroutine hung on it, and returns how many armed specs were removed.
func (db *DB) ResetFaults(point string) int {
	return db.engine.Cluster().ResetFault(point)
}

// ResumeFault wakes goroutines hung at the named point without disarming it.
func (db *DB) ResumeFault(point string) int {
	return db.engine.Cluster().ResumeFault(point)
}

// FaultPointStatus describes one armed fault spec.
type FaultPointStatus struct {
	Point     string
	Seg       int
	Action    string
	Hits      int64
	Triggers  int64
	Exhausted bool
}

// FaultStatus lists every armed fault spec.
func (db *DB) FaultStatus() []FaultPointStatus {
	sts := db.engine.Cluster().FaultStatus()
	out := make([]FaultPointStatus, len(sts))
	for i, st := range sts {
		out[i] = FaultPointStatus{
			Point:     st.Point,
			Seg:       st.Seg,
			Action:    st.Action.String(),
			Hits:      st.Hits,
			Triggers:  st.Triggers,
			Exhausted: st.Exhausted,
		}
	}
	return out
}

// KillSegment simulates losing segment seg's primary host: dispatch to it
// starts failing and — when replication is on — the FTS daemon promotes its
// mirror. The chaos/test hook behind the failover scenarios.
func (db *DB) KillSegment(seg int) error {
	return db.engine.Cluster().KillSegment(seg)
}

// Recover restores segment seg: promotes its mirror if the primary is dead,
// revives a mirrorless dead primary from its own WAL, or rebuilds a missing
// mirror by full resync (gprecoverseg).
func (db *DB) Recover(seg int) error {
	return db.engine.Cluster().Recover(seg)
}

// SegmentStates reports each segment's health as the FTS daemon sees it
// (empty when replication is off).
func (db *DB) SegmentStates() []string {
	d := db.engine.Cluster().FTS()
	if d == nil {
		return nil
	}
	states := d.States()
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.String()
	}
	return out
}

// ExpandProgress mirrors cluster.ExpandProgress for facade callers.
type ExpandProgress = cluster.ExpandProgress

// AddSegments grows the cluster by n segments (with mirrors when replication
// is on) and starts the online rebalance in the background; it returns the
// new segment count. The gpexpand entry point.
func (db *DB) AddSegments(n int) (int, error) {
	return db.engine.Cluster().AddSegments(n)
}

// ExpandTo grows the cluster to exactly target segments and starts the
// online rebalance (ALTER SYSTEM EXPAND TO target).
func (db *DB) ExpandTo(target int) error {
	return db.engine.Cluster().StartExpand(target)
}

// WaitExpand blocks until the current expansion (if any) finishes and
// returns its terminal error.
func (db *DB) WaitExpand(ctx context.Context) error {
	return db.engine.Cluster().WaitExpand(ctx)
}

// ExpandStatus reports the most recent expansion run's progress (what SHOW
// expand_status renders).
func (db *DB) ExpandStatus() ExpandProgress {
	return db.engine.Cluster().ExpandStatus()
}

// Close shuts the instance down.
func (db *DB) Close() { db.engine.Close() }

// Engine exposes the internal engine for benchmarks inside this module.
func (db *DB) Engine() *core.Engine { return db.engine }

// MetricValue reads one observability-registry series by its dotted name
// (e.g. "txn.commits_1pc", "storage.blockcache.hits"); missing names read 0.
// Every engine counter is a series catalogued in docs/OBSERVABILITY.md; the
// SHOW views and the HTTP /metrics endpoint read the same registry.
func (db *DB) MetricValue(name string) int64 {
	v, _ := db.engine.Metrics().Value(name)
	return v
}

// WriteMetrics writes a Prometheus text-format snapshot of the registry —
// what the server's /metrics endpoint serves — to w.
func (db *DB) WriteMetrics(w io.Writer) error {
	return db.engine.Metrics().WritePrometheus(w)
}

// Connect opens a session for a role ("" = the gpadmin superuser).
func (db *DB) Connect(role string) (*Conn, error) {
	s, err := db.engine.NewSession(role)
	if err != nil {
		return nil, err
	}
	return &Conn{sess: s}, nil
}

// Result is the outcome of one statement.
type Result = core.Result

// Conn is one client session; not safe for concurrent use.
type Conn struct {
	sess *core.Session
}

// Exec runs any single SQL statement.
func (c *Conn) Exec(ctx context.Context, sql string, args ...Datum) (*Result, error) {
	return c.sess.Exec(ctx, sql, args...)
}

// Query is Exec for statements expected to return rows.
func (c *Conn) Query(ctx context.Context, sql string, args ...Datum) (*Result, error) {
	return c.Exec(ctx, sql, args...)
}

// QueryScalar runs a query expected to return exactly one value.
func (c *Conn) QueryScalar(ctx context.Context, sql string, args ...Datum) (Datum, error) {
	res, err := c.Exec(ctx, sql, args...)
	if err != nil {
		return Null, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return Null, fmt.Errorf("greenplum: expected one scalar, got %d rows", len(res.Rows))
	}
	return res.Rows[0][0], nil
}

// ExecScript runs a semicolon-separated script.
func (c *Conn) ExecScript(ctx context.Context, script string) error {
	return c.sess.ExecScript(ctx, script)
}

// Begin starts an explicit transaction block.
func (c *Conn) Begin(ctx context.Context) error {
	_, err := c.Exec(ctx, "BEGIN")
	return err
}

// Commit ends the current transaction block.
func (c *Conn) Commit(ctx context.Context) error {
	_, err := c.Exec(ctx, "COMMIT")
	return err
}

// Rollback aborts the current transaction block.
func (c *Conn) Rollback(ctx context.Context) error {
	_, err := c.Exec(ctx, "ROLLBACK")
	return err
}

// SetOptimizer chooses the planner: "postgres" (OLTP) or "orca" (OLAP).
func (c *Conn) SetOptimizer(name string) error { return c.sess.SetOptimizer(name) }

// UseResourceGroup enables resource-group enforcement for this session with
// the given simulated per-statement CPU cost.
func (c *Conn) UseResourceGroup(enabled bool, stmtCPU time.Duration) {
	c.sess.UseResourceGroup(enabled, stmtCPU)
}

// Session exposes the internal session (benchmarks inside this module).
func (c *Conn) Session() *core.Session { return c.sess }
