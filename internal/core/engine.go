// Package core ties the whole system together: an Engine owns a cluster
// (coordinator + segments), and Sessions drive the SQL pipeline — parse,
// plan (with the OLTP/OLAP optimizer choice), coordinator locking, dispatch,
// execution, and transaction control with one-phase/two-phase commit.
package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// Engine is one running database instance.
type Engine struct {
	cluster *cluster.Cluster
	// stmts is the engine-wide shared parse/plan cache: every session's
	// Exec resolves statement text through it.
	stmts *StmtCache
	// activity tracks live sessions (gp_stat_activity), the finished-query
	// history (gp_stat_queries), the slow-query log, and retained traces.
	activity *obs.Activity

	qStatements *obs.Counter   // query.statements
	qErrors     *obs.Counter   // query.errors
	qSeconds    *obs.Histogram // query.seconds
}

// NewEngine boots an engine over the given cluster configuration.
func NewEngine(cfg *cluster.Config) *Engine {
	c := cluster.New(cfg)
	r := c.Metrics()
	e := &Engine{
		cluster:  c,
		stmts:    newStmtCache(c.Config().PlanCacheSize, r),
		activity: obs.NewActivity(256, 128, 64),
	}
	e.qStatements = r.Counter("query.statements")
	e.qErrors = r.Counter("query.errors")
	e.qSeconds = r.Histogram("query.seconds")
	// The cache counts its lookups into registry counters; only its
	// occupancy and the plan epoch are read at scrape time.
	r.Collect(func(emit obs.Emit) {
		emit("plancache.entries", int64(e.stmts.size()))
		emit("plancache.epoch", int64(c.PlanEpoch()))
	})
	return e
}

// Activity exposes the engine's session/query tracker.
func (e *Engine) Activity() *obs.Activity { return e.activity }

// Metrics exposes the engine-wide observability registry (owned by the
// cluster; the engine adds its query and plan-cache series to it).
func (e *Engine) Metrics() *obs.Registry { return e.cluster.Metrics() }

// Close shuts down background daemons.
func (e *Engine) Close() { e.cluster.Close() }

// Cluster exposes the underlying cluster for tests and benchmarks.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (SELECT/EXPLAIN only).
	Columns []string
	// Rows holds result tuples (SELECT/EXPLAIN only).
	Rows []types.Row
	// RowsAffected counts tuples written by DML.
	RowsAffected int
	// Tag is the command tag, e.g. "SELECT", "INSERT", "COMMIT".
	Tag string
}

// applyCreateTable converts the AST to a catalog table and instantiates it.
func (e *Engine) applyCreateTable(st *sql.CreateTableStmt) error {
	if st.IfNotExists && e.cluster.Catalog().HasTable(st.Name) {
		return nil
	}
	cols := make([]types.Column, len(st.Columns))
	for i, c := range st.Columns {
		cols[i] = types.Column{Name: strings.ToLower(c.Name), Kind: c.Kind}
	}
	t := &catalog.Table{
		Name:         strings.ToLower(st.Name),
		Schema:       &types.Schema{Columns: cols},
		Storage:      catalog.Storage(st.Storage),
		PartitionCol: -1,
	}
	switch st.Distribution {
	case sql.DistributeHash:
		t.Distribution = catalog.DistHash
		if len(st.DistKeys) == 0 {
			return fmt.Errorf("core: DISTRIBUTED BY requires key columns")
		}
		for _, k := range st.DistKeys {
			i := t.Schema.ColumnIndex(k)
			if i < 0 {
				return fmt.Errorf("core: distribution key %q is not a column", k)
			}
			t.DistKeyCols = append(t.DistKeyCols, i)
		}
	case sql.DistributeRandomly:
		t.Distribution = catalog.DistRandom
	case sql.DistributeReplicated:
		t.Distribution = catalog.DistReplicated
	}
	if st.PartitionBy != "" {
		i := t.Schema.ColumnIndex(st.PartitionBy)
		if i < 0 {
			return fmt.Errorf("core: partition key %q is not a column", st.PartitionBy)
		}
		t.PartitionCol = i
		kind := t.Schema.Columns[i].Kind
		for _, pd := range st.Partitions {
			start, err := pd.Start.CastTo(kind)
			if err != nil {
				return fmt.Errorf("core: partition %q start: %w", pd.Name, err)
			}
			end, err := pd.End.CastTo(kind)
			if err != nil {
				return fmt.Errorf("core: partition %q end: %w", pd.Name, err)
			}
			if types.Compare(start, end) >= 0 {
				return fmt.Errorf("core: partition %q has empty range", pd.Name)
			}
			t.Partitions = append(t.Partitions, catalog.Partition{
				Name:    strings.ToLower(pd.Name),
				Start:   start,
				End:     end,
				Storage: catalog.Storage(pd.Storage),
			})
		}
		if len(t.Partitions) == 0 {
			return fmt.Errorf("core: PARTITION BY requires at least one partition")
		}
	}
	return e.cluster.ApplyCreateTable(t)
}

// applyResourceGroup converts CREATE RESOURCE GROUP options.
func (e *Engine) applyResourceGroup(st *sql.CreateResourceGroupStmt) error {
	def := &catalog.ResourceGroupDef{Name: strings.ToLower(st.Name), Concurrency: 20, MemSharedQuota: 20}
	for _, opt := range st.Options {
		switch opt.Name {
		case "CONCURRENCY":
			def.Concurrency = atoiDefault(opt.Value, 20)
		case "CPU_RATE_LIMIT":
			def.CPURateLimit = atoiDefault(opt.Value, 20)
		case "CPUSET":
			def.CPUSet = opt.Value
		case "MEMORY_LIMIT":
			def.MemoryLimit = atoiDefault(opt.Value, 10)
		case "MEMORY_SHARED_QUOTA":
			def.MemSharedQuota = atoiDefault(opt.Value, 20)
		case "MEMORY_SPILL_RATIO":
			// Unlike the other knobs this one is validated strictly: a typo
			// silently defaulting would silently mis-size the spill budget
			// of every query in the group. 0 is rejected too — on a group
			// def 0 means "inherit the cluster default", so accepting it
			// would silently NOT disable spilling; disabling is a session
			// (SET memory_spill_ratio 0) or cluster (negative
			// Config.MemorySpillRatio) decision.
			v, err := strconv.Atoi(opt.Value)
			if err != nil || v < 1 || v > 100 {
				return fmt.Errorf("core: MEMORY_SPILL_RATIO must be an integer between 1 and 100 (got %q); to disable spilling use SET memory_spill_ratio 0", opt.Value)
			}
			def.MemSpillRatio = v
		default:
			return fmt.Errorf("core: unknown resource group option %q", opt.Name)
		}
	}
	return e.cluster.ApplyCreateResourceGroup(def)
}

func atoiDefault(s string, def int) int {
	n := 0
	neg := false
	for i, ch := range s {
		if i == 0 && ch == '-' {
			neg = true
			continue
		}
		if ch < '0' || ch > '9' {
			return def
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		n = -n
	}
	return n
}
