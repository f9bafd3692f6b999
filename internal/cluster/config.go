// Package cluster assembles the full Greenplum-style MPP database: a
// coordinator with distributed transaction management, planning and
// dispatch, plus N segments each running local storage, a transaction
// manager and a lock manager. The interconnect, commit protocols, global
// deadlock detector and resource groups all plug in here.
package cluster

import "time"

// Config selects cluster topology and HTAP features. The zero values of the
// feature flags describe Greenplum 5; the GPDB6 preset enables the paper's
// contributions.
type Config struct {
	// NumSegments is the number of worker segments (excluding the
	// coordinator).
	NumSegments int

	// GDD enables the global deadlock detector; with it on, UPDATE/DELETE
	// lock tables in RowExclusive instead of Exclusive mode (paper §4).
	GDD bool
	// GDDPeriod is the detector's polling period.
	GDDPeriod time.Duration

	// OnePhase enables the one-phase commit fast path (paper §5.2).
	OnePhase bool

	// DirectDispatch sends a statement whose distribution key is pinned —
	// DML and SELECT alike — only to the owning segment; without it every
	// statement is dispatched to the whole gang, each segment paying a
	// dispatch even if it touches no tuple.
	DirectDispatch bool

	// BlockCacheBytes is the capacity of each segment's LRU cache of decoded
	// AO-column blocks, charged against the resource-group global vmem pool
	// at boot. 0 = default (16 MiB); negative = no shared cache (each table
	// keeps a private unbounded decode cache).
	BlockCacheBytes int64

	// ReplicaMode gives every primary segment a mirror standby that applies
	// the shipped WAL stream. ReplicaSync makes each commit flush wait until
	// the mirror has applied (zero-lag failover); ReplicaAsync lets the
	// mirror trail and only promotion drains the backlog. ReplicaNone (the
	// default) runs without mirrors. Runtime sync↔async switching: SET
	// replica_mode.
	ReplicaMode ReplicaMode

	// FTSInterval is the fault-tolerance service's probe period (default
	// 25ms). The FTS daemon runs whenever ReplicaMode != ReplicaNone.
	FTSInterval time.Duration

	// FailoverTimeout bounds how long dispatch waits for a downed segment to
	// fail over to its mirror before erroring out (default 10s).
	FailoverTimeout time.Duration

	// BreakerThreshold is how many consecutive transient dispatch failures
	// open a segment's circuit breaker (default 8).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before letting
	// a half-open probe through (default 100ms).
	BreakerCooldown time.Duration

	// PlanCacheSize bounds the engine's shared LRU parse/plan cache in
	// statements (normalized SQL texts). Every session — embedded or
	// network — looks parsed statements up here before touching the lexer,
	// and param-free SELECT plans are cached alongside keyed by the
	// catalog/stats epoch plus the session's planner settings. 0 = default
	// (1024).
	PlanCacheSize int

	// MemorySpillRatio is the cluster-default memory_spill_ratio percentage:
	// a statement's blocking operators (sort, hash agg, hash join) may hold
	// slot-quota × ratio/100 bytes in memory before spilling to per-segment
	// temp files. A resource group's MEMORY_SPILL_RATIO and a session's SET
	// memory_spill_ratio override it. 0 = default (20); negative = spilling
	// disabled (operators grow until the Vmemtracker cancels the query).
	MemorySpillRatio int

	// Cores and MemoryBytes size the resource-group substrate.
	Cores       int
	MemoryBytes int64
}

// ReplicaMode selects the mirror-replication policy.
type ReplicaMode int

// Replication modes.
const (
	// ReplicaNone runs primaries without mirrors.
	ReplicaNone ReplicaMode = iota
	// ReplicaAsync ships the WAL stream to mirrors without waiting.
	ReplicaAsync
	// ReplicaSync makes every commit flush wait for the mirror's apply.
	ReplicaSync
)

func (m ReplicaMode) String() string {
	switch m {
	case ReplicaAsync:
		return "async"
	case ReplicaSync:
		return "sync"
	default:
		return "none"
	}
}

// ParseReplicaMode converts a mode name ("none", "async", "sync").
func ParseReplicaMode(s string) (ReplicaMode, bool) {
	switch s {
	case "none", "off", "":
		return ReplicaNone, true
	case "async":
		return ReplicaAsync, true
	case "sync":
		return ReplicaSync, true
	default:
		return ReplicaNone, false
	}
}

// GPDB6 returns the paper's HTAP configuration: GDD on, one-phase commit
// on, direct dispatch on.
func GPDB6(nseg int) *Config {
	return &Config{
		NumSegments:    nseg,
		GDD:            true,
		GDDPeriod:      20 * time.Millisecond,
		OnePhase:       true,
		DirectDispatch: true,
		Cores:          32,
		MemoryBytes:    8 << 30,
	}
}

// GPDB5 returns the baseline configuration: table-level Exclusive locks for
// UPDATE/DELETE (no GDD), always two-phase commit, no direct dispatch.
func GPDB5(nseg int) *Config {
	c := GPDB6(nseg)
	c.GDD = false
	c.OnePhase = false
	c.DirectDispatch = false
	return c
}

// withDefaults normalizes a user-supplied config.
func (c *Config) withDefaults() *Config {
	out := *c
	if out.NumSegments < 1 {
		out.NumSegments = 1
	}
	if out.BlockCacheBytes == 0 {
		out.BlockCacheBytes = 16 << 20
	}
	if out.PlanCacheSize < 1 {
		out.PlanCacheSize = 1024
	}
	if out.GDDPeriod <= 0 {
		out.GDDPeriod = 20 * time.Millisecond
	}
	if out.FTSInterval <= 0 {
		out.FTSInterval = 25 * time.Millisecond
	}
	if out.FailoverTimeout <= 0 {
		out.FailoverTimeout = 10 * time.Second
	}
	if out.MemorySpillRatio == 0 {
		out.MemorySpillRatio = 20
	} else if out.MemorySpillRatio < 0 {
		out.MemorySpillRatio = 0
	} else if out.MemorySpillRatio > 100 {
		out.MemorySpillRatio = 100
	}
	if out.Cores < 1 {
		out.Cores = 8
	}
	if out.MemoryBytes <= 0 {
		out.MemoryBytes = 1 << 30
	}
	return &out
}
