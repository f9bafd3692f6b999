package core

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
)

// StmtCache is the engine-wide shared parse/plan cache. Every session —
// embedded and network alike — resolves statement text through here before
// touching the lexer: the parsed AST is cached under the normalized SQL text
// in a bounded LRU and shared read-only by all sessions (the binder never
// mutates it). Beside the AST sit the statement's SELECT, INSERT, UPDATE or
// DELETE plans, keyed by the cluster's catalog/stats epoch, the session's
// plan-shaping settings and the kinds of the bound parameters, so DDL,
// ANALYZE, a SET optimizer or an int parameter arriving as text each re-plan
// without an invalidation hook. A cached plan holds no parameter value: the
// binder leaves a slot per $N (plan.Param), each session lowers the shared
// plan once into an instance of its own (plan.Planned.Lower, see instance),
// and each execution binds its values into that instance with
// plan.Instance.Bind, where the value-dependent steps (direct dispatch,
// partition pruning, zone-map pushdown, LIMIT) run. The exception is a
// parameterised statement under the cost-based optimizer (orca): its join
// order and motions come from the values, so it is planned per execution.
type StmtCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List               // of *stmtEntry; front = most recent
	entries map[string]*list.Element // normalized SQL → element

	hits       atomic.Int64 // parse-level lookups answered from cache
	misses     atomic.Int64 // parse-level lookups that ran the parser
	planHits   atomic.Int64 // plan-level lookups answered from cache
	planMisses atomic.Int64 // plan-level lookups that ran the planner
	evictions  atomic.Int64
}

// stmtEntry is one cached statement: the shared parsed AST, its String()
// form (the misestimate/plan key, computed once), and any cached plans.
type stmtEntry struct {
	key  string
	stmt sql.Statement
	str  string

	planMu sync.Mutex
	plans  map[planKey]*plan.Planned
}

// planSettings are the session settings that change plan shape. Sessions
// with equal settings share plans.
type planSettings struct {
	optimizer plan.Optimizer
}

// costBased reports whether the cost-based passes plan this session's
// statements (plan.Planner's own rule: they are orca's).
func (ps planSettings) costBased() bool {
	return ps.optimizer == plan.OptimizerOLAP
}

// planKey identifies one cached plan of a statement. robust keeps a
// misestimated statement's optimistic plan from being served after the
// fallback engaged; kinds packs the parameter kinds (see paramKinds), which
// every bind-time decision such as an implicit cast depends on.
type planKey struct {
	epoch uint64
	planSettings
	robust bool
	kinds  uint64
}

// paramKinds packs the parameters' kinds four bits each ($1 lowest, 0 =
// absent). ok is false past 16 parameters: such a statement is planned per
// execution.
func paramKinds(params []types.Datum) (kinds uint64, ok bool) {
	if len(params) > 16 {
		return 0, false
	}
	for i, v := range params {
		kinds |= uint64(v.Kind()+1) << (4 * i)
	}
	return kinds, true
}

// NewStmtCache builds a cache bounded to capacity statements.
func NewStmtCache(capacity int) *StmtCache {
	return &StmtCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// StmtCacheStats is a counter snapshot.
type StmtCacheStats struct {
	// Hits/Misses are parse-level: a hit skipped the lexer+parser.
	Hits, Misses int64
	// PlanHits/PlanMisses are plan-level, counting every SELECT, INSERT,
	// UPDATE and DELETE lookup, parameterised or not: a hit skipped the
	// planner.
	PlanHits, PlanMisses int64
	Evictions            int64
	Entries              int
}

// Stats snapshots the counters.
func (c *StmtCache) Stats() StmtCacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return StmtCacheStats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		PlanHits:   c.planHits.Load(),
		PlanMisses: c.planMisses.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    n,
	}
}

// parse returns the shared parsed statement for sqlText, running the
// parser and inserting on miss. The returned entry is nil when the text
// failed to parse, and for an INSERT … VALUES with no '$' in its text, so no
// $N parameter: its text is its data (a bulk load's statements would pin
// their ASTs in the cache) and it is planned on every execution anyway.
func (c *StmtCache) parse(sqlText string) (sql.Statement, *stmtEntry, error) {
	key := normalizeSQL(sqlText)
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*stmtEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		return e.stmt, e, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	st, err := sql.Parse(sqlText)
	if err != nil {
		return nil, nil, err
	}
	if ins, ok := st.(*sql.InsertStmt); ok && ins.Rows != nil && !strings.Contains(key, "$") {
		return st, nil, nil
	}
	e := &stmtEntry{key: key, stmt: st, str: st.String()}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Raced another session parsing the same text; keep the first.
		c.lru.MoveToFront(el)
		e = el.Value.(*stmtEntry)
	} else {
		c.entries[key] = c.lru.PushFront(e)
		for len(c.entries) > c.cap {
			back := c.lru.Back()
			c.lru.Remove(back)
			delete(c.entries, back.Value.(*stmtEntry).key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	return e.stmt, e, nil
}

// lookupPlan returns the cached plan for key, or nil.
func (e *stmtEntry) lookupPlan(c *StmtCache, key planKey) *plan.Planned {
	e.planMu.Lock()
	pl := e.plans[key]
	e.planMu.Unlock()
	if pl != nil {
		c.planHits.Add(1)
	} else {
		c.planMisses.Add(1)
	}
	return pl
}

// storePlan caches a freshly built plan, dropping plans from other epochs
// (they can never be looked up again — their epoch is gone for good).
func (e *stmtEntry) storePlan(key planKey, pl *plan.Planned) {
	e.planMu.Lock()
	if e.plans == nil {
		e.plans = make(map[planKey]*plan.Planned)
	}
	for k := range e.plans {
		if k.epoch != key.epoch {
			delete(e.plans, k)
		}
	}
	e.plans[key] = pl
	e.planMu.Unlock()
}

// normalizeSQL canonicalizes statement text for cache keying: whitespace
// runs collapse to one space, everything outside single-quoted strings is
// case-folded (this engine's identifiers are case-insensitive), and
// trailing semicolons/space are trimmed. Literals keep their exact bytes, so
// two statements differing only in a quoted value stay distinct keys.
func normalizeSQL(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	inStr := false
	lastSpace := true // leading whitespace collapses into nothing
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if inStr {
			b.WriteByte(ch)
			if ch == '\'' {
				inStr = false
			}
			continue
		}
		switch {
		case ch == '\'':
			inStr = true
			b.WriteByte(ch)
			lastSpace = false
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		default:
			if ch >= 'A' && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			b.WriteByte(ch)
			lastSpace = false
		}
	}
	return strings.TrimRight(b.String(), "; ")
}
