package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// QueryRecord is one finished statement as retained by the gp_stat_queries
// history ring and the slow-query log. Totals (rows, blocks, spill) are the
// same counters EXPLAIN ANALYZE reports, folded once at statement end.
type QueryRecord struct {
	QueryID       uint64
	Session       uint64
	SQL           string
	Start         time.Time
	Dur           time.Duration
	Rows          int64 // rows returned (SELECT) or affected (DML)
	BlocksScanned int64
	BlocksSkipped int64
	SpillBytes    int64
	Err           string
	Slow          bool // crossed the session's log_min_duration threshold
}

// SessionInfo is one live session's entry in gp_stat_activity. The session
// goroutine is the only writer; readers copy under the mutex.
type SessionInfo struct {
	ID   uint64
	Role string

	mu         sync.Mutex
	state      string // "idle" or "active"
	query      string
	queryStart time.Time
	stmts      int64
}

// StartQuery marks the session active on the given statement, started at at.
func (s *SessionInfo) StartQuery(sql string, at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.state = "active"
	s.query = sql
	s.queryStart = at
	s.stmts++
	s.mu.Unlock()
}

// EndQuery marks the session idle again.
func (s *SessionInfo) EndQuery() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.state = "idle"
	s.mu.Unlock()
}

// SessionSnapshot is a copy of one live session for gp_stat_activity.
type SessionSnapshot struct {
	ID         uint64
	Role       string
	State      string
	Query      string
	QueryStart time.Time
	Statements int64
}

// Activity tracks live sessions, the finished-query history ring, the
// slow-query log, and the trace store. One Activity serves the whole engine;
// the per-statement cost with tracing off is a handful of atomic ops and one
// short-lock ring append.
type Activity struct {
	qseq atomic.Uint64
	sseq atomic.Uint64

	mu       sync.Mutex
	sessions map[uint64]*SessionInfo
	history  []QueryRecord // ring
	hNext    int
	hTotal   int64
	slow     []QueryRecord // ring
	sNext    int

	traces *TraceStore
}

// NewActivity returns an activity tracker retaining up to histCap finished
// queries, slowCap slow queries, and traceCap traces.
func NewActivity(histCap, slowCap, traceCap int) *Activity {
	if histCap <= 0 {
		histCap = 256
	}
	if slowCap <= 0 {
		slowCap = 128
	}
	return &Activity{
		sessions: make(map[uint64]*SessionInfo),
		history:  make([]QueryRecord, histCap),
		slow:     make([]QueryRecord, slowCap),
		traces:   NewTraceStore(traceCap),
	}
}

// NextQueryID allocates a cluster-unique query id.
func (a *Activity) NextQueryID() uint64 {
	if a == nil {
		return 0
	}
	return a.qseq.Add(1)
}

// Register adds a live session and returns its entry.
func (a *Activity) Register(role string) *SessionInfo {
	if a == nil {
		return nil
	}
	si := &SessionInfo{ID: a.sseq.Add(1), Role: role, state: "idle"}
	a.mu.Lock()
	a.sessions[si.ID] = si
	a.mu.Unlock()
	return si
}

// Unregister removes a session (idempotent).
func (a *Activity) Unregister(si *SessionInfo) {
	if a == nil || si == nil {
		return
	}
	a.mu.Lock()
	delete(a.sessions, si.ID)
	a.mu.Unlock()
}

// Sessions snapshots every live session, ordered by id.
func (a *Activity) Sessions() []SessionSnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	infos := make([]*SessionInfo, 0, len(a.sessions))
	for _, si := range a.sessions {
		infos = append(infos, si)
	}
	a.mu.Unlock()
	out := make([]SessionSnapshot, 0, len(infos))
	for _, si := range infos {
		si.mu.Lock()
		out = append(out, SessionSnapshot{
			ID: si.ID, Role: si.Role, State: si.state,
			Query: si.query, QueryStart: si.queryStart, Statements: si.stmts,
		})
		si.mu.Unlock()
	}
	sortSnapshots(out)
	return out
}

func sortSnapshots(s []SessionSnapshot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Record retains one finished statement in the history ring (and the slow
// log when rec.Slow).
func (a *Activity) Record(rec QueryRecord) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.history[a.hNext] = rec
	a.hNext = (a.hNext + 1) % len(a.history)
	a.hTotal++
	if rec.Slow {
		a.slow[a.sNext] = rec
		a.sNext = (a.sNext + 1) % len(a.slow)
	}
	a.mu.Unlock()
}

// History returns up to n retained finished queries, newest first.
func (a *Activity) History(n int) []QueryRecord {
	return ringCopy(a, func() ([]QueryRecord, int) { return a.history, a.hNext }, n)
}

// SlowQueries returns up to n retained slow queries, newest first.
func (a *Activity) SlowQueries(n int) []QueryRecord {
	return ringCopy(a, func() ([]QueryRecord, int) { return a.slow, a.sNext }, n)
}

func ringCopy(a *Activity, get func() ([]QueryRecord, int), n int) []QueryRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ring, next := get()
	if n <= 0 || n > len(ring) {
		n = len(ring)
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= len(ring) && len(out) < n; i++ {
		r := ring[(next-i+len(ring))%len(ring)]
		if r.QueryID != 0 {
			out = append(out, r)
		}
	}
	return out
}

// Recorded reports the all-time count of recorded queries (used by chaos
// tests to prove exactly-once recording across failover and expansion).
func (a *Activity) Recorded() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hTotal
}

// Traces returns the engine's trace store.
func (a *Activity) Traces() *TraceStore {
	if a == nil {
		return nil
	}
	return a.traces
}
