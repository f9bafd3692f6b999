package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sql"
	"repro/internal/types"
)

// statView declares one SHOW statistic view, once. A key/value view is data:
// its series are rendered label by label from one registry snapshot, so the
// view, /metrics and gp_stat_metrics cannot disagree. A row-shaped view
// builds its own rows. fault_stats is both: counters, then one text row per
// breaker.
type statView struct {
	// columns names the result columns; nil = {"stat", "value"}.
	columns []string
	// series are the integer rows, in display order.
	series []statSeries
	// rows builds the rows that follow the series rows.
	rows func(s *Session) []types.Row
}

// statSeries is one key/value row: the label SHOW prints and the registry
// series (docs/OBSERVABILITY.md) it reads.
type statSeries struct{ label, series string }

var queryCols = []string{"query_id", "session", "query", "rows", "blocks_scanned", "blocks_skipped", "spill_bytes", "duration_ms", "error"}

// viewTable is every statistic view SHOW accepts.
var viewTable = map[string]statView{
	"scan_stats": {series: []statSeries{
		{"blocks_scanned", "storage.scan.blocks_scanned"},
		{"blocks_skipped", "storage.scan.blocks_skipped"},
		{"cache_hits", "storage.blockcache.hits"},
		{"cache_misses", "storage.blockcache.misses"},
		{"cache_evictions", "storage.blockcache.evictions"},
		{"cache_used_bytes", "storage.blockcache.used_bytes"},
		{"cache_entries", "storage.blockcache.entries"},
	}},
	"spill_stats": {series: []statSeries{
		{"spills", "exec.spill.events"},
		{"spill_bytes", "exec.spill.bytes"},
		{"spill_files", "exec.spill.files"},
		{"spill_mem_peak", "exec.spill.mem_peak"},
		{"vmem_peak", "exec.vmem_peak"},
	}},
	"wal_stats": {series: []statSeries{
		{"wal_records", "wal.records"},
		{"wal_bytes", "wal.bytes"},
		{"wal_flushes", "wal.flushes"},
		{"mirror_applied_lsn", "wal.mirror_applied_lsn"},
		{"failovers", "fts.failovers"},
		{"replay_lsn", "wal.replay_lsn"},
	}},
	"optimizer_stats": {series: []statSeries{
		{"analyzed_tables", "optimizer.analyzed_tables"},
		{"misestimates", "optimizer.misestimates"},
		{"robust_fallbacks", "optimizer.robust_fallbacks"},
	}},
	"plan_cache": {series: []statSeries{
		{"hits", "plancache.hits"},
		{"misses", "plancache.misses"},
		{"plan_hits", "plancache.plan_hits"},
		{"plan_misses", "plancache.plan_misses"},
		{"entries", "plancache.entries"},
		{"evictions", "plancache.evictions"},
		{"epoch", "plancache.epoch"},
	}},
	"fault_stats": {series: []statSeries{
		{"armed_specs", "fault.armed"},
		{"point_hits", "fault.hits"},
		{"point_triggers", "fault.triggers"},
		{"dispatch_retries", "dispatch.retries"},
		{"breaker_opens", "fault.breaker_opens"},
		{"breaker_fast_fails", "fault.breaker_fast_fails"},
		{"wal_truncations", "wal.truncations"},
		{"wal_truncated_bytes", "wal.truncated_bytes"},
		{"spill_leaks", "exec.spill.leaks"},
	}, rows: func(s *Session) []types.Row {
		var out []types.Row
		for _, b := range s.engine.cluster.BreakerStatuses() {
			out = append(out, textRow(fmt.Sprintf("breaker_seg%d", b.Seg), b.State.String()))
		}
		return out
	}},
	"expand_status": {rows: func(s *Session) []types.Row {
		p := s.engine.cluster.ExpandStatus()
		state := "idle"
		switch {
		case p.Active:
			state = "expanding"
		case p.Err != "":
			state = "failed"
		case p.Done && p.Target > p.From:
			state = "complete"
		}
		out := []types.Row{
			textRow("state", state),
			textRow("segments_from", strconv.Itoa(p.From)),
			textRow("segments_target", strconv.Itoa(p.Target)),
			textRow("tables_done", fmt.Sprintf("%d/%d", p.TablesDone, p.TablesTotal)),
			textRow("moving", p.Moving),
			textRow("rows_moved", strconv.FormatInt(p.RowsMoved, 10)),
			textRow("restarts", strconv.FormatInt(p.Restarts, 10)),
		}
		if p.Err != "" {
			out = append(out, textRow("error", p.Err))
		}
		return out
	}},
	"gp_stat_activity": {columns: []string{"session", "role", "state", "query", "duration_ms", "statements"}, rows: func(s *Session) []types.Row {
		var out []types.Row
		for _, si := range s.engine.activity.Sessions() {
			durMS := int64(0)
			if si.State == "active" && !si.QueryStart.IsZero() {
				durMS = time.Since(si.QueryStart).Milliseconds()
			}
			out = append(out, types.Row{
				types.NewInt(int64(si.ID)),
				types.NewText(si.Role),
				types.NewText(si.State),
				types.NewText(si.Query),
				types.NewInt(durMS),
				types.NewInt(si.Statements),
			})
		}
		return out
	}},
	"gp_stat_queries": {columns: queryCols, rows: func(s *Session) []types.Row {
		return queryRows(s.engine.activity.History(0))
	}},
	"gp_slow_queries": {columns: queryCols, rows: func(s *Session) []types.Row {
		return queryRows(s.engine.activity.SlowQueries(0))
	}},
	"gp_stat_metrics": {columns: []string{"metric", "value"}, rows: func(s *Session) []types.Row {
		snap := s.engine.Metrics().Snapshot()
		var out []types.Row
		for _, n := range snap.Names() {
			if v, ok := snap.Values[n]; ok {
				out = append(out, types.Row{types.NewText(n), types.NewInt(v)})
				continue
			}
			h := snap.Hists[n]
			out = append(out,
				types.Row{types.NewText(n + ".count"), types.NewInt(h.Count)},
				types.Row{types.NewText(n + ".sum_ms"), types.NewInt(h.Sum.Milliseconds())})
		}
		return out
	}},
	"gp_stat_traces": {columns: []string{"query_id", "span"}, rows: func(s *Session) []types.Row {
		var out []types.Row
		for _, t := range s.engine.activity.Traces().Recent(0) {
			for _, line := range t.Render() {
				out = append(out, types.Row{types.NewInt(int64(t.QueryID)), types.NewText(line)})
			}
		}
		return out
	}},
}

func textRow(k, v string) types.Row { return types.Row{types.NewText(k), types.NewText(v)} }

// queryRows renders finished-query records (gp_stat_queries, gp_slow_queries).
func queryRows(recs []obs.QueryRecord) []types.Row {
	out := make([]types.Row, 0, len(recs))
	for _, r := range recs {
		out = append(out, types.Row{
			types.NewInt(int64(r.QueryID)),
			types.NewInt(int64(r.Session)),
			types.NewText(r.SQL),
			types.NewInt(r.Rows),
			types.NewInt(r.BlocksScanned),
			types.NewInt(r.BlocksSkipped),
			types.NewInt(r.SpillBytes),
			types.NewInt(r.Dur.Milliseconds()),
			types.NewText(r.Err),
		})
	}
	return out
}

// render answers SHOW <view>: the series rows from one snapshot, then the
// view's own rows.
func (v statView) render(s *Session) *Result {
	res := &Result{Columns: slices.Clone(v.columns), Tag: "SHOW"}
	if res.Columns == nil {
		res.Columns = []string{"stat", "value"}
	}
	if len(v.series) > 0 {
		snap := s.engine.Metrics().Snapshot()
		for _, kv := range v.series {
			res.Rows = append(res.Rows, types.Row{types.NewText(kv.label), types.NewInt(snap.Values[kv.series])})
		}
	}
	if v.rows != nil {
		res.Rows = append(res.Rows, v.rows(s)...)
	}
	return res
}

// execShow answers SHOW <name>: a statistic view, or a session setting's
// current value.
func (s *Session) execShow(x *sql.ShowStmt) (*Result, error) {
	name := strings.ToLower(x.Name)
	if v, ok := viewTable[name]; ok {
		return v.render(s), nil
	}
	if st := settingTable[name]; st != nil {
		return &Result{Columns: []string{name}, Rows: []types.Row{{types.NewText(st.show(s))}}, Tag: "SHOW"}, nil
	}
	return nil, fmt.Errorf("core: unrecognized configuration parameter %q", x.Name)
}
