package core

import (
	"slices"
	"testing"

	"repro/internal/txn"
)

// TestReadOnlyStatementsLogNothing: statements that only read — a point
// SELECT, a gang SELECT, ANALYZE, and an explicit transaction of SELECTs —
// append no WAL record and draw no local xid on any segment, and leave no
// snapshot registered. SELECT … FOR UPDATE and a transaction's first write
// do both.
func TestReadOnlyStatementsLogNothing(t *testing.T) {
	e, s := directEngine(t, true)
	cl := e.Cluster()
	state := func() (records int64, xids []txn.XID) {
		for _, seg := range cl.Segments() {
			r, _, _ := seg.WAL().Stats()
			records += r
			xids = append(xids, seg.NextXID())
		}
		return records, xids
	}
	run := func(stmts []string) (records int64, xidsMoved bool) {
		t.Helper()
		r0, x0 := state()
		for _, q := range stmts {
			mustExec(t, s, q)
		}
		r1, x1 := state()
		if n := cl.LiveSnapshots(); n != 0 {
			t.Fatalf("%q leaves %d snapshots registered", stmts, n)
		}
		return r1 - r0, !slices.Equal(x0, x1)
	}
	for _, stmts := range [][]string{
		{"SELECT val FROM kv WHERE id = 7"},
		{"SELECT count(*), sum(val) FROM kv"},
		{"ANALYZE"},
		{"BEGIN", "SELECT val FROM kv WHERE id = 7", "SELECT count(*) FROM kv WHERE val > 100", "COMMIT"},
	} {
		for i := 0; i < 60; i++ { // past one gang-sampled point read
			if recs, moved := run(stmts); recs != 0 || moved {
				t.Fatalf("%q appended %d WAL records (local xids drawn: %v), want none", stmts, recs, moved)
			}
		}
	}
	for _, stmts := range [][]string{
		{"SELECT val FROM kv WHERE id = 7 FOR UPDATE"},
		{"BEGIN", "SELECT val FROM kv WHERE id = 7", "UPDATE kv SET val = val WHERE id = 7", "COMMIT"},
	} {
		if recs, moved := run(stmts); recs == 0 || !moved {
			t.Fatalf("%q appended %d WAL records (local xids drawn: %v), want a logged write", stmts, recs, moved)
		}
	}
}
