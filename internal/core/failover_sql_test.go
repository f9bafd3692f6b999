package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

// newReplicatedEngine boots an engine with WAL + mirrors + a fast FTS.
func newReplicatedEngine(t *testing.T, nseg int, mode cluster.ReplicaMode) (*Engine, *Session) {
	t.Helper()
	cfg := cluster.GPDB6(nseg)
	cfg.GDDPeriod = 5 * time.Millisecond
	cfg.ReplicaMode = mode
	cfg.FTSInterval = 2 * time.Millisecond
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	return e, s
}

func rowsText(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		for i, d := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(fmt.Sprintf("%s:%s", d.Kind(), d.String()))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

const failoverSchema = `
CREATE TABLE fh (k int, v int, s text) DISTRIBUTED BY (k);
CREATE TABLE fr (k int, v int, s text) WITH (appendonly=true) DISTRIBUTED BY (k);
CREATE TABLE fc (k int, v int, s text) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k);
`

// TestFailoverServesCommittedData kills each segment in turn (recovering in
// between) and checks that committed rows in all three storage engines
// survive promotion byte-for-byte.
func TestFailoverServesCommittedData(t *testing.T) {
	for _, mode := range []cluster.ReplicaMode{cluster.ReplicaSync, cluster.ReplicaAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			e, s := newReplicatedEngine(t, 3, mode)
			ctx := context.Background()
			if err := s.ExecScript(ctx, failoverSchema); err != nil {
				t.Fatal(err)
			}
			for _, tab := range []string{"fh", "fr", "fc"} {
				for i := 0; i < 500; i++ {
					mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'x%d')", tab, i, i*3, i))
				}
				mustExec(t, s, fmt.Sprintf("UPDATE %s SET v = v + 1 WHERE k < 100", tab))
				mustExec(t, s, fmt.Sprintf("DELETE FROM %s WHERE k >= 450", tab))
			}
			baseline := map[string]string{}
			for _, tab := range []string{"fh", "fr", "fc"} {
				baseline[tab] = rowsText(mustExec(t, s, fmt.Sprintf("SELECT k, v, s FROM %s ORDER BY k", tab)))
			}
			cl := e.Cluster()
			for seg := 0; seg < 3; seg++ {
				if err := cl.KillSegment(seg); err != nil {
					t.Fatal(err)
				}
				for _, tab := range []string{"fh", "fr", "fc"} {
					got := rowsText(mustExec(t, s, fmt.Sprintf("SELECT k, v, s FROM %s ORDER BY k", tab)))
					if got != baseline[tab] {
						t.Fatalf("mode %v: table %s differs after killing segment %d", mode, tab, seg)
					}
				}
				// Rebuild redundancy so the next kill has a mirror.
				if err := cl.Recover(seg); err != nil {
					t.Fatal(err)
				}
			}
			if n := metric(cl.Metrics(), "fts.failovers"); n != 3 {
				t.Fatalf("failovers = %d, want 3", n)
			}
			// The promoted primaries accept new writes.
			mustExec(t, s, "INSERT INTO fh VALUES (9001, 1, 'post')")
			res := mustExec(t, s, "SELECT count(*) FROM fh WHERE k = 9001")
			if res.Rows[0][0].Int() != 1 {
				t.Fatal("write after failover not visible")
			}
		})
	}
}

// TestFailoverAbortsTxnThatWroteDeadSegment: a transaction that wrote a
// segment whose primary subsequently died must abort (its uncommitted
// writes were rolled back by crash recovery on the mirror).
func TestFailoverAbortsTxnThatWroteDeadSegment(t *testing.T) {
	e, s := newReplicatedEngine(t, 2, cluster.ReplicaSync)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE ft (k int, v int) DISTRIBUTED BY (k)")
	for i := 0; i < 40; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ft VALUES (%d, 0)", i))
	}
	mustExec(t, s, "BEGIN")
	// Touch every segment so the txn certainly wrote the victim.
	mustExec(t, s, "UPDATE ft SET v = 99")
	if err := e.Cluster().KillSegment(0); err != nil {
		t.Fatal(err)
	}
	// COMMIT (or any later statement) must fail: the writes are gone.
	_, err := s.Exec(ctx, "COMMIT")
	if err == nil {
		t.Fatal("commit of a transaction with lost writes succeeded")
	}
	if !errors.Is(err, cluster.ErrTxnLostWrites) {
		t.Fatalf("want ErrTxnLostWrites, got %v", err)
	}
	// Wait for the automatic promotion, then verify the update rolled back.
	waitFailovers(t, e, 1)
	res := mustExec(t, s, "SELECT count(*) FROM ft WHERE v = 99")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("aborted transaction's writes visible after failover: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT count(*) FROM ft")
	if res.Rows[0][0].Int() != 40 {
		t.Fatalf("committed rows lost: %v", res.Rows)
	}
}

// TestFailoverReadYourWritesGuard: after a transaction's written segment
// fails over, even a read in the same transaction must fail — returning
// rows without the transaction's own (rolled-back) writes would silently
// violate read-your-writes.
func TestFailoverReadYourWritesGuard(t *testing.T) {
	e, s := newReplicatedEngine(t, 2, cluster.ReplicaSync)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE ry (k int, v int) DISTRIBUTED BY (k)")
	for i := 0; i < 20; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO ry VALUES (%d, 0)", i))
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE ry SET v = 1")
	if err := e.Cluster().KillSegment(1); err != nil {
		t.Fatal(err)
	}
	waitFailovers(t, e, 1)
	_, err := s.Exec(ctx, "SELECT count(*) FROM ry WHERE v = 1")
	if err == nil {
		t.Fatal("read in a lost-writes transaction succeeded")
	}
	if !errors.Is(err, cluster.ErrTxnLostWrites) {
		t.Fatalf("want ErrTxnLostWrites, got %v", err)
	}
	mustExec(t, s, "ROLLBACK")
	res := mustExec(t, s, "SELECT count(*) FROM ry WHERE v = 1")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("rolled-back writes visible: %v", res.Rows)
	}
}

func waitFailovers(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for metric(e.Metrics(), "fts.failovers") < n {
		if time.Now().After(deadline) {
			t.Fatalf("failovers stuck at %d, want %d", metric(e.Metrics(), "fts.failovers"), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillWithoutMirrorFailsFastAndRevives: without replication the segment
// is simply down; Recover revives it from its own WAL (restart-after-crash)
// and in-flight transactions from before the crash are aborted.
func TestKillWithoutMirrorFailsFastAndRevives(t *testing.T) {
	cfg := cluster.GPDB6(2)
	cfg.FailoverTimeout = 200 * time.Millisecond
	e := NewEngine(cfg)
	t.Cleanup(e.Close)
	s, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE rv (k int, v int) DISTRIBUTED BY (k)")
	for i := 0; i < 50; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO rv VALUES (%d, %d)", i, i))
	}
	if err := e.Cluster().KillSegment(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(ctx, "SELECT count(*) FROM rv"); err == nil {
		t.Fatal("query against a dead mirrorless segment succeeded")
	}
	if err := e.Cluster().Recover(1); err != nil {
		t.Fatalf("revive: %v", err)
	}
	res := mustExec(t, s, "SELECT count(*), sum(v) FROM rv")
	if res.Rows[0][0].Int() != 50 || res.Rows[0][1].Int() != 49*50/2 {
		t.Fatalf("revived segment lost data: %v", res.Rows)
	}
}

// TestScanStatsSurviveFailover: the storage counters are registry handles
// every segment incarnation and its block cache add to, so none drops when a
// primary dies and each keeps counting on the promoted mirror. All rows live
// on the killed segment, so every block scanned, every cache lookup and every
// reclaimed version is that segment's work.
func TestScanStatsSurviveFailover(t *testing.T) {
	e, s := newReplicatedEngine(t, 2, cluster.ReplicaSync)
	mustExec(t, s, "CREATE TABLE zs (k int, v int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)")
	mustExec(t, s, "CREATE TABLE hr (k int, v int) DISTRIBUTED BY (k)")
	// onSeg0 lists n "(k, k)" tuples whose key RouteRow places on segment 0.
	onSeg0 := func(table string, n int) []string {
		tab, err := e.Cluster().Catalog().Table(table)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for k := int64(0); len(out) < n; k++ {
			if plan.RouteRow(tab, types.Row{types.NewInt(k), types.NewInt(k)}, 2) == 0 {
				out = append(out, fmt.Sprintf("(%d, %d)", k, k))
			}
		}
		return out
	}
	rows := onSeg0("zs", 20000) // several sealed 4096-row blocks
	for off := 0; off < len(rows); off += 1000 {
		mustExec(t, s, "INSERT INTO zs VALUES "+strings.Join(rows[off:off+1000], ", "))
	}
	mustExec(t, s, "INSERT INTO hr VALUES "+strings.Join(onSeg0("hr", 50), ", "))

	series := []string{"storage.scan.blocks_scanned", "storage.blockcache.hits",
		"storage.blockcache.misses", "storage.versions_reclaimed", "lock.waits", "lock.wait_micros_total"}
	s2, err := e.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	read := func() []int64 {
		snap := e.Metrics().Snapshot().Values
		out := make([]int64, len(series))
		for i, name := range series {
			out[i] = snap[name]
		}
		return out
	}
	// work scans the column table twice (a cold pass that decodes, a warm
	// one the cache serves), makes one heap UPDATE wait on segment 0 for
	// the row locks of another, and reclaims the versions they left.
	work := func() {
		for i := 0; i < 2; i++ {
			if res := mustExec(t, s, "SELECT count(*) FROM zs WHERE v >= 0"); res.Rows[0][0].Int() != 20000 {
				t.Fatalf("count = %v, want 20000", res.Rows)
			}
		}
		mustExec(t, s, "BEGIN")
		mustExec(t, s, "UPDATE hr SET v = v + 1")
		waited0, _ := e.Cluster().LockWaitStats()
		done := make(chan error, 1)
		go func() {
			_, err := s2.Exec(context.Background(), "UPDATE hr SET v = v + 1")
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if waited, _ := e.Cluster().LockWaitStats(); waited > waited0 { // counts queued waiters too
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("second UPDATE never blocked")
			}
		}
		mustExec(t, s, "COMMIT")
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		mustExec(t, s, "VACUUM hr")
	}
	rises := func(phase string, from, to []int64) {
		t.Helper()
		for i, name := range series {
			if to[i] <= from[i] {
				t.Errorf("%s: %s did not rise: %d -> %d", phase, name, from[i], to[i])
			}
		}
	}

	zero := read()
	work()
	before := read()
	rises("first incarnation", zero, before)
	if err := e.Cluster().KillSegment(0); err != nil {
		t.Fatal(err)
	}
	waitFailovers(t, e, 1)
	after := read()
	for i, name := range series {
		if after[i] < before[i] {
			t.Errorf("%s dropped across the promotion: %d -> %d", name, before[i], after[i])
		}
	}
	work()
	rises("promoted incarnation", after, read())
}

// TestPromotedMirrorServesFreshBlocks is the block-cache regression test: a
// promoted mirror must never serve decoded blocks (or zone pages) cached
// under the dead incarnation — scans after TRUNCATE + reload on the
// promoted primary must reflect only the new data.
func TestPromotedMirrorServesFreshBlocks(t *testing.T) {
	e, s := newReplicatedEngine(t, 1, cluster.ReplicaSync)
	mustExec(t, s, "CREATE TABLE bc (k int, v int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (k)")
	var ins strings.Builder
	for i := 0; i < 9000; i++ { // several sealed blocks
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d, 1)", i)
	}
	mustExec(t, s, "INSERT INTO bc VALUES "+ins.String())
	// Warm the primary's decode cache.
	res := mustExec(t, s, "SELECT sum(v) FROM bc")
	if res.Rows[0][0].Int() != 9000 {
		t.Fatalf("warmup sum: %v", res.Rows)
	}
	if err := e.Cluster().KillSegment(0); err != nil {
		t.Fatal(err)
	}
	waitFailovers(t, e, 1)
	// The promoted mirror serves the same data (decoded fresh, not from
	// the dead incarnation's cache)...
	res = mustExec(t, s, "SELECT sum(v) FROM bc")
	if res.Rows[0][0].Int() != 9000 {
		t.Fatalf("post-promotion sum: %v", res.Rows)
	}
	// ...and after truncate + reload nothing stale can reappear.
	mustExec(t, s, "TRUNCATE bc")
	mustExec(t, s, "INSERT INTO bc VALUES (1, 7), (2, 7)")
	res = mustExec(t, s, "SELECT sum(v), count(*) FROM bc")
	if res.Rows[0][0].Int() != 14 || res.Rows[0][1].Int() != 2 {
		t.Fatalf("stale blocks after truncate+reload on promoted mirror: %v", res.Rows)
	}
}

// TestShowWalStatsAndReplicaMode covers the SQL surface: SHOW wal_stats,
// SHOW replica_mode, SET replica_mode validation and live switching.
func TestShowWalStatsAndReplicaMode(t *testing.T) {
	_, s := newReplicatedEngine(t, 2, cluster.ReplicaSync)
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE ws (k int) DISTRIBUTED BY (k)")
	mustExec(t, s, "INSERT INTO ws VALUES (1), (2), (3)")
	res := mustExec(t, s, "SHOW wal_stats")
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].Text()] = r[1].Int()
	}
	if vals["wal_records"] == 0 || vals["wal_bytes"] == 0 || vals["wal_flushes"] == 0 {
		t.Fatalf("wal_stats empty after DML: %v", vals)
	}
	res = mustExec(t, s, "SHOW replica_mode")
	if got := res.Rows[0][0].Text(); got != "sync" {
		t.Fatalf("replica_mode = %q", got)
	}
	mustExec(t, s, "SET replica_mode = async")
	res = mustExec(t, s, "SHOW replica_mode")
	if got := res.Rows[0][0].Text(); got != "async" {
		t.Fatalf("replica_mode after SET = %q", got)
	}
	if _, err := s.Exec(ctx, "SET replica_mode = sideways"); err == nil {
		t.Fatal("bad replica_mode accepted")
	}
	// Enabling replication on a cluster booted without it is refused.
	cfg := cluster.GPDB6(1)
	e2 := NewEngine(cfg)
	t.Cleanup(e2.Close)
	s2, err := e2.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec(ctx, "SET replica_mode = sync"); err == nil {
		t.Fatal("SET replica_mode on an unreplicated cluster accepted")
	}
}

// TestCrashRecoveryEquivalence is the property test: for a seeded random
// DML workload over all three storage engines, killing a random primary at
// a random point and promoting its mirror yields full-table scans
// byte-identical to a run that never failed.
func TestCrashRecoveryEquivalence(t *testing.T) {
	seeds := []uint64{1, 7, 23}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runCrashEquivalence(t, seed)
		})
	}
}

func runCrashEquivalence(t *testing.T, seed uint64) {
	ctx := context.Background()
	const nseg = 3
	const steps = 400

	// Two identical engines: control never fails; chaos loses a random
	// primary mid-workload and promotes its mirror.
	engines := make([]*Session, 2)
	var chaosEng *Engine
	for i := range engines {
		e, s := newReplicatedEngine(t, nseg, cluster.ReplicaSync)
		if err := s.ExecScript(ctx, failoverSchema); err != nil {
			t.Fatal(err)
		}
		engines[i] = s
		if i == 1 {
			chaosEng = e
		}
	}
	control, chaos := engines[0], engines[1]

	r := workload.NewRand(seed)
	killAt := r.Range(steps/4, 3*steps/4)
	killSeg := r.Range(0, nseg-1)
	stmts := randomDML(seed, steps)

	for i, q := range stmts {
		if _, err := control.Exec(ctx, q); err != nil {
			t.Fatalf("control step %d (%q): %v", i, q, err)
		}
		if i == killAt {
			if err := chaosEng.Cluster().KillSegment(killSeg); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := chaos.Exec(ctx, q); err != nil {
			t.Fatalf("chaos step %d (%q): %v", i, q, err)
		}
	}
	if n := metric(chaosEng.Metrics(), "fts.failovers"); n != 1 {
		t.Fatalf("failovers = %d", n)
	}

	for _, tab := range []string{"fh", "fr", "fc"} {
		q := fmt.Sprintf("SELECT k, v, s FROM %s ORDER BY k, v, s", tab)
		want := rowsText(mustExec(t, control, q))
		got := rowsText(mustExec(t, chaos, q))
		if want != got {
			t.Fatalf("seed %d: table %s diverged after kill(seg %d at step %d)\ncontrol %d bytes, chaos %d bytes",
				seed, tab, killSeg, killAt, len(want), len(got))
		}
	}
}

// randomDML generates a deterministic mixed DML stream over the three
// failover test tables.
func randomDML(seed uint64, n int) []string {
	r := workload.NewRand(seed * 977)
	tabs := []string{"fh", "fr", "fc"}
	out := make([]string, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		tab := tabs[r.Intn(len(tabs))]
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4: // insert a small batch
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tab)
			for j := 0; j < 1+r.Intn(5); j++ {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d, %d, 't%d')", next, r.Intn(1000), next%13)
				next++
			}
			out = append(out, sb.String())
		case 5, 6: // point-ish update
			out = append(out, fmt.Sprintf("UPDATE %s SET v = v + %d WHERE k %% 7 = %d", tab, 1+r.Intn(9), r.Intn(7)))
		case 7: // delete a sliver
			out = append(out, fmt.Sprintf("DELETE FROM %s WHERE k %% 31 = %d", tab, r.Intn(31)))
		case 8: // read (keeps snapshots and read-only commits in the mix)
			out = append(out, fmt.Sprintf("SELECT count(*) FROM %s", tab))
		default: // small explicit txn handled as one script
			out = append(out, fmt.Sprintf("UPDATE %s SET s = 'u%d' WHERE k %% 11 = %d", tab, i, r.Intn(11)))
		}
	}
	return out
}

// waitForLockWait waits until some segment's lock table has a waiter.
func waitForLockWait(t *testing.T, e *Engine, segs ...int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, seg := range e.Cluster().Segments() {
			if (len(segs) == 0 || slices.Contains(segs, i)) && len(seg.Locks().WaitGraph()) > 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no statement came to wait for a segment lock")
}

// TestInsertSelectRetriedAfterSourceFailover: an INSERT … SELECT whose
// source segment dies under it before any row is stored is retried whole
// once the mirror is promoted, as a SELECT is, and stores every row once —
// also without direct dispatch, where every target opens its local
// transaction before it reads. A lock on the source held on the victim
// alone parks the statement's sending slice there until the kill.
func TestInsertSelectRetriedAfterSourceFailover(t *testing.T) {
	for _, direct := range []bool{true, false} {
		t.Run(fmt.Sprintf("direct=%v", direct), func(t *testing.T) {
			cfg := cluster.GPDB6(4)
			cfg.ReplicaMode = cluster.ReplicaSync
			cfg.FTSInterval = 2 * time.Millisecond
			cfg.DirectDispatch = direct
			e := NewEngine(cfg)
			t.Cleanup(e.Close)
			s, err := e.NewSession("")
			if err != nil {
				t.Fatal(err)
			}
			insertSelectAcrossFailover(t, e, s)
		})
	}
}

func insertSelectAcrossFailover(t *testing.T, e *Engine, s *Session) {
	ctx := context.Background()
	mustExec(t, s, "CREATE TABLE src (x int, y int) DISTRIBUTED BY (x)")
	mustExec(t, s, "CREATE TABLE dst (a int, b int) DISTRIBUTED BY (b)")
	const n, victim = 400, 2
	bulkInsert(t, s, "src", n, 0, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i*7%n) })
	cl := e.Cluster()
	src, err := cl.Catalog().Table("src")
	if err != nil {
		t.Fatal(err)
	}
	blocker := cl.BeginTxn()
	defer cl.AbortTxn(blocker)
	if err := cl.Segments()[victim].LockRelation(ctx, blocker.Owner(), src, lockmgr.AccessExclusive); err != nil {
		t.Fatal(err)
	}
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := s.Exec(ctx, "INSERT INTO dst SELECT x, y FROM src")
		done <- result{res, err}
	}()
	waitForLockWait(t, e, victim)
	if err := cl.KillSegment(victim); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("INSERT … SELECT across the source's failover: %v", r.err)
	}
	if r.res.RowsAffected != n {
		t.Fatalf("%d rows affected, want %d", r.res.RowsAffected, n)
	}
	if got := mustExec(t, s, "SELECT count(*), sum(b) FROM dst").Rows[0]; got[0].Int() != n || got[1].Int() != n*(n-1)/2 {
		t.Fatalf("dst holds count, sum(b) = %v, want %d, %d", got, n, n*(n-1)/2)
	}
	if n := metric(cl.Metrics(), "fts.failovers"); n != 1 {
		t.Fatalf("failovers = %d, want 1", n)
	}
}
