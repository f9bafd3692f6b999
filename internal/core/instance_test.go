package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/plan"
	"repro/internal/types"
)

// loweredPlans renders the session's instances, one EXPLAIN each.
func loweredPlans(s *Session) []string {
	var out []string
	for _, in := range s.insts {
		out = append(out, plan.Explain(in.Root))
	}
	return out
}

// TestInstanceFollowsEpoch: a CREATE INDEX, a DROP and re-CREATE, or any
// other plan-epoch bump between two executions of a text switches the
// session to the new plan, drops the instances lowered under the old
// epoch, and the session's instance set stays bounded.
func TestInstanceFollowsEpoch(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE ik (id int, val int) DISTRIBUTED BY (id)")
	var rows []string
	for i := 1; i <= 50; i++ {
		rows = append(rows, fmt.Sprintf("(%d,%d)", i, i*10))
	}
	mustExec(t, s, "INSERT INTO ik VALUES "+strings.Join(rows, ","))
	const q = "SELECT id FROM ik WHERE val = $1"
	// check runs q; access, when set, is what the session's one instance
	// must scan with: a text is lowered into the set on a plan-cache hit,
	// so from its second execution under an epoch on.
	check := func(val, want int64, access string) {
		t.Helper()
		res := mustExec(t, s, q, types.NewInt(val))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			t.Fatalf("val %d: rows %v, want id %d", val, res.Rows, want)
		}
		if access == "" {
			return
		}
		plans := loweredPlans(s)
		if len(plans) != 1 || !strings.Contains(plans[0], access) {
			t.Fatalf("val %d: the session runs %q, want one plan with %q", val, plans, access)
		}
	}
	check(70, 7, "")
	check(80, 8, "Seq Scan on ik")
	mustExec(t, s, "CREATE INDEX ik_val ON ik (val)")
	check(90, 9, "")
	check(100, 10, "Index Scan using ik_val on ik")

	// A table re-created under the same name with other columns: the
	// instance's column names and plan are the new table's.
	mustExec(t, s, "DROP TABLE ik")
	mustExec(t, s, "CREATE TABLE ik (id int, tag text, val int) DISTRIBUTED BY (id)")
	mustExec(t, s, "INSERT INTO ik VALUES (3, 'three', 30)")
	const star = "SELECT * FROM ik WHERE id = $1"
	for i := 0; i < 2; i++ {
		res := mustExec(t, s, star, types.NewInt(3))
		if strings.Join(res.Columns, ",") != "id,tag,val" || len(res.Rows) != 1 || res.Rows[0][1].String() != "three" {
			t.Fatalf("re-created table, execution %d: columns %v rows %v", i+1, res.Columns, res.Rows)
		}
	}
	if plans := loweredPlans(s); len(plans) != 1 {
		t.Fatalf("instances of dropped plans kept: %q", plans)
	}

	// Texts run once stay out of the set; texts that repeat fill it up to
	// its bound.
	text := func(i int) string { return fmt.Sprintf("SELECT val + %d FROM ik WHERE id = $1", i) }
	for i := 0; i < 2*maxInstances; i++ {
		mustExec(t, s, text(i), types.NewInt(3))
	}
	if n := len(s.insts); n != 1 {
		t.Fatalf("%d instances after %d texts run once, want the one repeated text's", n, 2*maxInstances)
	}
	for i := 0; i < 2*maxInstances; i++ {
		mustExec(t, s, text(i), types.NewInt(3))
	}
	if n := len(s.insts); n != maxInstances {
		t.Fatalf("%d instances after %d texts run twice, want %d", n, 2*maxInstances, maxInstances)
	}
}

// TestInstanceReusableAfterFailure: an execution cancelled or timed out in a
// lock wait, and a deadlock victim's, each leave the session's instances
// ready — the retry on the same session returns the right rows.
func TestInstanceReusableAfterFailure(t *testing.T) {
	e, admin := newTestEngine(t, 2)
	k0, k1 := keyOnSegment(2, 0), keyOnSegment(2, 1)
	mustExec(t, admin, "CREATE TABLE rk (id int, val int) DISTRIBUTED BY (id)")
	mustExec(t, admin, "CREATE INDEX rk_id ON rk (id)")
	mustExec(t, admin, fmt.Sprintf("INSERT INTO rk VALUES (%d, 100), (%d, 200)", k0, k1))
	const (
		sel = "SELECT val FROM rk WHERE id = $1"
		upd = "UPDATE rk SET val = val + $1 WHERE id = $2"
	)
	sa, _ := e.NewSession("")
	sb, _ := e.NewSession("")
	read := func(s *Session, k int, want int64) {
		t.Helper()
		res := mustExec(t, s, sel, types.NewInt(int64(k)))
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			t.Fatalf("key %d reads %v, want %d", k, res.Rows, want)
		}
	}
	read(sb, k0, 100)
	mustExec(t, sb, upd, types.NewInt(1), types.NewInt(int64(k1)))

	// Cancelled and timed out while waiting for a row lock: a write, and
	// a locking read.
	const lockSel = "SELECT val FROM rk WHERE id = $1 FOR UPDATE"
	read(sb, k1, 201)
	mustExec(t, sb, lockSel, types.NewInt(int64(k1)))
	mustExec(t, sa, "BEGIN")
	mustExec(t, sa, upd, types.NewInt(10), types.NewInt(int64(k0)))
	cancelled, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	if _, err := sb.Exec(cancelled, upd, types.NewInt(1000), types.NewInt(int64(k0))); err == nil {
		t.Fatal("a cancelled UPDATE of a locked row succeeded")
	}
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := sb.Exec(short, lockSel, types.NewInt(int64(k0))); err == nil {
		t.Fatal("a locking read of a locked row did not time out")
	}
	mustExec(t, sa, "COMMIT")
	if res := mustExec(t, sb, upd, types.NewInt(1), types.NewInt(int64(k0))); res.RowsAffected != 1 {
		t.Fatalf("retried UPDATE wrote %d rows", res.RowsAffected)
	}
	read(sb, k0, 111)
	read(sb, k1, 201)
	if res := mustExec(t, sb, lockSel, types.NewInt(int64(k0))); len(res.Rows) != 1 || res.Rows[0][0].Int() != 111 {
		t.Fatalf("retried locking read: %v", res.Rows)
	}

	// A deadlock: the younger transaction, B, is the victim; its retry on
	// the same session runs the same instances to the right rows.
	mustExec(t, sa, "BEGIN")
	mustExec(t, sb, "BEGIN")
	mustExec(t, sa, upd, types.NewInt(1), types.NewInt(int64(k0)))
	mustExec(t, sb, upd, types.NewInt(1), types.NewInt(int64(k1)))
	errs := make(chan error, 2)
	go func() {
		_, err := sb.Exec(context.Background(), upd, types.NewInt(1), types.NewInt(int64(k0)))
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	_, errA := sa.Exec(context.Background(), upd, types.NewInt(1), types.NewInt(int64(k1)))
	errB := <-errs
	if errA != nil || !errors.Is(errB, lockmgr.ErrDeadlockVictim) {
		t.Fatalf("deadlock: A %v, B %v; want B the victim", errA, errB)
	}
	mustExec(t, sa, "COMMIT")
	mustExec(t, sb, "ROLLBACK")
	mustExec(t, sb, "BEGIN")
	mustExec(t, sb, upd, types.NewInt(5), types.NewInt(int64(k1)))
	mustExec(t, sb, upd, types.NewInt(5), types.NewInt(int64(k0)))
	mustExec(t, sb, "COMMIT")
	read(sb, k0, 117)
	read(sb, k1, 207)
	read(admin, k0, 117)
}

// TestInstancesConcurrentSessions runs the same statement texts from
// several sessions at once (run it under -race): each session lowers the
// shared cached templates into instances of its own, so none sees another's
// values.
func TestInstancesConcurrentSessions(t *testing.T) {
	e, admin := newTestEngine(t, 4)
	mustExec(t, admin, "CREATE TABLE ck (id int, val int) DISTRIBUTED BY (id)")
	mustExec(t, admin, "CREATE INDEX ck_id ON ck (id)")
	const (
		sessions = 4
		keys     = 40
		rounds   = 150
		sel      = "SELECT val FROM ck WHERE id = $1"
		upd      = "UPDATE ck SET val = val + $1 WHERE id = $2"
		ins      = "INSERT INTO ck VALUES ($1, $2)"
	)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			vals := make(map[int64]int64) // this session's keys and their values
			for i := 0; i < rounds; i++ {
				k := int64(g*1000 + i%keys)
				var err error
				switch v, ok := vals[k]; {
				case !ok:
					_, err = s.Exec(ctx, ins, types.NewInt(k), types.NewInt(k))
					vals[k] = k
				case i%3 == 0:
					_, err = s.Exec(ctx, upd, types.NewInt(int64(g+1)), types.NewInt(k))
					vals[k] = v + int64(g+1)
				default:
					var res *Result
					if res, err = s.Exec(ctx, sel, types.NewInt(k)); err == nil && (len(res.Rows) != 1 || res.Rows[0][0].Int() != v) {
						err = fmt.Errorf("key %d reads %v, want %d", k, res.Rows, v)
					}
				}
				if err != nil {
					t.Errorf("session %d round %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	res := mustExec(t, admin, "SELECT count(*) FROM ck")
	if res.Rows[0][0].Int() != sessions*keys {
		t.Fatalf("ck holds %v rows, want %d", res.Rows, sessions*keys)
	}
}

// TestInstanceRecompilesExpressions: an instance's operators are kept from
// one execution to the next, and the compiled forms of its expressions — a
// scan's predicate, a projection's vectors over column batches — capture
// constants, so each execution's values must reach them: a pinned read of an
// AO-column table returns what the values it ran with select and compute.
func TestInstanceRecompilesExpressions(t *testing.T) {
	_, s := newTestEngine(t, 2)
	mustExec(t, s, "CREATE TABLE ac (id int, amt int) WITH (appendonly=true, orientation=column) DISTRIBUTED BY (id)")
	var rows []string
	for i := 1; i <= 40; i++ {
		rows = append(rows, fmt.Sprintf("(%d,%d)", i%4, i))
	}
	mustExec(t, s, "INSERT INTO ac VALUES "+strings.Join(rows, ","))
	const q = "SELECT amt + $3 FROM ac WHERE id = $1 AND amt > $2"
	for round := int64(0); round < 6; round++ {
		id, floor, add := round%4, 4+round*5, round*100
		res := mustExec(t, s, q, types.NewInt(id), types.NewInt(floor), types.NewInt(add))
		var got, want []int64
		for _, r := range res.Rows {
			got = append(got, r[0].Int())
		}
		for i := int64(1); i <= 40; i++ {
			if i%4 == id && i > floor {
				want = append(want, i+add)
			}
		}
		if fmt.Sprint(sorted(got)) != fmt.Sprint(want) {
			t.Fatalf("id %d, amt > %d, +%d: got %v, want %v", id, floor, add, sorted(got), want)
		}
	}
}

// sorted returns vs in ascending order.
func sorted(vs []int64) []int64 {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// TestInstanceTracesEachLocation: a traced pinned read runs its instance on
// whichever segment each execution's key lives on, and its operator spans
// name that segment — the one its slice span names.
func TestInstanceTracesEachLocation(t *testing.T) {
	e, s := directEngine(t, true)
	const q = "SELECT val FROM kv WHERE id = $1"
	mustExec(t, s, "SET trace_queries = on")
	seen := map[int]bool{}
	for k := int64(1); k <= 40; k++ {
		if res := mustExec(t, s, q, types.NewInt(k)); len(res.Rows) != 1 || res.Rows[0][0].Int() != k*10 {
			t.Fatalf("key %d: %v", k, res.Rows)
		}
		tr := e.Activity().Traces().Recent(1)[0]
		slice, scan := -2, -2
		for _, sp := range tr.Spans() {
			switch {
			case strings.HasPrefix(sp.Name, "slice "):
				if slice != -2 {
					slice = -3 // the gang sample: many slices
				} else {
					slice = sp.Seg
				}
			case strings.HasPrefix(sp.Name, "Index Scan"):
				scan = sp.Seg
			}
		}
		if slice == -3 {
			continue
		}
		if slice < 0 || scan != slice {
			t.Fatalf("key %d: slice span on segment %d, index scan span on %d", k, slice, scan)
		}
		seen[slice] = true
	}
	if len(seen) < 2 {
		t.Fatalf("40 keys read on segments %v only", seen)
	}
}
