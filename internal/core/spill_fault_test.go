package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
)

// spillFaultQueries maps each spilling operator to a query that forces it
// to spill under the tiny 32 KiB budget.
var spillFaultQueries = []struct {
	site  string
	query string
}{
	{"sort", "SELECT a, b FROM t ORDER BY b, a"},
	{"agg", "SELECT b, count(*), sum(a) FROM t GROUP BY b ORDER BY b"},
	{"join", "SELECT t.a, u.d FROM t JOIN u ON t.a = u.c ORDER BY t.a, u.d"},
}

// TestSpillFaultCleanupEverySite injects a disk-full error mid-write at
// every spill site (sort run dump, hash-agg flush, hash-join build) and at
// file creation, and checks the graceful-degradation contract: the
// statement is canceled with the typed disk-full error, no temp files or
// directories survive, the operators release every file themselves (the
// statement-end backstop finds nothing, so spill_leaks stays 0), and the
// session keeps working.
func TestSpillFaultCleanupEverySite(t *testing.T) {
	for _, tc := range spillFaultQueries {
		for _, point := range []string{fault.SpillCreate, fault.SpillWrite} {
			t.Run(tc.site+"/"+point, func(t *testing.T) {
				e, constrained, admin := newSpillEngine(t, 2)
				loadSpillTables(t, admin, true)
				noLeak := ownSpillDir(t)
				c := e.Cluster()

				// Start 2 lets the first hit through so the failure lands
				// mid-spill, with state already on disk to clean up.
				if err := c.InjectFault(fault.Spec{Point: point, Seg: fault.AllSegments, Action: fault.ActError, Start: 2}); err != nil {
					t.Fatal(err)
				}
				_, err := constrained.Exec(context.Background(), tc.query)
				c.ResetFault(point)
				if err == nil {
					t.Fatalf("%s under %s fault succeeded", tc.site, point)
				}
				if !errors.Is(err, exec.ErrDiskFull) {
					t.Fatalf("error is not ErrDiskFull: %v", err)
				}
				if !strings.Contains(err.Error(), "disk full") {
					t.Fatalf("error text leaks nothing useful: %v", err)
				}
				noLeak("after the failed statement")
				if leaks := metric(c.Metrics(), "exec.spill.leaks"); leaks != 0 {
					t.Fatalf("operators leaned on the cleanup backstop %d times", leaks)
				}

				// The session and the budget survive: the same query now
				// spills successfully and matches the unconstrained plan.
				base := mustExec(t, admin, tc.query)
				got := mustExec(t, constrained, tc.query)
				if len(got.Rows) != len(base.Rows) {
					t.Fatalf("post-fault row count %d, want %d", len(got.Rows), len(base.Rows))
				}
				for i := range base.Rows {
					if !base.Rows[i].Equal(got.Rows[i]) {
						t.Fatalf("post-fault row %d differs: %v vs %v", i, got.Rows[i], base.Rows[i])
					}
				}
			})
		}
	}
}

// TestSpillFaultRepeatedNoAccountingLeak hammers one session with
// injected spill failures: if an aborted statement leaked operator-memory
// or vmem accounting, repeated failures would exhaust the group's quota
// and admission would start refusing work. Twenty failures in, the session
// still runs a clean spilling query.
func TestSpillFaultRepeatedNoAccountingLeak(t *testing.T) {
	e, constrained, admin := newSpillEngine(t, 2)
	loadSpillTables(t, admin, false)
	c := e.Cluster()
	ctx := context.Background()
	noLeak := ownSpillDir(t)
	for i := 0; i < 20; i++ {
		point := fault.SpillWrite
		if i%2 == 1 {
			point = fault.SpillCreate
		}
		if err := c.InjectFault(fault.Spec{Point: point, Seg: fault.AllSegments, Action: fault.ActError, Start: 1 + i%3}); err != nil {
			t.Fatal(err)
		}
		if _, err := constrained.Exec(ctx, "SELECT a, b FROM t ORDER BY b, a"); !errors.Is(err, exec.ErrDiskFull) {
			t.Fatalf("round %d: %v", i, err)
		}
		c.ResetFault(point)
	}
	if leaks := metric(c.Metrics(), "exec.spill.leaks"); leaks != 0 {
		t.Fatalf("spill files leaked to the backstop: %d", leaks)
	}
	noLeak("after the failed statements")
	res := mustExec(t, constrained, "SELECT count(*) FROM t")
	if res.Rows[0][0].Int() != 6000 {
		t.Fatalf("post-hammer count: %v", res.Rows)
	}
	mustExec(t, constrained, "SELECT a, b FROM t ORDER BY b, a")
}

// TestSpillFaultConcurrentSessions runs constrained spilling queries from
// several sessions while spill faults fire probabilistically — the cleanup
// paths must be race-clean and no session's failure may leak files into
// another's statement lifetime.
func TestSpillFaultConcurrentSessions(t *testing.T) {
	e, _, admin := newSpillEngine(t, 2)
	loadSpillTables(t, admin, false)
	c := e.Cluster()
	noLeak := ownSpillDir(t)
	if err := c.InjectFault(fault.Spec{Point: fault.SpillWrite, Seg: fault.AllSegments, Action: fault.ActError, Probability: 30, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			s, err := e.NewSession("spiller")
			if err != nil {
				errc <- err
				return
			}
			s.UseResourceGroup(true, 0)
			ctx := context.Background()
			for i := 0; i < 8; i++ {
				_, err := s.Exec(ctx, "SELECT b, count(*) FROM t GROUP BY b ORDER BY b")
				if err != nil && !errors.Is(err, exec.ErrDiskFull) {
					errc <- fmt.Errorf("unexpected error: %w", err)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	c.ResetFault(fault.SpillWrite)
	if leaks := metric(c.Metrics(), "exec.spill.leaks"); leaks != 0 {
		t.Fatalf("concurrent spill failures leaked %d files to the backstop", leaks)
	}
	noLeak("after the failed statements")
}
