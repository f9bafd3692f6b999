package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/types"
	"repro/internal/workload"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{
		Duration: 60 * time.Millisecond,
		Clients:  []int{1, 2},
		Segments: 2,
	}
}

func TestTable1Render(t *testing.T) {
	out := Table1Conflicts()
	for _, frag := range []string{
		"AccessShareLock", "AccessExclusiveLock",
		"1,2,3,4,5,6,7,8", // the AccessExclusive row conflicts with all
		"Pure select", "Alter table",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 output missing %q", frag)
		}
	}
}

// TestCommitCostsInCounts is Fig. 10's claim in counts: committing a
// single-segment insert with one-phase commit costs one fsync and writes no
// PREPARE record; with two-phase commit it costs three fsyncs (PREPARE and
// COMMIT on the segment, the commit record on the coordinator), one PREPARE
// record and two messages.
func TestCommitCostsInCounts(t *testing.T) {
	for _, tc := range []struct {
		onePhase                   bool
		fsyncs, prepares, messages float64
	}{{true, 1, 0, 1}, {false, 3, 1, 2}} {
		c, err := commitCosts(tinyOpts(), tc.onePhase)
		if err != nil {
			t.Fatal(err)
		}
		if c.fsyncs != tc.fsyncs || c.prepares != tc.prepares || c.messages != tc.messages {
			t.Errorf("one-phase=%v: per transaction %.2f fsyncs, %.2f prepares, %.2f messages; want %v, %v, %v",
				tc.onePhase, c.fsyncs, c.prepares, c.messages, tc.fsyncs, tc.prepares, tc.messages)
		}
	}
}

// TestLockWaitsByLockingRegime is the claim of Figs. 2 and 14 in counts:
// four updaters of disjoint rows wait for each other under GPDB 5's
// Exclusive table lock, and never under GPDB 6's row locks.
func TestLockWaitsByLockingRegime(t *testing.T) {
	if waits := disjointUpdaterWaits(t, gpdb5(2)); waits == 0 {
		t.Error("GPDB 5: disjoint updaters recorded no lock waits")
	}
	if waits := disjointUpdaterWaits(t, gpdb6(2)); waits != 0 {
		t.Errorf("GPDB 6: disjoint updaters recorded %d lock waits", waits)
	}
}

// disjointUpdaterWaits runs four concurrent updaters, each on rows no other
// touches, under the experiments' cost model and returns the lock waits
// they recorded.
func disjointUpdaterWaits(t *testing.T, cfg *cluster.Config) int64 {
	const updaters, updates = 4, 10
	w := &workload.UpdateOnly{Rows: updaters * updates}
	e, err := engine(cfg, w.Schema(), w.Load, timing)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, waits0 := e.Cluster().LockWaitStats()
	ctx := context.Background()
	errs := make(chan error, updaters)
	var wg sync.WaitGroup
	for u := 0; u < updaters; u++ {
		s, err := e.NewSession("")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(u int, conn bench.SessionConn) {
			defer wg.Done()
			for k := 0; k < updates; k++ {
				id := types.NewInt(int64(1 + u + updaters*k))
				if _, _, err := conn.Exec(ctx, "UPDATE upd_bench SET val = val + 1 WHERE id = $1", id); err != nil {
					errs <- err
					return
				}
			}
		}(u, bench.SessionConn{S: s})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	_, waits := e.Cluster().LockWaitStats()
	return waits - waits0
}

func TestFig15InsertOnlySmoke(t *testing.T) {
	tbl, err := Fig15InsertOnly(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "GPDB 6") {
		t.Fatalf("fig15 output:\n%s", tbl.String())
	}
}

func TestOptionsPresets(t *testing.T) {
	q, f := Quick(), Full()
	if q.Duration >= f.Duration {
		t.Error("quick must be faster than full")
	}
	if len(q.Clients) == 0 || len(f.Clients) == 0 || q.Segments < 1 {
		t.Error("presets incomplete")
	}
}
