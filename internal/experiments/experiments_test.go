package experiments

import (
	"strings"
	"testing"
	"time"
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

func TestFig10CommitSmoke(t *testing.T) {
	tbl, err := Fig10Commit(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "one-phase") || !strings.Contains(out, "two-phase") {
		t.Fatalf("fig10 output:\n%s", out)
	}
}

func TestFig2LockingSmoke(t *testing.T) {
	tbl, err := Fig2Locking(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "lock wait %") {
		t.Fatalf("fig2 output:\n%s", tbl.String())
	}
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
