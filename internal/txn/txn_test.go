package txn

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestLifecycle(t *testing.T) {
	m := NewManager()
	x1 := m.Begin()
	x2 := m.Begin()
	if x1 == x2 || x1 == InvalidXID {
		t.Fatalf("xids: %d %d", x1, x2)
	}
	if m.Status(x1) != StatusInProgress || !m.IsRunning(x1) {
		t.Fatal("fresh txn state")
	}
	if err := m.Commit(x1); err != nil {
		t.Fatal(err)
	}
	if m.Status(x1) != StatusCommitted || m.IsRunning(x1) {
		t.Fatal("committed state")
	}
	if err := m.Abort(x2); err != nil {
		t.Fatal(err)
	}
	if m.Status(x2) != StatusAborted {
		t.Fatal("aborted state")
	}
	// Double-finish must error.
	if err := m.Commit(x1); err == nil {
		t.Fatal("double commit")
	}
	if err := m.Abort(x2); err == nil {
		t.Fatal("double abort")
	}
}

func TestPreparedStates(t *testing.T) {
	m := NewManager()
	x := m.Begin()
	if err := m.Prepare(x); err != nil {
		t.Fatal(err)
	}
	if m.Status(x) != StatusPrepared || !m.IsRunning(x) {
		t.Fatal("prepared txn must still count as running")
	}
	if err := m.Prepare(x); err == nil {
		t.Fatal("double prepare")
	}
	if err := m.Commit(x); err != nil {
		t.Fatal(err)
	}
	// Prepare after finish fails.
	y := m.Begin()
	_ = m.Abort(y)
	if err := m.Prepare(y); err == nil {
		t.Fatal("prepare after abort")
	}
}

func TestSnapshotSemantics(t *testing.T) {
	m := NewManager()
	x1 := m.Begin()
	_ = m.Commit(x1)
	x2 := m.Begin() // running at snapshot time
	snap := m.TakeSnapshot()
	x3 := m.Begin() // started after snapshot

	if !snap.Sees(x1) {
		t.Error("snapshot must see committed-before xid")
	}
	if snap.Sees(x2) {
		t.Error("snapshot must not see in-progress xid")
	}
	if snap.Sees(x3) {
		t.Error("snapshot must not see future xid")
	}
	_ = m.Commit(x2)
	// Even after x2 commits, the snapshot still excludes it.
	if snap.Sees(x2) {
		t.Error("snapshot stability violated")
	}
	_ = m.Commit(x3)
}

func TestUnknownXidIsAborted(t *testing.T) {
	m := NewManager()
	if m.Status(999) != StatusAborted {
		t.Fatal("unknown xid should read as aborted")
	}
}

func TestOldestRunning(t *testing.T) {
	m := NewManager()
	x1 := m.Begin()
	x2 := m.Begin()
	if m.OldestRunning() != x1 {
		t.Fatal("oldest")
	}
	_ = m.Commit(x1)
	if m.OldestRunning() != x2 {
		t.Fatal("oldest after commit")
	}
	_ = m.Commit(x2)
	if m.OldestRunning() != m.Begin() {
		t.Fatal("idle oldest = nextXID")
	}
}

func TestVisibilityRules(t *testing.T) {
	m := NewManager()
	inserter := m.Begin()
	_ = m.Commit(inserter)
	deleter := m.Begin() // in progress

	check := func(self XID, snap *Snapshot) *VisibilityChecker {
		return &VisibilityChecker{Mgr: m, Snap: snap, Self: self}
	}
	snap := m.TakeSnapshot()

	// Committed insert, no delete: visible.
	if !check(0, snap).Visible(inserter, InvalidXID) {
		t.Error("committed insert invisible")
	}
	// Deleted by in-progress txn: still visible to others.
	if !check(0, snap).Visible(inserter, deleter) {
		t.Error("uncommitted delete hid the row")
	}
	// The deleter itself must not see the row.
	if check(deleter, snap).Visible(inserter, deleter) {
		t.Error("deleter sees its own deleted row")
	}
	// Own uncommitted insert is visible to self only.
	writer := m.Begin()
	if !check(writer, m.TakeSnapshot()).Visible(writer, InvalidXID) {
		t.Error("own insert invisible")
	}
	if check(0, m.TakeSnapshot()).Visible(writer, InvalidXID) {
		t.Error("other's uncommitted insert visible")
	}
	_ = m.Commit(deleter)
	// Old snapshot still shows the row (delete not visible to it)...
	if !check(0, snap).Visible(inserter, deleter) {
		t.Error("snapshot isolation of delete")
	}
	// ...but a fresh snapshot hides it.
	if check(0, m.TakeSnapshot()).Visible(inserter, deleter) {
		t.Error("committed delete ignored")
	}
	_ = m.Commit(writer)
}

func TestVisibilityAbortedInserter(t *testing.T) {
	m := NewManager()
	x := m.Begin()
	_ = m.Abort(x)
	v := &VisibilityChecker{Mgr: m, Snap: m.TakeSnapshot()}
	if v.Visible(x, InvalidXID) {
		t.Fatal("aborted insert visible")
	}
}

// fakeDist simulates the distributed view for testing the dist-first rule.
type fakeDist struct {
	mapping map[XID]uint64
	sees    map[uint64]bool
}

func (f *fakeDist) DistXidFor(local XID) (uint64, bool) {
	d, ok := f.mapping[local]
	return d, ok
}
func (f *fakeDist) DistSees(d uint64) bool { return f.sees[d] }

func TestDistributedSnapshotWinsOverLocal(t *testing.T) {
	m := NewManager()
	x := m.Begin()
	_ = m.Commit(x)
	// Locally committed, but the distributed snapshot says in-progress
	// (e.g. a 1PC commit whose Commit-OK has not reached the coordinator):
	// the tuple must stay invisible.
	dist := &fakeDist{mapping: map[XID]uint64{x: 100}, sees: map[uint64]bool{100: false}}
	v := &VisibilityChecker{Mgr: m, Snap: m.TakeSnapshot(), Dist: dist}
	if v.Visible(x, InvalidXID) {
		t.Fatal("distributed in-progress txn visible")
	}
	dist.sees[100] = true
	if !v.Visible(x, InvalidXID) {
		t.Fatal("distributed committed txn invisible")
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	const workers = 16
	const per = 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := m.Begin()
				if i%2 == 0 {
					_ = m.Commit(x)
				} else {
					_ = m.Abort(x)
				}
			}
		}()
	}
	wg.Wait()
	if m.RunningCount() != 0 {
		t.Fatalf("running = %d", m.RunningCount())
	}
}

// TestQuickSnapshotNeverSeesLaterXid: property — a snapshot never sees a
// transaction that began after it.
func TestQuickSnapshotNeverSeesLaterXid(t *testing.T) {
	f := func(commits uint8) bool {
		m := NewManager()
		for i := 0; i < int(commits%32); i++ {
			_ = m.Commit(m.Begin())
		}
		snap := m.TakeSnapshot()
		later := m.Begin()
		defer m.Commit(later) //nolint:errcheck
		return !snap.Sees(later)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBeginReplayOutOfOrder: a mirror may replay begin records out of xid
// order (xids are taken before the begin record is logged); the running set
// stays ascending, so snapshots and OldestRunning stay right.
func TestBeginReplayOutOfOrder(t *testing.T) {
	m := NewManager()
	for _, xid := range []XID{5, 3, 7, 4} {
		m.BeginReplay(xid)
	}
	if err := m.Commit(4); err != nil {
		t.Fatal(err)
	}
	snap := m.TakeSnapshot()
	if want := []XID{3, 5, 7}; fmt.Sprint(snap.InProgress) != fmt.Sprint(want) || snap.Xmin != 3 || snap.Xmax != 8 {
		t.Fatalf("snapshot %+v, want running %v in [3, 8)", snap, want)
	}
	if !m.IsRunning(5) || m.IsRunning(4) || snap.Sees(5) || !snap.Sees(4) || m.OldestRunning() != 3 {
		t.Fatal("running set lookups disagree with the replayed begins")
	}
}

// TestNeverBegunXidCannotFinish: an xid this manager never began reads as
// aborted, and no transition may turn it into anything else.
func TestNeverBegunXidCannotFinish(t *testing.T) {
	m := NewManager()
	if err := m.Commit(42); err == nil {
		t.Error("Commit of a never-begun xid succeeded")
	}
	if err := m.Prepare(43); err == nil {
		t.Error("Prepare of a never-begun xid succeeded")
	}
	if err := m.Abort(44); err == nil {
		t.Error("Abort of a never-begun xid succeeded")
	}
	for _, x := range []XID{42, 43, 44} {
		if st := m.Status(x); st != StatusAborted {
			t.Errorf("xid %d reads %s after the refused transitions, want aborted", x, st)
		}
	}
	if m.RunningCount() != 0 || m.NextXID() != 1 {
		t.Fatal("refused transitions changed the running set or the xid counter")
	}
}

// TestClogAcrossPages: statuses read without the manager's mutex stay right
// across clog pages while writers keep adding xids, and readers racing the
// writers only ever see a state the xid really passed through.
func TestClogAcrossPages(t *testing.T) {
	m := NewManager()
	const n = 3*xidsPerPage + 5
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for x := XID(1); x < m.NextXID(); x += 97 {
				if st := m.Status(x); st == StatusPrepared {
					t.Errorf("xid %d read as prepared, which it never was", x)
					return
				}
			}
		}
	}()
	for i := 0; i < n; i++ {
		x := m.Begin()
		if x%3 == 0 {
			_ = m.Abort(x)
		} else {
			_ = m.Commit(x)
		}
	}
	close(stop)
	wg.Wait()
	for x := XID(1); x <= n; x++ {
		want := StatusCommitted
		if x%3 == 0 {
			want = StatusAborted
		}
		if st := m.Status(x); st != want {
			t.Fatalf("xid %d reads %s, want %s", x, st, want)
		}
	}
	if st := m.Status(n + 1); st != StatusAborted {
		t.Fatalf("xid past the last page reads %s", st)
	}
}
