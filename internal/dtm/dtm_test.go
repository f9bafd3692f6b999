package dtm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/txn"
)

func TestCoordinatorSnapshots(t *testing.T) {
	c := NewCoordinator()
	d1 := c.Begin()
	c.MarkCommitted(d1)
	d2 := c.Begin() // in progress
	snap := c.Snapshot()
	d3 := c.Begin() // after snapshot

	if !snap.Sees(d1) {
		t.Error("committed dxid invisible")
	}
	if snap.Sees(d2) {
		t.Error("in-progress dxid visible")
	}
	if snap.Sees(d3) {
		t.Error("future dxid visible")
	}
	if snap.Sees(InvalidDXID) {
		t.Error("invalid dxid visible")
	}
	c.MarkCommitted(d2)
	if snap.Sees(d2) {
		t.Error("snapshot stability violated")
	}
	c.MarkAborted(d3)
	if c.InProgressCount() != 0 {
		t.Errorf("in-progress = %d", c.InProgressCount())
	}
}

// TestOldestInProgress: with no snapshot registered, the horizon is the
// oldest running dxid, and it moves on when that transaction commits.
func TestOldestInProgress(t *testing.T) {
	c := NewCoordinator()
	d1 := c.Begin()
	d2 := c.Begin()
	if c.Horizon() != d1 {
		t.Fatal("oldest")
	}
	c.MarkCommitted(d1)
	if c.Horizon() != d2 {
		t.Fatal("oldest after commit")
	}
}

func TestXidMapping(t *testing.T) {
	m := NewXidMapping()
	m.Register(txn.XID(10), DXID(100))
	m.Register(txn.XID(11), DXID(101))
	if d, ok := m.DistFor(10); !ok || d != 100 {
		t.Fatal("DistFor")
	}
	if l, ok := m.LocalFor(101); !ok || l != 11 {
		t.Fatal("LocalFor")
	}
	if _, ok := m.DistFor(99); ok {
		t.Fatal("phantom mapping")
	}
	// Truncation below the horizon (paper §5.1).
	n := m.Truncate(101)
	if n != 1 || m.Len() != 1 {
		t.Fatalf("truncate removed %d, len %d", n, m.Len())
	}
	if _, ok := m.DistFor(10); ok {
		t.Fatal("truncated entry still present")
	}
	if _, ok := m.DistFor(11); !ok {
		t.Fatal("retained entry lost")
	}
	// Re-truncating at or below the horizon is a no-op.
	if m.Truncate(100) != 0 {
		t.Fatal("backwards truncate did something")
	}
	ins, rem := m.Stats()
	if ins != 2 || rem != 1 {
		t.Fatalf("stats: %d %d", ins, rem)
	}
}

// fakeParticipant records protocol calls.
type fakeParticipant struct {
	mu       sync.Mutex
	id       int
	prepared bool
	commits  int
	onePhase int
	aborts   int
	failPrep bool
}

func (f *fakeParticipant) SegID() int { return f.id }
func (f *fakeParticipant) Prepare(DXID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPrep {
		return errors.New("prepare refused")
	}
	f.prepared = true
	return nil
}
func (f *fakeParticipant) CommitPrepared(DXID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commits++
	return nil
}
func (f *fakeParticipant) AbortPrepared(DXID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts++
	return nil
}
func (f *fakeParticipant) CommitOnePhase(DXID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onePhase++
	return nil
}
func (f *fakeParticipant) Abort(DXID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts++
	return nil
}

func TestCommitReadOnly(t *testing.T) {
	c := NewCoordinator()
	d := c.Begin()
	st, err := Commit(c, d, nil, true)
	if err != nil || st.Protocol != ProtocolReadOnly {
		t.Fatalf("read-only: %+v %v", st, err)
	}
	if c.InProgressCount() != 0 {
		t.Fatal("not completed")
	}
}

func TestCommitOnePhaseSkipsPrepare(t *testing.T) {
	c := NewCoordinator()
	d := c.Begin()
	p := &fakeParticipant{id: 0}
	st, err := Commit(c, d, []Participant{p}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != ProtocolOnePhase {
		t.Fatalf("protocol = %s", st.Protocol)
	}
	// Paper Fig. 10: one message, no PREPARE.
	if p.prepared || p.onePhase != 1 || p.commits != 0 {
		t.Fatalf("participant calls: %+v", p)
	}
}

func TestCommitTwoPhaseWhenDisabledOrMultiSegment(t *testing.T) {
	// 1PC disabled: even a single writer goes through 2PC.
	c := NewCoordinator()
	d := c.Begin()
	p := &fakeParticipant{id: 0}
	st, err := Commit(c, d, []Participant{p}, false)
	if err != nil || st.Protocol != ProtocolTwoPhase {
		t.Fatalf("%+v %v", st, err)
	}
	if !p.prepared || p.commits != 1 {
		t.Fatalf("2pc calls: %+v", p)
	}
	// Two writers: 2PC regardless of the 1PC flag.
	d2 := c.Begin()
	p1, p2 := &fakeParticipant{id: 0}, &fakeParticipant{id: 1}
	st, err = Commit(c, d2, []Participant{p1, p2}, true)
	if err != nil || st.Protocol != ProtocolTwoPhase {
		t.Fatalf("%+v %v", st, err)
	}
	// Paper Fig. 10: two waves, each one message per writer.
	for _, p := range []*fakeParticipant{p1, p2} {
		if !p.prepared || p.commits != 1 || p.onePhase != 0 {
			t.Fatalf("two-phase calls: %+v", p)
		}
	}
}

func TestPrepareFailureAbortsAll(t *testing.T) {
	c := NewCoordinator()
	d := c.Begin()
	good := &fakeParticipant{id: 0}
	bad := &fakeParticipant{id: 1, failPrep: true}
	_, err := Commit(c, d, []Participant{good, bad}, false)
	if err == nil {
		t.Fatal("commit must fail")
	}
	if good.commits != 0 {
		t.Fatal("failed 2PC committed a participant")
	}
	if good.aborts == 0 || bad.aborts == 0 {
		t.Fatalf("aborts not propagated: good=%+v bad=%+v", good, bad)
	}
	if c.InProgressCount() != 0 {
		t.Fatal("txn still in progress after failed commit")
	}
}

func TestAbortFansOut(t *testing.T) {
	c := NewCoordinator()
	d := c.Begin()
	p1, p2 := &fakeParticipant{id: 0}, &fakeParticipant{id: 1}
	Abort(c, d, []Participant{p1, p2})
	if p1.aborts != 1 || p2.aborts != 1 {
		t.Fatal("abort fan-out")
	}
	if c.InProgressCount() != 0 {
		t.Fatal("txn still live")
	}
}

func TestViewSelfVisibility(t *testing.T) {
	m := NewXidMapping()
	snap := &DistSnapshot{Xmax: 10, InProgress: []DXID{5}}
	v := &View{Mapping: m, Snap: snap, SelfLocal: 3, SelfDist: 5}
	// Own dxid is visible even though the snapshot has it in-progress.
	if !v.DistSees(5) {
		t.Fatal("own dxid invisible")
	}
	if d, ok := v.DistXidFor(3); !ok || d != 5 {
		t.Fatal("self mapping")
	}
	// Another local xid resolves through the mapping.
	m.Register(7, 4)
	if d, ok := v.DistXidFor(7); !ok || d != 4 {
		t.Fatal("mapping lookup")
	}
	if !v.DistSees(4) {
		t.Fatal("old committed dxid invisible")
	}
}

var snapSink any

// TestSnapshotAllocations: with transactions running, a local snapshot and
// a distributed one are each a struct and one copied slice of ascending
// ids, and Sees answers from that slice.
func TestSnapshotAllocations(t *testing.T) {
	local := txn.NewManager()
	c := NewCoordinator()
	var xids []txn.XID
	var dxids []DXID
	for i := 0; i < 4; i++ {
		xids = append(xids, local.Begin())
		dxids = append(dxids, c.Begin())
	}
	if err := local.Commit(xids[1]); err != nil {
		t.Fatal(err)
	}
	c.MarkCommitted(dxids[1])
	if a := testing.AllocsPerRun(100, func() { snapSink = local.TakeSnapshot() }); a > 2 {
		t.Fatalf("TakeSnapshot allocates %.1f times, want <= 2", a)
	}
	if a := testing.AllocsPerRun(100, func() { snapSink = c.Snapshot() }); a > 2 {
		t.Fatalf("Coordinator.Snapshot allocates %.1f times, want <= 2", a)
	}
	ls, ds := local.TakeSnapshot(), c.Snapshot()
	if ls.Xmin != xids[0] || len(ls.InProgress) != 3 || ds.Xmax != dxids[3]+1 || len(ds.InProgress) != 3 {
		t.Fatalf("snapshots: local %+v, distributed %+v", ls, ds)
	}
	for i := range xids {
		if running := i != 1; ls.Sees(xids[i]) == running || ds.Sees(dxids[i]) == running {
			t.Fatalf("transaction %d: local sees %v, distributed sees %v, running %v", i, ls.Sees(xids[i]), ds.Sees(dxids[i]), running)
		}
	}
	if local.OldestRunning() != xids[0] || c.Horizon() != dxids[0] {
		t.Fatal("oldest running is not the first id")
	}
}
