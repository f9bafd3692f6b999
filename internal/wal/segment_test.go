package wal

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/types"
)

// sized returns an insert record whose frame is exactly size bytes.
func sized(t *testing.T, size int) Record {
	t.Helper()
	rec := func(n int) Record {
		return Record{Type: TypeInsert, Leaf: 1, Xid: 2, TID: 3, Row: types.Row{types.NewText(strings.Repeat("x", n))}}
	}
	frameLen := func(n int) int { r := rec(n); return len(EncodeRecord(nil, &r)) }
	n := max(size-frameLen(0), 0)
	for n > 0 && frameLen(n) > size {
		n--
	}
	if frameLen(n) != size {
		t.Fatalf("no record frames to %d bytes", size)
	}
	return rec(n)
}

// appendAll appends recs and returns them with their assigned LSNs.
func appendAll(t *testing.T, l *Log, recs ...Record) []Record {
	t.Helper()
	for i := range recs {
		if l.Append(&recs[i]) == 0 {
			t.Fatalf("append %d failed", i)
		}
	}
	return recs
}

// checkImage asserts the log's image is the records encoded back to back
// into one buffer, that it replays in order, and that the segments' sizes
// are segLens.
func checkImage(t *testing.T, l *Log, recs []Record, segLens ...int) {
	t.Helper()
	var want []byte
	for i := range recs {
		want = EncodeRecord(want, &recs[i])
	}
	if !bytes.Equal(l.Snapshot(), want) {
		t.Fatalf("image differs from the records encoded into one buffer (%d vs %d bytes)", len(l.Snapshot()), len(want))
	}
	var got []int
	for _, seg := range l.segs {
		got = append(got, len(seg))
	}
	if segLens != nil && fmt.Sprint(got) != fmt.Sprint(segLens) {
		t.Fatalf("segment sizes %v, want %v", got, segLens)
	}
	n := 0
	if err := l.ReplayFrom(1, func(r Record) error {
		if r.LSN != recs[n].LSN || len(r.Row) != len(recs[n].Row) {
			t.Fatalf("replayed %+v, want LSN %d", r, recs[n].LSN)
		}
		n++
		return nil
	}); err != nil || n != len(recs) {
		t.Fatalf("replay saw %d of %d records: %v", n, len(recs), err)
	}
}

// TestSegmentBoundaries: two frames that end exactly at, one byte before
// and one byte past a segment's end. A frame never spans two segments.
func TestSegmentBoundaries(t *testing.T) {
	const small = 40
	for _, c := range []struct {
		name  string
		total int // bytes of the two frames
		segs  []int
	}{
		{"exactly", segSize, []int{segSize, small}},
		{"one before", segSize - 1, []int{segSize - 1, small}},
		{"one past", segSize + 1, []int{segSize - small, small + 1 + small}},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := New()
			recs := appendAll(t, l, sized(t, segSize-small), sized(t, c.total-(segSize-small)), sized(t, small))
			checkImage(t, l, recs, c.segs...)
			if last, dropped := l.RecoverTruncate(); last != 3 || dropped != 0 {
				t.Fatalf("clean recovery: last=%d dropped=%d", last, dropped)
			}
		})
	}
}

// TestFrameLargerThanSegment: an oversized frame gets a segment of its own,
// and the next frame starts another.
func TestFrameLargerThanSegment(t *testing.T) {
	l := New()
	recs := appendAll(t, l, sized(t, 100), sized(t, 3*segSize/2), sized(t, 100))
	checkImage(t, l, recs, 100, 3*segSize/2, 100)
}

// TestTornWriteAtSegmentEnd: a torn write of a segment's last frame is cut
// back by recovery, later appends go to a new segment, and no frame handed
// to the shipper before the tear changes.
func TestTornWriteAtSegmentEnd(t *testing.T) {
	reg := fault.NewRegistry()
	l := New()
	l.AttachFaults(reg, 0)
	type shipped struct{ live, copy []byte }
	var frames []shipped
	if err := l.AttachShip(func(_ LSN, f []byte) {
		frames = append(frames, shipped{f, bytes.Clone(f)})
	}); err != nil {
		t.Fatal(err)
	}
	recs := appendAll(t, l, sized(t, segSize-300), sized(t, 100))
	if err := reg.Arm(fault.Spec{Point: fault.WALAppend, Seg: 0, Action: fault.ActTornWrite, Count: 1}); err != nil {
		t.Fatal(err)
	}
	torn := sized(t, 200) // would have filled the segment exactly
	if l.Append(&torn) != 0 || l.Err() == nil {
		t.Fatal("torn write did not wedge the log")
	}
	last, dropped := l.RecoverTruncate()
	if last != 2 || dropped != 101 {
		t.Fatalf("recovery: last=%d dropped=%d, want 2 and 101", last, dropped)
	}
	recs = append(recs, appendAll(t, l, sized(t, 150), sized(t, 150))...)
	checkImage(t, l, recs, segSize-200, 300)
	for i, f := range frames {
		if !bytes.Equal(f.live, f.copy) {
			t.Fatalf("shipped frame %d was rewritten", i+1)
		}
	}
	if len(frames) != 4 {
		t.Fatalf("shipped %d frames, want 4", len(frames))
	}
}

// TestAttachShipAcrossSegments: a mirror attached to a log of several
// segments catches up frame by frame and then follows new appends.
func TestAttachShipAcrossSegments(t *testing.T) {
	primary := New()
	var recs []Record
	for i := 0; i < 5; i++ {
		recs = append(recs, appendAll(t, primary, sized(t, segSize/2+10), sized(t, 64))...)
	}
	if len(primary.segs) < 4 {
		t.Fatalf("only %d segments", len(primary.segs))
	}
	mirror := New()
	if err := primary.AttachShip(func(lsn LSN, frame []byte) {
		if r, err := mirror.AppendFrame(frame); err != nil || r.LSN != lsn {
			t.Fatalf("frame %d: %v", lsn, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if mirror.LastLSN() != LSN(len(recs)) {
		t.Fatalf("catch-up delivered %d of %d frames", mirror.LastLSN(), len(recs))
	}
	recs = append(recs, appendAll(t, primary, sized(t, segSize-8), sized(t, 64))...)
	checkImage(t, primary, recs)
	checkImage(t, mirror, recs)
}

// TestReplayRacesAppends: replays read the segments outside the log's lock
// and a shipper's frames are read on another goroutine, while appends fill
// segments and open new ones. Every replay sees a gap-free prefix and every
// shipped frame still decodes.
func TestReplayRacesAppends(t *testing.T) {
	l := New()
	var mu sync.Mutex
	var shipped [][]byte
	if err := l.AttachShip(func(_ LSN, f []byte) {
		mu.Lock()
		shipped = append(shipped, f)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < n; i++ {
			r := Record{Type: TypeInsert, Leaf: 1, Xid: uint64(i), Row: types.Row{types.NewText(strings.Repeat("y", i%300))}}
			l.Append(&r)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := l.ReplayFrom(1, func(Record) error { return nil }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for read := 0; read < n; {
		mu.Lock()
		batch := shipped[read:]
		mu.Unlock()
		for _, f := range batch {
			if r, _, err := DecodeFrame(f); err != nil || r.LSN != LSN(read+1) {
				t.Fatalf("shipped frame %d: LSN %d, %v", read+1, r.LSN, err)
			}
			read++
		}
	}
	wg.Wait()
	if len(l.segs) < 5 {
		t.Fatalf("appends filled only %d segments", len(l.segs))
	}
}
