package wal

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/types"
)

func sampleRecords() []Record {
	return []Record{
		{Type: TypeBegin, Xid: 7, Dxid: 42},
		{Type: TypeInsert, Leaf: 3, Xid: 7, TID: 1,
			Row: types.Row{types.NewInt(12), types.NewText("hello"), types.NewFloat(3.5), types.Null, types.NewBool(true), types.NewDate(19000)}},
		{Type: TypeInsert, Leaf: 3, Xid: 7, TID: 2, Row: types.Row{}},
		{Type: TypeSetXmax, Leaf: 3, Xid: 9, TID: 1},
		{Type: TypeClearXmax, Leaf: 3, Xid: 9, TID: 1},
		{Type: TypeLinkUpdate, Leaf: 3, TID: 1, TID2: 2},
		{Type: TypeTruncate, Leaf: 3},
		{Type: TypePrepare, Xid: 7, Dxid: 42},
		{Type: TypeCommit, Xid: 7, Dxid: 42},
		{Type: TypeAbort, Xid: 9, Dxid: 43},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		want.LSN = 5
		frame := EncodeRecord(nil, &want)
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Type, err)
		}
		if n != len(frame) {
			t.Fatalf("%v: consumed %d of %d bytes", want.Type, n, len(frame))
		}
		if got.Type != want.Type || got.LSN != want.LSN || got.Leaf != want.Leaf ||
			got.Xid != want.Xid || got.Dxid != want.Dxid || got.TID != want.TID || got.TID2 != want.TID2 {
			t.Fatalf("%v: got %+v want %+v", want.Type, got, want)
		}
		if len(got.Row) != len(want.Row) {
			t.Fatalf("%v: row len %d want %d", want.Type, len(got.Row), len(want.Row))
		}
		if (got.Row == nil) != (want.Row == nil) {
			t.Fatalf("%v: row nil-ness differs", want.Type)
		}
		for i := range want.Row {
			if got.Row[i].Kind() != want.Row[i].Kind() || types.Compare(got.Row[i], want.Row[i]) != 0 {
				t.Fatalf("%v: row[%d] = %v want %v", want.Type, i, got.Row[i], want.Row[i])
			}
		}
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	r := Record{Type: TypeInsert, LSN: 1, Leaf: 1, Xid: 2, TID: 3, Row: types.Row{types.NewText("payload")}}
	frame := EncodeRecord(nil, &r)
	for _, i := range []int{8, len(frame) / 2, len(frame) - 1} {
		bad := make([]byte, len(frame))
		copy(bad, frame)
		bad[i] ^= 0x40
		if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: want ErrCorrupt, got %v", i, err)
		}
	}
	if _, _, err := DecodeFrame(frame[:len(frame)-2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated frame: want ErrCorrupt, got %v", err)
	}
}

func TestLogAppendReplayFrom(t *testing.T) {
	l := New()
	for i, r := range sampleRecords() {
		r := r
		if got := l.Append(&r); got != LSN(i+1) {
			t.Fatalf("append %d: lsn %d", i, got)
		}
	}
	if l.LastLSN() != 10 {
		t.Fatalf("LastLSN = %d", l.LastLSN())
	}
	var seen []LSN
	if err := l.ReplayFrom(4, func(r Record) error {
		seen = append(seen, r.LSN)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 || seen[0] != 4 || seen[6] != 10 {
		t.Fatalf("replay from 4 saw %v", seen)
	}
}

func TestShipAndAppendFrame(t *testing.T) {
	primary := New()
	// Two records exist before the mirror attaches.
	for _, r := range sampleRecords()[:2] {
		r := r
		primary.Append(&r)
	}
	mirror := New()
	var mu sync.Mutex
	apply := func(lsn LSN, frame []byte) {
		mu.Lock()
		defer mu.Unlock()
		rec, err := mirror.AppendFrame(frame)
		if err != nil {
			t.Errorf("append frame lsn %d: %v", lsn, err)
			return
		}
		if rec.LSN != lsn {
			t.Errorf("frame lsn %d decoded as %d", lsn, rec.LSN)
		}
	}
	// Attaching delivers the two historical frames through the shipper
	// itself, atomically with installing it.
	if err := primary.AttachShip(apply); err != nil {
		t.Fatal(err)
	}
	if mirror.LastLSN() != 2 {
		t.Fatalf("catch-up delivered %d frames, want 2", mirror.LastLSN())
	}
	for _, r := range sampleRecords()[2:] {
		r := r
		primary.Append(&r)
	}
	if mirror.LastLSN() != primary.LastLSN() {
		t.Fatalf("mirror at %d, primary at %d", mirror.LastLSN(), primary.LastLSN())
	}
	// Out-of-sequence frames are rejected.
	r := Record{Type: TypeCommit, LSN: 99}
	if _, err := mirror.AppendFrame(EncodeRecord(nil, &r)); err == nil {
		t.Fatal("out-of-sequence frame accepted")
	}
}

func TestFlushGroupCommit(t *testing.T) {
	l := New()
	r := Record{Type: TypeCommit, Xid: 1, Dxid: 1}
	l.Append(&r)
	if got := l.Flush(0); got != 1 {
		t.Fatalf("flush to %d", got)
	}
	if _, _, flushes := l.Stats(); flushes != 1 {
		t.Fatalf("flushes = %d", flushes)
	}
	// Already durable: no new sync.
	l.Flush(0)
	if _, _, flushes := l.Stats(); flushes != 1 {
		t.Fatalf("covered flush synced again: %d", flushes)
	}
	// Concurrent committers share syncs (group commit): with every sync
	// costing 2ms, N goroutines must not pay N syncs.
	reg := fault.NewRegistry()
	l.AttachFaults(reg, 0)
	if err := reg.Arm(fault.Spec{Point: fault.WALFlush, Seg: fault.AllSegments, Action: fault.ActSleep, Sleep: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := Record{Type: TypeCommit, Xid: uint64(i + 2)}
			l.Append(&r)
			l.Flush(0)
		}(i)
	}
	wg.Wait()
	if l.FlushedLSN() != l.LastLSN() {
		t.Fatalf("flushed %d, last %d", l.FlushedLSN(), l.LastLSN())
	}
	if _, _, flushes := l.Stats(); flushes >= 1+8 {
		t.Fatalf("no group commit: %d syncs for 8 committers", flushes-1)
	}
}
