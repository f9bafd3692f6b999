package interconnect

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func row(v int64) types.Row { return types.Row{types.NewInt(v)} }

// send frames one row as a batch of its own, so a test can count buffer
// slots in rows.
func send(ctx context.Context, f *Fabric, slice, dest int, r types.Row) error {
	return f.SendBatch(ctx, slice, dest, &types.RowBatch{Rows: []types.Row{r}})
}

// recv is the one-row view of those tests' streams: it returns the single
// row of the next frame.
func recv(ctx context.Context, r *StreamReceiver) (types.Row, bool, error) {
	b, ok, err := r.RecvBatch(ctx)
	if err != nil || !ok {
		return nil, false, err
	}
	return b.Rows[0], true, nil
}

func TestGatherDeliversAllAndCloses(t *testing.T) {
	f := NewFabric(3, 16, 0)
	f.OpenGather(1, 3)
	ctx := context.Background()
	var wg sync.WaitGroup
	for seg := 0; seg < 3; seg++ {
		seg := seg
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.DoneSending(1)
			for i := 0; i < 10; i++ {
				if err := send(ctx, f, 1, -1, row(int64(seg*100+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	r := f.Receiver(1, -1)
	got := 0
	for {
		_, ok, err := recv(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got++
	}
	wg.Wait()
	if got != 30 {
		t.Fatalf("received %d rows, want 30", got)
	}
	rows, _ := f.Stats()
	if rows != 30 {
		t.Fatalf("stats rows = %d", rows)
	}
}

func TestFanOutRouting(t *testing.T) {
	f := NewFabric(2, 16, 0)
	f.OpenFanOut(2, 1)
	ctx := context.Background()
	// Send explicit destinations.
	for i := 0; i < 10; i++ {
		if err := send(ctx, f, 2, i%2, row(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	f.DoneSending(2)
	for dest := 0; dest < 2; dest++ {
		r := f.Receiver(2, dest)
		n := 0
		for {
			v, ok, err := recv(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if int(v[0].Int())%2 != dest {
				t.Fatalf("row %v misrouted to %d", v, dest)
			}
			n++
		}
		if n != 5 {
			t.Fatalf("dest %d received %d", dest, n)
		}
	}
}

func TestFlowControlBlocksSender(t *testing.T) {
	f := NewFabric(1, 2, 0) // tiny buffer
	f.OpenGather(1, 1)
	ctx := context.Background()
	sent := make(chan int, 100)
	go func() {
		for i := 0; ; i++ {
			if err := send(ctx, f, 1, -1, row(int64(i))); err != nil {
				return
			}
			sent <- i
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// Buffer holds 2 rows; sender must be blocked on the third.
	if n := len(sent); n > 3 {
		t.Fatalf("sender ran ahead of flow control: %d sends", n)
	}
	// Draining unblocks it.
	r := f.Receiver(1, -1)
	for i := 0; i < 10; i++ {
		if _, ok, err := recv(ctx, r); err != nil || !ok {
			t.Fatalf("recv %d: %v %v", i, ok, err)
		}
	}
}

func TestRecvCancellation(t *testing.T) {
	f := NewFabric(1, 1, 0)
	f.OpenGather(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	r := f.Receiver(1, -1)
	_, _, err := recv(ctx, r)
	if err == nil {
		t.Fatal("recv on empty stream must respect ctx")
	}
}

func TestUnknownStreamErrors(t *testing.T) {
	f := NewFabric(1, 1, 0)
	if err := send(context.Background(), f, 9, -1, row(1)); err == nil {
		t.Fatal("send to unopened motion must fail")
	}
	r := f.Receiver(9, -1)
	if _, _, err := recv(context.Background(), r); err == nil {
		t.Fatal("recv from unopened motion must fail")
	}
}

func batch(vals ...int64) *types.RowBatch {
	b := types.NewRowBatch(len(vals))
	for _, v := range vals {
		b.Append(row(v))
	}
	return b
}

// TestBatchFramingPreservesOrder sends frames of different sizes down one
// stream and checks they arrive whole and in order, and that the counters
// reflect rows and frames separately.
func TestBatchFramingPreservesOrder(t *testing.T) {
	f := NewFabric(1, 16, 0)
	f.OpenGather(1, 1)
	ctx := context.Background()
	frames := [][]int64{{0, 1, 2}, {3}, {4, 5}}
	for _, fr := range frames {
		if err := f.SendBatch(ctx, 1, -1, batch(fr...)); err != nil {
			t.Fatal(err)
		}
	}
	// Empty batches are dropped, not framed.
	if err := f.SendBatch(ctx, 1, -1, types.NewRowBatch(4)); err != nil {
		t.Fatal(err)
	}
	f.DoneSending(1)
	r := f.Receiver(1, -1)
	for i, fr := range frames {
		b, ok, err := r.RecvBatch(ctx)
		if err != nil || !ok {
			t.Fatalf("frame %d: ok=%v err=%v", i, ok, err)
		}
		if b.Len() != len(fr) {
			t.Fatalf("frame %d: %d rows, want %d", i, b.Len(), len(fr))
		}
		for j, v := range fr {
			if b.Rows[j][0].Int() != v {
				t.Fatalf("frame %d row %d out of order: %v", i, j, b.Rows[j])
			}
		}
	}
	if _, ok, _ := r.RecvBatch(ctx); ok {
		t.Fatal("stream should be closed")
	}
	rows, _ := f.Stats()
	if rows != 6 {
		t.Fatalf("stats rows = %d", rows)
	}
	if _, n := f.Stats(); n != 3 {
		t.Fatalf("stream operations = %d, want 3", n)
	}
}

// TestBatchFanOutPerDestination checks that batch sends to different
// destinations of a fan-out motion stay separated and RecvBatch hands back
// whole frames.
func TestBatchFanOutPerDestination(t *testing.T) {
	f := NewFabric(2, 16, 0)
	f.OpenFanOut(3, 1)
	ctx := context.Background()
	if err := f.SendBatch(ctx, 3, 0, batch(0, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := f.SendBatch(ctx, 3, 1, batch(1, 3)); err != nil {
		t.Fatal(err)
	}
	f.DoneSending(3)
	for dest, want := range [][]int64{{0, 2, 4}, {1, 3}} {
		r := f.Receiver(3, dest)
		b, ok, err := r.RecvBatch(ctx)
		if err != nil || !ok {
			t.Fatalf("dest %d: ok=%v err=%v", dest, ok, err)
		}
		if b.Len() != len(want) {
			t.Fatalf("dest %d: frame of %d rows, want %d", dest, b.Len(), len(want))
		}
		for i, v := range want {
			if b.Rows[i][0].Int() != v {
				t.Fatalf("dest %d row %d: %v", dest, i, b.Rows[i])
			}
		}
		if _, ok, _ := r.RecvBatch(ctx); ok {
			t.Fatalf("dest %d: expected closed stream", dest)
		}
	}
}

// TestSendDoesNotReadHandedOffBatch: once a batch is on the stream it is the
// receiver's, which narrows its selection in place (as a Filter does) and
// gives the container back to the stream when it asks for the next batch.
// The sender counts the rows it moved before the hand-off, so under -race no
// send reads a batch the receiver is writing, and the row count is what was
// sent.
func TestSendDoesNotReadHandedOffBatch(t *testing.T) {
	const batches, width = 200, 8
	f := NewFabric(1, 4, 0)
	f.OpenGather(1, 1)
	ctx := context.Background()
	go func() {
		defer f.DoneSending(1)
		for i := 0; i < batches; i++ {
			b := types.NewRowBatch(width)
			for j := 0; j < width; j++ {
				b.Append(row(int64(i)))
			}
			if err := f.SendBatch(ctx, 1, -1, b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	r := f.Receiver(1, -1)
	got := 0
	for {
		b, ok, err := r.RecvBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Sel != nil || b.Len() != width || b.Rows[0][0].Int() != int64(got) {
			t.Fatalf("batch %d arrived as sel=%v rows=%v", got, b.Sel, b.Rows)
		}
		b.Sel = []int{} // filtered out, in place
		got++
	}
	if rows, _ := f.Stats(); got != batches || rows != batches*width {
		t.Fatalf("received %d batches; stats say %d rows, want %d", got, rows, batches*width)
	}
}

// TestContainersCirculate: a receiver's batches go back to their stream on
// its next receive and come out of Container again, sized to the request.
// A stream that carries one batch per sender never makes a free list, and
// the list keeps at most buffer + senders + 1 containers.
func TestContainersCirculate(t *testing.T) {
	ctx := context.Background()
	f := NewFabric(2, 2, 0)
	f.OpenFanOut(1, 2)
	// One batch per sender on dest 0: nothing is kept for reuse.
	for i := 0; i < 2; i++ {
		b := f.Container(1, 0, 4)
		b.Append(row(int64(i)))
		if err := f.SendBatch(ctx, 1, 0, b); err != nil {
			t.Fatal(err)
		}
	}
	// Dest 1: the third container makes the list.
	sent := map[*types.RowBatch]bool{}
	for i := 0; i < 3; i++ {
		b := f.Container(1, 1, 4)
		b.Append(row(int64(i)))
		sent[b] = true
		if i < 2 {
			if err := f.SendBatch(ctx, 1, 1, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	r0, r1 := f.Receiver(1, 0), f.Receiver(1, 1)
	for i := 0; i < 2; i++ {
		if _, _, err := r1.RecvBatch(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The first batch went back on the second receive.
	b := f.Container(1, 1, 16)
	if !sent[b] || b.Len() != 0 || b.Sel != nil || cap(b.Rows) < 16 {
		t.Fatalf("Container returned %p (len %d, cap %d), want a sent container, empty, grown to 16", b, b.Len(), cap(b.Rows))
	}
	if c := f.Container(1, 1, 1); sent[c] {
		t.Fatal("a batch still with the receiver came back out of Container")
	}
	r0.RecvBatch(ctx)
	r0.RecvBatch(ctx)
	s0, _ := f.get(streamKey{slice: 1, dest: 0})
	if l := s0.free.Load(); l != nil {
		t.Fatalf("a stream carrying one batch per sender made a free list of %d", cap(l.bufs))
	}
	s1, _ := f.get(streamKey{slice: 1, dest: 1})
	l := s1.free.Load()
	for i := 0; i < 10; i++ {
		l.release(types.NewRowBatch(1))
	}
	if n, want := len(l.bufs), 2+2+1; n != want {
		t.Fatalf("free list holds %d containers, want its bound %d", n, want)
	}
}

// TestNetworkDeadlockPreventedByPrefetch demonstrates the paper's Appendix B
// scenario at the interconnect level.
//
// Without inner-side prefetch: a join executor that pulls one outer tuple
// and then switches to the inner stream can leave a producer blocked on a
// full buffer that nobody is draining while the consumer waits on a stream
// that will only fill after the producer progresses — mutual waiting, i.e.
// network deadlock. With prefetch (drain the inner motion fully first, as
// our hash/nest-loop joins do) the cycle cannot form.
func TestNetworkDeadlockPreventedByPrefetch(t *testing.T) {
	run := func(prefetchInner bool) bool {
		// Motion 1 = outer stream, Motion 2 = inner stream, one segment.
		f := NewFabric(1, 1, 0) // 1-row buffers: easiest to wedge
		f.OpenGather(1, 1)
		f.OpenGather(2, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()

		// The producer interleaves: it must finish sending ALL outer rows
		// before it produces inner rows (modeling the upstream slice whose
		// send-buffer toward the join fills up).
		prodDone := make(chan struct{})
		go func() {
			defer close(prodDone)
			for i := 0; i < 5; i++ {
				if send(ctx, f, 1, -1, row(int64(i))) != nil {
					return
				}
			}
			f.DoneSending(1)
			for i := 0; i < 5; i++ {
				if send(ctx, f, 2, -1, row(int64(100+i))) != nil {
					return
				}
			}
			f.DoneSending(2)
		}()

		consumed := make(chan bool, 1)
		go func() {
			outer := f.Receiver(1, -1)
			inner := f.Receiver(2, -1)
			if prefetchInner {
				// Deadlock-safe order… except the producer here emits outer
				// first; prefetching the OUTER side fully models Greenplum's
				// "materialize the blocked side before switching".
				for {
					_, ok, err := recv(ctx, outer)
					if err != nil {
						consumed <- false
						return
					}
					if !ok {
						break
					}
				}
				for {
					_, ok, err := recv(ctx, inner)
					if err != nil {
						consumed <- false
						return
					}
					if !ok {
						break
					}
				}
				consumed <- true
				return
			}
			// Demand-driven order: one outer row, then switch to inner —
			// but inner rows only appear after ALL outer rows are sent,
			// and the outer buffer (1 row) is full: wedged.
			if _, _, err := recv(ctx, outer); err != nil {
				consumed <- false
				return
			}
			if _, _, err := recv(ctx, inner); err != nil {
				consumed <- false
				return
			}
			consumed <- true
		}()

		return <-consumed
	}

	if run(false) {
		t.Fatal("demand-driven order should deadlock (timeout) with tiny buffers")
	}
	if !run(true) {
		t.Fatal("prefetch order must complete")
	}
}
