// Package interconnect implements the motion fabric that moves tuples
// between slices (paper §3.2 and Appendix B). Each motion owns one bounded
// stream per receiving location; a bounded buffer models the UDP
// send-buffer + ACK flow control: a sender whose peer's buffer is full
// blocks, exactly the waiting relationship that can produce network deadlock
// when executors demand tuples in the wrong order.
//
// Streams are batch-framed: each channel operation carries a whole
// types.RowBatch, so the executor pays one send per batch, and buffer
// capacity is counted in sends.
//
// The batch containers circulate like a connection's fixed send buffers: a
// receiver gives each container back to its stream when it asks for the next
// batch, and senders fill their next batch into a given-back container
// (Container) instead of allocating one. A stream's free list holds at most
// buffer + senders + 1 containers — every container that can be in flight at
// once — and never blocks: a container released to a full list is dropped,
// and a sender that finds the list empty gets a fresh one. The list is made
// only once a sender asks for more containers than the stream has senders,
// so a stream that carries one batch per sender allocates nothing for it.
package interconnect

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// Fabric is the per-query interconnect: a set of motion streams keyed by
// (sending slice, receiving location).
type Fabric struct {
	nseg    int
	bufSize int
	// delay simulates per-batch network latency on Send (0 = off).
	delay time.Duration

	mu      sync.Mutex
	streams map[streamKey]*stream

	rows    atomic.Int64
	batches atomic.Int64
}

type streamKey struct {
	slice int
	dest  int // segment id, or -1 for the coordinator (gather)
}

type stream struct {
	ch      chan *types.RowBatch
	senders int32 // open sender count; the last DoneSending closes ch
	nsend   int32 // senders the stream was opened with
	made    int32 // containers handed out before free was made; guarded by Fabric.mu
	free    atomic.Pointer[freeList]
}

// freeList holds the containers a stream's receiver gave back, at most
// buffer + senders + 1 of them.
type freeList struct {
	mu   sync.Mutex
	bufs []*types.RowBatch
}

// NewFabric builds a fabric for nseg segments with the given per-stream
// buffer capacity (sends) and optional per-send latency.
func NewFabric(nseg, bufSize int, delay time.Duration) *Fabric {
	if bufSize < 1 {
		bufSize = 1
	}
	return &Fabric{
		nseg:    nseg,
		bufSize: bufSize,
		delay:   delay,
		streams: make(map[streamKey]*stream),
	}
}

// OpenGather creates the single coordinator-bound stream of a gather motion
// with senders sending segments.
func (f *Fabric) OpenGather(slice, senders int) {
	f.open(streamKey{slice: slice, dest: -1}, senders)
}

// OpenFanOut creates one stream per segment for a redistribute or broadcast
// motion, each fed by senders sending segments.
func (f *Fabric) OpenFanOut(slice, senders int) {
	for d := 0; d < f.nseg; d++ {
		f.open(streamKey{slice: slice, dest: d}, senders)
	}
}

func (f *Fabric) open(k streamKey, senders int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.streams[k]; ok {
		return
	}
	f.streams[k] = &stream{ch: make(chan *types.RowBatch, f.bufSize), senders: int32(senders), nsend: int32(senders)}
}

func (f *Fabric) get(k streamKey) (*stream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.streams[k]
	if !ok {
		return nil, fmt.Errorf("interconnect: no stream for slice %d dest %d", k.slice, k.dest)
	}
	return s, nil
}

// Container returns an empty row batch, with room for n rows, for a sender
// to fill and hand to SendBatch on the (slice, dest) stream: a container a
// receiver of that stream gave back when there is one, else a fresh one.
// A given-back container too small for n rows grows to n at once.
func (f *Fabric) Container(slice, dest, n int) *types.RowBatch {
	var b *types.RowBatch
	if l := f.freeList(streamKey{slice: slice, dest: dest}); l != nil {
		b = l.take()
	}
	if b == nil {
		b = new(types.RowBatch)
	}
	if cap(b.Rows) < n {
		*b = types.RowBatch{Rows: make([]types.Row, 0, n)}
	} else {
		*b = types.RowBatch{Rows: b.Rows[:0]}
	}
	return b
}

// freeList returns the stream's free list, making it once the stream has
// handed out more containers than it has senders; nil until then, or when
// there is no such stream.
func (f *Fabric) freeList(k streamKey) *freeList {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.streams[k]
	if !ok {
		return nil
	}
	l := s.free.Load()
	if l == nil {
		if s.made++; s.made > s.nsend {
			l = &freeList{bufs: make([]*types.RowBatch, 0, f.bufSize+int(s.nsend)+1)}
			s.free.Store(l)
		}
	}
	return l
}

// take pops a given-back container, or returns nil.
func (l *freeList) take() *types.RowBatch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.bufs)
	if n == 0 {
		return nil
	}
	b := l.bufs[n-1]
	l.bufs[n-1] = nil
	l.bufs = l.bufs[:n-1]
	return b
}

// release gives a container back, dropping it when the list is full.
func (l *freeList) release(b *types.RowBatch) {
	l.mu.Lock()
	if len(l.bufs) < cap(l.bufs) {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// SendBatch delivers a whole batch to the given destination of the slice's
// motion in one stream operation, blocking while the destination buffer is
// full (flow control). dest -1 is the coordinator. The batch is handed off:
// from the send on it belongs to the receiver, which narrows its selection
// in place and later gives the container back to the stream, so the sender
// must not read or reuse it afterwards.
func (f *Fabric) SendBatch(ctx context.Context, slice, dest int, b *types.RowBatch) error {
	if b == nil {
		return nil
	}
	n := b.Len()
	if n == 0 {
		return nil
	}
	s, err := f.get(streamKey{slice: slice, dest: dest})
	if err != nil {
		return err
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	select {
	case s.ch <- b:
		f.rows.Add(int64(n))
		f.batches.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// DoneSending signals that one sender of the slice finished; the last
// sender closes every destination stream of the motion.
func (f *Fabric) DoneSending(slice int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, s := range f.streams {
		if k.slice != slice {
			continue
		}
		if atomic.AddInt32(&s.senders, -1) == 0 {
			close(s.ch)
		}
	}
}

// Receiver returns the exec-facing receive endpoint for (slice, dest).
func (f *Fabric) Receiver(slice, dest int) *StreamReceiver {
	s, err := f.get(streamKey{slice: slice, dest: dest})
	if err != nil {
		return &StreamReceiver{err: err}
	}
	return &StreamReceiver{s: s}
}

// Stats returns the rows moved through the fabric and how many stream
// operations (batches) carried them — the fabric's framing efficiency.
func (f *Fabric) Stats() (rows, batches int64) {
	return f.rows.Load(), f.batches.Load()
}

// StreamReceiver adapts a stream to the executor's Receiver interface. A
// StreamReceiver is consumed by a single goroutine (one receiving location
// of one motion).
type StreamReceiver struct {
	s    *stream
	err  error
	last *types.RowBatch // the batch returned last, given back on the next call
}

// RecvBatch implements exec.Receiver: one stream operation per batch. The
// returned batch is valid until the next RecvBatch, which gives its
// container back to the stream for a sender to refill.
func (r *StreamReceiver) RecvBatch(ctx context.Context) (*types.RowBatch, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	if l := r.s.free.Load(); l != nil && r.last != nil {
		l.release(r.last)
	}
	r.last = nil
	select {
	case b, ok := <-r.s.ch:
		r.last = b
		return b, ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}
