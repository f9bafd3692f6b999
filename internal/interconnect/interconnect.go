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
	bytes   atomic.Int64
}

type streamKey struct {
	slice int
	dest  int // segment id, or -1 for the coordinator (gather)
}

type stream struct {
	ch      chan *types.RowBatch
	senders int32 // open sender count; the last DoneSending closes ch
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
	f.streams[k] = &stream{ch: make(chan *types.RowBatch, f.bufSize), senders: int32(senders)}
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

// SendBatch delivers a whole batch to the given destination of the slice's
// motion in one stream operation, blocking while the destination buffer is
// full (flow control). dest -1 is the coordinator. The batch is handed off:
// the sender must not reuse its container afterwards.
func (f *Fabric) SendBatch(ctx context.Context, slice, dest int, b *types.RowBatch) error {
	if b == nil || b.Len() == 0 {
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
		f.rows.Add(int64(b.Len()))
		f.batches.Add(1)
		f.bytes.Add(b.Size())
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

// Stats returns rows and bytes moved through the fabric.
func (f *Fabric) Stats() (rows, bytes int64) {
	return f.rows.Load(), f.bytes.Load()
}

// BatchStats returns how many stream operations (batches) carried those
// rows — the fabric's framing efficiency.
func (f *Fabric) BatchStats() (batches int64) {
	return f.batches.Load()
}

// StreamReceiver adapts a stream to the executor's Receiver interface. A
// StreamReceiver is consumed by a single goroutine (one receiving location
// of one motion).
type StreamReceiver struct {
	s   *stream
	err error
}

// RecvBatch implements exec.Receiver: one stream operation per batch. The
// returned batch is owned by the caller.
func (r *StreamReceiver) RecvBatch(ctx context.Context) (*types.RowBatch, bool, error) {
	if r.err != nil {
		return nil, false, r.err
	}
	select {
	case b, ok := <-r.s.ch:
		return b, ok, nil
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}
