package cluster

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/interconnect"
	"repro/internal/plan"
	"repro/internal/types"
)

// repeatRecv hands its sending slice the same batch k times, so the only
// allocation that can grow with k is the motion's own.
type repeatRecv struct {
	b    *types.RowBatch
	left int
}

func (r *repeatRecv) RecvBatch(context.Context) (*types.RowBatch, bool, error) {
	if r.left == 0 {
		return nil, false, nil
	}
	r.left--
	return r.b, true, nil
}

// runMotion sends k copies of b through one sender of a motion of the given
// type over nseg segments, with a draining receiver on every stream, and
// returns the bytes allocated and the rows each stream received.
func runMotion(t *testing.T, typ plan.MotionType, nseg, k int, b *types.RowBatch) (uint64, []int) {
	t.Helper()
	ctx := context.Background()
	const slice = 1
	m := &plan.Motion{Type: typ, SliceID: slice, Child: &plan.Motion{SliceID: 2},
		HashExprs: []plan.Expr{&plan.ColRef{Idx: 0, Typ: types.KindInt}}}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := interconnect.NewFabric(nseg, motionSlots, 0)
	dests := []int{-1}
	if typ == plan.MotionGather {
		f.OpenGather(slice, 1)
	} else {
		f.OpenFanOut(slice, 1)
		dests = make([]int, nseg)
		for d := range dests {
			dests[d] = d
		}
	}
	got := make([]int, len(dests))
	// The receivers reach their first receive before the sender starts, as
	// they do when a statement's slices start together: on one P each runs
	// until it waits on its stream, the last one first readying the sender.
	var wg, ready sync.WaitGroup
	for i, d := range dests {
		wg.Add(1)
		ready.Add(1)
		go func(i int, r *interconnect.StreamReceiver) {
			defer wg.Done()
			ready.Done()
			for {
				rb, ok, err := r.RecvBatch(ctx)
				if err != nil || !ok {
					return
				}
				got[i] += rb.Len()
				rb.Sel = []int{} // receivers narrow selections in place
			}
		}(i, f.Receiver(slice, d))
	}
	ready.Wait()
	ec := &exec.Context{Ctx: ctx, NumSegments: nseg,
		Recv: func(int) exec.Receiver { return &repeatRecv{b: b, left: k} }}
	err := runBatchSlice(ctx, ec, m, f, nseg)
	f.DoneSending(slice)
	wg.Wait()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc, got
}

// TestMotionContainersRecycle: a motion sender fills its batches into
// containers its receivers gave back, so the bytes a Gather, Broadcast or
// Redistribute allocates do not grow with the batches it moves — 64 input
// batches cost less than one container per stream more than 8 do. (A
// container copied per send grows by one per batch and stream.)
func TestMotionContainersRecycle(t *testing.T) {
	const nseg, rows = 4, types.DefaultBatchSize
	b := types.NewRowBatch(rows)
	for i := 0; i < rows; i++ {
		b.Append(types.Row{types.NewInt(int64(i)), types.NewText("x")})
	}
	container := uint64(rows)*uint64(unsafe.Sizeof(types.Row{})) + uint64(unsafe.Sizeof(types.RowBatch{}))
	// On one P the sender and the receivers interleave the same way at any
	// K, so how many containers a stream makes before they circulate does
	// not depend on the scheduler.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		typ     plan.MotionType
		streams int
	}{{plan.MotionGather, 1}, {plan.MotionBroadcast, nseg}, {plan.MotionRedistribute, nseg}} {
		t.Run(tc.typ.String(), func(t *testing.T) {
			// The least of three runs, so a stray allocation by another
			// goroutine cannot fail the gate.
			measure := func(k int) uint64 {
				best := ^uint64(0)
				for i := 0; i < 3; i++ {
					n, got := runMotion(t, tc.typ, nseg, k, b)
					total := 0
					for _, g := range got {
						total += g
					}
					want := k * rows
					if tc.typ == plan.MotionBroadcast {
						want *= nseg
					}
					if total != want {
						t.Fatalf("K=%d: streams received %v rows, want %d in all", k, got, want)
					}
					best = min(best, n)
				}
				return best
			}
			small, large := measure(8), measure(64)
			t.Logf("K=8: %d bytes, K=64: %d bytes (a container is %d bytes, %d streams)", small, large, container, tc.streams)
			if large > small && large-small >= uint64(tc.streams)*container {
				t.Fatalf("64 batches allocate %d bytes more than 8, want < %d (one container per stream)", large-small, uint64(tc.streams)*container)
			}
		})
	}
}
