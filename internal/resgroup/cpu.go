// Package resgroup implements Greenplum's Resource Groups (paper §6):
// admission control (CONCURRENCY), CPU isolation via either proportional
// shares (CPU_RATE_LIMIT, soft — modeled on cgroup cpu.shares) or dedicated
// cores (CPUSET, hard — modeled on cgroup cpuset.cpus), and the
// three-layer Vmemtracker memory model (slot → group shared → global
// shared) with query cancellation when all layers are exhausted.
//
// The CPU substrate is a simulated multi-core machine: executing work means
// occupying one of N core slots for a quantum. CPUSET groups own dedicated
// core slots that nobody else can use; share-based groups compete for the
// shared pool under stride scheduling (lowest virtual time runs first,
// virtual time advances inversely to the group's share). Head-of-line
// blocking by long analytical quanta on shared cores — the effect resource
// groups exist to prevent — emerges naturally.
package resgroup

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// CPUSim is the simulated machine: TotalCores core slots, each quantum of
// work occupying one slot for its duration.
type CPUSim struct {
	mu         sync.Mutex
	totalCores int
	// sharedFree is the number of idle cores in the shared pool.
	sharedFree int
	sharedCap  int
	waitq      reqHeap
	seq        uint64
	// dedicated pools: group -> free-core count and capacity.
	dedFree map[string]int
	dedCap  map[string]int
	// vtime advances per group as it consumes shared CPU.
	vtime  map[string]float64
	shares map[string]float64
}

// cpuReq is one queued request for a shared core.
type cpuReq struct {
	group string
	vkey  float64 // group vtime at enqueue, for stride ordering
	seq   uint64
	grant chan struct{}
	index int
}

type reqHeap []*cpuReq

func (h reqHeap) Len() int { return len(h) }
func (h reqHeap) Less(i, j int) bool {
	if h[i].vkey != h[j].vkey {
		return h[i].vkey < h[j].vkey
	}
	return h[i].seq < h[j].seq
}
func (h reqHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *reqHeap) Push(x any) {
	r := x.(*cpuReq)
	r.index = len(*h)
	*h = append(*h, r)
}
func (h *reqHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return r
}

// NewCPUSim builds a machine with totalCores cores, all initially shared.
func NewCPUSim(totalCores int) *CPUSim {
	if totalCores < 1 {
		totalCores = 1
	}
	return &CPUSim{
		totalCores: totalCores,
		sharedFree: totalCores,
		sharedCap:  totalCores,
		dedFree:    make(map[string]int),
		dedCap:     make(map[string]int),
		vtime:      make(map[string]float64),
		shares:     make(map[string]float64),
	}
}

// SetShares registers a share-based group: pct is CPU_RATE_LIMIT.
func (c *CPUSim) SetShares(group string, pct int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pct < 1 {
		pct = 1
	}
	c.shares[group] = float64(pct)
	delete(c.dedCap, group)
	c.recomputeSharedLocked()
}

// SetCPUSet dedicates n cores to group, removing them from the shared pool.
func (c *CPUSim) SetCPUSet(group string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	if n > c.totalCores {
		n = c.totalCores
	}
	prevCap := c.dedCap[group]
	c.dedCap[group] = n
	c.dedFree[group] += n - prevCap
	if c.dedFree[group] < 0 {
		c.dedFree[group] = 0
	}
	delete(c.shares, group)
	c.recomputeSharedLocked()
}

// RemoveGroup returns a group's dedicated cores to the shared pool.
func (c *CPUSim) RemoveGroup(group string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.dedCap, group)
	delete(c.dedFree, group)
	delete(c.shares, group)
	delete(c.vtime, group)
	c.recomputeSharedLocked()
}

func (c *CPUSim) recomputeSharedLocked() {
	ded := 0
	for _, n := range c.dedCap {
		ded += n
	}
	newCap := c.totalCores - ded
	if newCap < 0 {
		newCap = 0
	}
	c.sharedFree += newCap - c.sharedCap
	c.sharedCap = newCap
	if c.sharedFree < 0 {
		c.sharedFree = 0
	}
	c.dispatchLocked()
}

// dispatchLocked grants shared cores to the lowest-vtime waiters.
func (c *CPUSim) dispatchLocked() {
	for c.sharedFree > 0 && c.waitq.Len() > 0 {
		r := heap.Pop(&c.waitq).(*cpuReq)
		c.sharedFree--
		close(r.grant)
	}
}

// Run executes one quantum of CPU work of duration d for group. It blocks
// until a core is available (dedicated core for CPUSET groups, stride-
// scheduled shared core otherwise), holds the core for d, then releases it.
// Returns early with ctx.Err() if cancelled while queued.
func (c *CPUSim) Run(ctx context.Context, group string, d time.Duration) error {
	c.mu.Lock()
	if _, isDed := c.dedCap[group]; isDed {
		// Dedicated pool: simple counting semaphore.
		for c.dedFree[group] == 0 {
			// Busy dedicated pool: wait on a local grant channel via queue
			// reuse (vkey 0 so dedicated requests order FIFO among
			// themselves — they never mix with shared requests because
			// dispatchLocked only grants shared cores; instead we poll the
			// dedicated pool with a small wait).
			c.mu.Unlock()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Microsecond):
			}
			c.mu.Lock()
		}
		c.dedFree[group]--
		c.mu.Unlock()
		sleep(d)
		c.mu.Lock()
		c.dedFree[group]++
		c.mu.Unlock()
		return nil
	}

	share := c.shares[group]
	if share == 0 {
		share = 10 // unregistered groups get a small default share
		c.shares[group] = share
	}
	if c.sharedFree > 0 && c.waitq.Len() == 0 {
		c.sharedFree--
		c.vtime[group] += float64(d) / share
		c.mu.Unlock()
	} else {
		r := &cpuReq{group: group, vkey: c.vtime[group], seq: c.seq, grant: make(chan struct{})}
		c.seq++
		heap.Push(&c.waitq, r)
		c.vtime[group] += float64(d) / share
		c.mu.Unlock()
		select {
		case <-r.grant:
		case <-ctx.Done():
			c.mu.Lock()
			select {
			case <-r.grant:
				// Granted concurrently; give the core back.
				c.sharedFree++
				c.dispatchLocked()
			default:
				if r.index >= 0 && r.index < c.waitq.Len() && c.waitq[r.index] == r {
					heap.Remove(&c.waitq, r.index)
				}
			}
			c.mu.Unlock()
			return ctx.Err()
		}
	}
	sleep(d)
	c.mu.Lock()
	c.sharedFree++
	c.dispatchLocked()
	c.mu.Unlock()
	return nil
}

// sleep is indirected for tests.
var sleep = time.Sleep
