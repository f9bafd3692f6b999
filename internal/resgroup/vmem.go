package resgroup

import (
	"fmt"
	"sync"
)

// ErrOutOfMemory is returned when a query's growth request cannot be served
// by any of the three memory layers; the resource-group policy is to cancel
// the query (paper §6).
type ErrOutOfMemory struct {
	Group     string
	Requested int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("resgroup: group %q out of memory (requested %d bytes): query cancelled", e.Group, e.Requested)
}

// Vmem is a group's memory state under the Vmemtracker model. Greenplum
// enforces three layers (paper §6):
//
//  1. slot memory — (group non-shared memory) / concurrency, per query;
//  2. group shared memory — MEMORY_SHARED_QUOTA percent of the group;
//  3. global shared memory — the cluster-wide last resort.
type Vmem struct {
	slotQuota      int64 // per-query private budget
	groupShared    int64 // remaining group-shared bytes
	groupSharedCap int64
}

// GlobalVmem is the cluster's global shared memory pool.
type GlobalVmem struct {
	mu   sync.Mutex
	free int64
	cap  int64
}

// NewGlobalVmem returns a global pool of capacity bytes.
func NewGlobalVmem(capacity int64) *GlobalVmem {
	return &GlobalVmem{free: capacity, cap: capacity}
}

// tryTake reserves n bytes from the global pool.
func (g *GlobalVmem) tryTake(n int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.free < n {
		return false
	}
	g.free -= n
	return true
}

func (g *GlobalVmem) give(n int64) {
	g.mu.Lock()
	g.free += n
	if g.free > g.cap {
		g.free = g.cap
	}
	g.mu.Unlock()
}

// Free returns the remaining global shared bytes.
func (g *GlobalVmem) Free() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.free
}

// Reserve takes n bytes out of the global pool for a long-lived consumer
// outside any group — e.g. the segments' decoded-block caches, whose capacity
// must come out of the same budget queries allocate from. It returns false
// (reserving nothing) when the pool cannot cover the request.
func (g *GlobalVmem) Reserve(n int64) bool { return g.tryTake(n) }

// Release returns bytes taken with Reserve.
func (g *GlobalVmem) Release(n int64) { g.give(n) }

// memAccount tracks one running query's usage across the three layers.
type memAccount struct {
	mu         sync.Mutex
	group      *Group
	slotUsed   int64
	groupUsed  int64 // taken from group shared
	globalUsed int64 // taken from global shared
	hwm        int64 // high-water mark of total usage
}

// Grow charges n more bytes to the query, spilling from slot quota to group
// shared to global shared; it returns *ErrOutOfMemory when all three layers
// are exhausted (the query must then be cancelled).
func (a *memAccount) Grow(n int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.group
	// Layer 1: slot quota.
	if a.slotUsed+n <= g.vmem.slotQuota {
		a.slotUsed += n
		a.noteHighWater()
		return nil
	}
	fromSlot := g.vmem.slotQuota - a.slotUsed
	if fromSlot < 0 {
		fromSlot = 0
	}
	rest := n - fromSlot
	// Layer 2: group shared.
	g.mu.Lock()
	if g.vmem.groupShared >= rest {
		g.vmem.groupShared -= rest
		g.mu.Unlock()
		a.slotUsed += fromSlot
		a.groupUsed += rest
		a.noteHighWater()
		return nil
	}
	fromGroup := g.vmem.groupShared
	g.vmem.groupShared = 0
	g.mu.Unlock()
	rest -= fromGroup
	// Layer 3: global shared.
	if g.global != nil && g.global.tryTake(rest) {
		a.slotUsed += fromSlot
		a.groupUsed += fromGroup
		a.globalUsed += rest
		a.noteHighWater()
		return nil
	}
	// Exhausted: roll back the partial group-shared take and cancel.
	g.mu.Lock()
	g.vmem.groupShared += fromGroup
	g.mu.Unlock()
	return &ErrOutOfMemory{Group: g.def.Name, Requested: n}
}

// Shrink returns n bytes, unwinding layers in reverse order of acquisition.
func (a *memAccount) Shrink(n int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	g := a.group
	fromGlobal := min(n, a.globalUsed)
	a.globalUsed -= fromGlobal
	n -= fromGlobal
	if fromGlobal > 0 && g.global != nil {
		g.global.give(fromGlobal)
	}
	fromGroup := min(n, a.groupUsed)
	a.groupUsed -= fromGroup
	n -= fromGroup
	if fromGroup > 0 {
		g.mu.Lock()
		g.vmem.groupShared += fromGroup
		if g.vmem.groupShared > g.vmem.groupSharedCap {
			g.vmem.groupShared = g.vmem.groupSharedCap
		}
		g.mu.Unlock()
	}
	a.slotUsed -= min(n, a.slotUsed)
}

// releaseAll frees everything the account holds.
func (a *memAccount) releaseAll() {
	a.mu.Lock()
	total := a.slotUsed + a.groupUsed + a.globalUsed
	a.mu.Unlock()
	if total > 0 {
		a.Shrink(total)
	}
}

// Used returns the account's current total bytes.
func (a *memAccount) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slotUsed + a.groupUsed + a.globalUsed
}

// noteHighWater records the current total as the high-water mark if it is a
// new maximum. Callers hold a.mu.
func (a *memAccount) noteHighWater() {
	if t := a.slotUsed + a.groupUsed + a.globalUsed; t > a.hwm {
		a.hwm = t
	}
}

// HighWater returns the account's peak total bytes.
func (a *memAccount) HighWater() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hwm
}

// resetHighWater rebases the peak to the current usage. The executor calls
// it at statement start so a multi-statement transaction attributes each
// statement its own peak instead of the slot's lifetime maximum.
func (a *memAccount) resetHighWater() {
	a.mu.Lock()
	a.hwm = a.slotUsed + a.groupUsed + a.globalUsed
	a.mu.Unlock()
}
