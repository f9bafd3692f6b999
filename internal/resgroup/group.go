package resgroup

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// Group is the runtime state of one resource group.
type Group struct {
	def    catalog.ResourceGroupDef
	mgr    *Manager
	global *GlobalVmem

	mu   sync.Mutex
	vmem Vmem

	// admission is the CONCURRENCY semaphore.
	admission chan struct{}

	// metrics
	admitted  int64
	cancelled int64
}

// Manager owns all resource groups plus the shared CPU and memory
// substrates.
type Manager struct {
	mu     sync.Mutex
	groups map[string]*Group
	cpu    *CPUSim
	global *GlobalVmem
	total  int64 // total cluster memory
	// granted tracks the MEMORY_LIMIT percentages already handed out, so the
	// global shared pool is what remains.
	grantedPct int
	// admWaits counts admissions that had to queue on a full CONCURRENCY
	// semaphore (nil-safe obs handle; set by the cluster's registry).
	admWaits *obs.Counter
}

// SetAdmissionWaits wires the counter incremented whenever an Admit call
// blocks waiting for a concurrency slot.
func (m *Manager) SetAdmissionWaits(c *obs.Counter) { m.admWaits = c }

// NewManager builds a manager simulating a machine with cores CPU cores and
// totalMemory bytes of RAM.
func NewManager(cores int, totalMemory int64) *Manager {
	return &Manager{
		groups: make(map[string]*Group),
		cpu:    NewCPUSim(cores),
		global: NewGlobalVmem(totalMemory), // shrinks as groups claim memory
		total:  totalMemory,
	}
}

// CPU exposes the simulated machine (the executor charges quanta to it).
func (m *Manager) CPU() *CPUSim { return m.cpu }

// Global exposes the global shared memory pool.
func (m *Manager) Global() *GlobalVmem { return m.global }

// parseCPUSetCount converts a "0-3" / "16-31" / "5" cpuset spec to a core
// count.
func parseCPUSetCount(spec string) (int, error) {
	if spec == "" {
		return 0, fmt.Errorf("resgroup: empty cpuset")
	}
	n := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, found := strings.Cut(part, "-"); found {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return 0, fmt.Errorf("resgroup: bad cpuset range %q", part)
			}
			n += b - a + 1
		} else {
			if _, err := strconv.Atoi(part); err != nil {
				return 0, fmt.Errorf("resgroup: bad cpuset %q", part)
			}
			n++
		}
	}
	return n, nil
}

// CreateGroup instantiates runtime state for def. Memory layers follow the
// paper: slot = non-shared group memory / concurrency; group shared =
// MEMORY_SHARED_QUOTA percent of group memory; the global pool shrinks by
// the group's MEMORY_LIMIT.
func (m *Manager) CreateGroup(def catalog.ResourceGroupDef) (*Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, ok := m.groups[key]; ok {
		return nil, fmt.Errorf("resgroup: group %q already exists", def.Name)
	}
	conc := def.Concurrency
	if conc < 1 {
		conc = 1
	}
	groupMem := m.total * int64(def.MemoryLimit) / 100
	sharedQuota := int64(def.MemSharedQuota)
	groupShared := groupMem * sharedQuota / 100
	slotQuota := (groupMem - groupShared) / int64(conc)
	g := &Group{
		def:    def,
		mgr:    m,
		global: m.global,
		vmem: Vmem{
			slotQuota:      slotQuota,
			groupShared:    groupShared,
			groupSharedCap: groupShared,
		},
		admission: make(chan struct{}, conc),
	}
	// Claim the group's memory out of the global pool.
	if groupMem > 0 && !m.global.tryTake(groupMem) {
		return nil, fmt.Errorf("resgroup: not enough global memory for group %q", def.Name)
	}
	if def.CPUSet != "" {
		n, err := parseCPUSetCount(def.CPUSet)
		if err != nil {
			m.global.give(groupMem)
			return nil, err
		}
		m.cpu.SetCPUSet(key, n)
	} else {
		pct := def.CPURateLimit
		if pct <= 0 {
			pct = 10
		}
		m.cpu.SetShares(key, pct)
	}
	m.groups[key] = g
	return g, nil
}

// DropGroup removes a group and returns its resources.
func (m *Manager) DropGroup(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := strings.ToLower(name)
	g, ok := m.groups[key]
	if !ok {
		return fmt.Errorf("resgroup: group %q does not exist", name)
	}
	groupMem := m.total * int64(g.def.MemoryLimit) / 100
	m.global.give(groupMem)
	m.cpu.RemoveGroup(key)
	delete(m.groups, key)
	return nil
}

// Group returns the runtime group by name.
func (m *Manager) Group(name string) (*Group, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[strings.ToLower(name)]
	return g, ok
}

// Slot is one admitted query's resource handle.
type Slot struct {
	group *Group
	acct  memAccount
	done  bool
	mu    sync.Mutex
}

// Admit blocks until the group has a free concurrency slot (paper §6:
// CONCURRENCY "controls the maximum number of connections"). It fails with
// ctx's error if cancelled while queued.
func (g *Group) Admit(ctx context.Context) (*Slot, error) {
	select {
	case g.admission <- struct{}{}:
	default:
		g.mgr.admWaits.Add(1)
		select {
		case g.admission <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	g.mu.Lock()
	g.admitted++
	g.mu.Unlock()
	s := &Slot{group: g}
	s.acct.group = g
	return s, nil
}

// ChargeCPU performs d worth of CPU work under the group's CPU policy.
func (s *Slot) ChargeCPU(ctx context.Context, d time.Duration) error {
	return s.group.mgr.cpu.Run(ctx, strings.ToLower(s.group.def.Name), d)
}

// Grow charges memory; an *ErrOutOfMemory means the query must cancel.
func (s *Slot) Grow(n int64) error {
	err := s.acct.Grow(n)
	if err != nil {
		s.group.mu.Lock()
		s.group.cancelled++
		s.group.mu.Unlock()
	}
	return err
}

// Shrink returns memory early (e.g. a hash table freed mid-query).
func (s *Slot) Shrink(n int64) { s.acct.Shrink(n) }

// MemoryUsed returns the slot's accounted bytes.
func (s *Slot) MemoryUsed() int64 { return s.acct.Used() }

// MemoryHighWater returns the slot's peak accounted bytes — the vmem
// high-water mark a spilling executor is expected to keep near the spill
// budget instead of the full working set.
func (s *Slot) MemoryHighWater() int64 { return s.acct.HighWater() }

// ResetMemoryHighWater rebases the peak to current usage; the executor
// calls it per statement so peaks attribute to the statement that caused
// them, not the slot's (transaction's) lifetime.
func (s *Slot) ResetMemoryHighWater() { s.acct.resetHighWater() }

// Release frees all memory and the concurrency slot. Idempotent.
func (s *Slot) Release() {
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.mu.Unlock()
	s.acct.releaseAll()
	<-s.group.admission
}

// InUse returns the number of concurrency slots currently held — the
// session-teardown leak assertions of the connection-churn tests check it
// returns to zero after every socket is gone.
func (g *Group) InUse() int { return len(g.admission) }

// Stats returns admission and cancellation counters.
func (g *Group) Stats() (admitted, cancelled int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted, g.cancelled
}

// SlotQuota returns the per-query private memory budget (for tests).
func (g *Group) SlotQuota() int64 { return g.vmem.slotQuota }

// SpillBudget derives a statement's operator-memory budget — the bytes its
// blocking operators (sort, hash agg, hash join) may hold before spilling to
// disk: slot quota × memory_spill_ratio percent. Precedence for the ratio:
// sessionRatio (SET memory_spill_ratio; < 0 = unset), then the group's
// MEMORY_SPILL_RATIO, then defRatio (the cluster default). A resolved ratio
// of 0 disables spilling: operators grow in memory until the Vmemtracker
// cancels the query.
func (g *Group) SpillBudget(sessionRatio, defRatio int) int64 {
	ratio := defRatio
	if g.def.MemSpillRatio > 0 {
		ratio = g.def.MemSpillRatio
	}
	if sessionRatio >= 0 {
		ratio = sessionRatio
	}
	if ratio <= 0 {
		return 0
	}
	if ratio > 100 {
		ratio = 100
	}
	return g.vmem.slotQuota * int64(ratio) / 100
}

// GroupSharedFree returns the remaining group-shared bytes (for tests).
func (g *Group) GroupSharedFree() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.vmem.groupShared
}
