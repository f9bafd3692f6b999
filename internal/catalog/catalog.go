// Package catalog maintains the cluster-wide metadata: table definitions with
// Greenplum-style distribution policies and range partitions, roles, and
// resource-group bindings. The catalog lives on the coordinator and is
// replicated (by value) to segments at dispatch time.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/types"
)

// TableID uniquely identifies a table (or leaf partition).
type TableID uint32

// Distribution mirrors Greenplum's three distribution policies.
type Distribution uint8

// Distribution policies.
const (
	// DistHash routes each row by the hash of its distribution-key columns.
	DistHash Distribution = iota
	// DistRandom round-robins rows across segments.
	DistRandom
	// DistReplicated stores a full copy on every segment.
	DistReplicated
)

func (d Distribution) String() string {
	switch d {
	case DistHash:
		return "hash"
	case DistRandom:
		return "random"
	default:
		return "replicated"
	}
}

// Storage selects a storage engine for a table or partition (paper §3.4).
type Storage uint8

// Storage engines.
const (
	// Heap is row-oriented MVCC storage suited to frequent updates/deletes.
	Heap Storage = iota
	// AORow is append-optimized row-oriented storage for bulk loads.
	AORow
	// AOColumn is append-optimized column-oriented storage with per-column
	// compression, for wide analytical scans.
	AOColumn
)

func (s Storage) String() string {
	switch s {
	case AORow:
		return "ao_row"
	case AOColumn:
		return "ao_column"
	default:
		return "heap"
	}
}

// Partition describes one leaf of a range-partitioned table. The partition
// holds rows with Start <= key < End.
type Partition struct {
	ID      TableID
	Name    string
	Start   types.Datum
	End     types.Datum
	Storage Storage
}

// Table is the full description of a user table.
type Table struct {
	ID           TableID
	Name         string
	Schema       *types.Schema
	Distribution Distribution
	DistKeyCols  []int // schema offsets of the distribution keys (DistHash)
	Storage      Storage
	PartitionCol int // schema offset of the range-partition key, -1 if none
	Partitions   []Partition
	Indexes      []*Index

	// place packs the table's live row placement: the number of segments
	// its rows currently hash across (high 16 bits) and the distribution-map
	// version (low 48 bits). Zero width means "cluster boot width": tables
	// on clusters that never expanded. Routing reads it lock-free on every
	// dispatch; the online-expansion flip is the only writer after create.
	place atomic.Uint64
	// RoundRobin is the placement cursor of a DISTRIBUTED RANDOMLY table:
	// plan.RouteRow sends each row to the segment after the last one's, so
	// one-row statements spread like one many-row statement does.
	RoundRobin atomic.Uint64
}

// Placement returns the table's distribution width (0 = use the cluster's
// boot width) and its distribution-map version.
func (t *Table) Placement() (nseg int, version uint64) {
	v := t.place.Load()
	return int(v >> 48), v & (1<<48 - 1)
}

// SetPlacement publishes a new distribution width and map version.
func (t *Table) SetPlacement(nseg int, version uint64) {
	t.place.Store(uint64(nseg)<<48 | version&(1<<48-1))
}

// Index describes a secondary index.
type Index struct {
	Name    string
	Table   string
	Columns []int // schema offsets
}

// IsPartitioned reports whether the table has range partitions.
func (t *Table) IsPartitioned() bool { return t.PartitionCol >= 0 }

// PartitionFor returns the leaf partition owning key, or nil when no
// partition's range covers it.
func (t *Table) PartitionFor(key types.Datum) *Partition {
	for i := range t.Partitions {
		p := &t.Partitions[i]
		if types.Compare(key, p.Start) >= 0 && types.Compare(key, p.End) < 0 {
			return p
		}
	}
	return nil
}

// Role is a database user bound to a resource group.
type Role struct {
	Name          string
	ResourceGroup string
}

// ResourceGroupDef captures the WITH(...) options of CREATE RESOURCE GROUP.
type ResourceGroupDef struct {
	Name           string
	Concurrency    int    // max concurrent queries admitted
	CPURateLimit   int    // percentage share of CPU (soft); 0 = unset
	CPUSet         string // "0-3" style hard core assignment; "" = unset
	MemoryLimit    int    // percentage of global memory for the group
	MemSharedQuota int    // percentage of group memory shared between slots
	// MemSpillRatio is the percentage of the slot quota a query's blocking
	// operators may hold in memory before spilling to disk (the executor's
	// spill budget; see resgroup.Group.SpillBudget). 0 = use the cluster
	// default (cluster.Config.MemorySpillRatio).
	MemSpillRatio int
}

// Catalog is the metadata store. All methods are safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	nextID TableID
	tables map[string]*Table
	roles  map[string]*Role
	groups map[string]*ResourceGroupDef
	// tstats holds the per-table optimizer statistics ANALYZE collected,
	// keyed by lower-case table name. Validity against later writes is the
	// cluster's job (stats.TableStats.Gen vs its statsGen write-tracking).
	tstats map[string]*stats.TableStats
}

// New returns an empty catalog with the two built-in resource groups
// (default_group, admin_group) that Greenplum ships with.
func New() *Catalog {
	c := &Catalog{
		nextID: 1,
		tables: make(map[string]*Table),
		roles:  make(map[string]*Role),
		groups: make(map[string]*ResourceGroupDef),
		tstats: make(map[string]*stats.TableStats),
	}
	// The built-in groups leave MemSpillRatio at 0 so they track the
	// cluster default (cluster.Config.MemorySpillRatio) instead of pinning
	// their own ratio.
	c.groups["default_group"] = &ResourceGroupDef{
		Name: "default_group", Concurrency: 20, CPURateLimit: 30,
		MemoryLimit: 30, MemSharedQuota: 50,
	}
	c.groups["admin_group"] = &ResourceGroupDef{
		Name: "admin_group", Concurrency: 10, CPURateLimit: 10,
		MemoryLimit: 10, MemSharedQuota: 50,
	}
	c.roles["gpadmin"] = &Role{Name: "gpadmin", ResourceGroup: "admin_group"}
	return c
}

// CreateTable registers a table; leaf partitions get their own TableIDs.
func (c *Catalog) CreateTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("catalog: table %q already exists", t.Name)
	}
	t.ID = c.nextID
	c.nextID++
	for i := range t.Partitions {
		t.Partitions[i].ID = c.nextID
		c.nextID++
	}
	c.tables[key] = t
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	delete(c.tstats, key)
	return nil
}

// RenameTableOver re-keys table oldName under newName, replacing the table
// that holds that name, in one critical section — the online-expansion flip:
// the widened staging table takes over the original's name, and a lookup of
// that name at any moment finds the original or its replacement, never
// neither. The renamed table keeps its ID and leaf IDs, so segment-side state
// — engines, WAL leaf bindings, mirrors, locks — carries over untouched.
// Index Table back-refs follow the rename. Statistics of both (keyed by name)
// are dropped; the caller invalidates the cluster-side generation too.
func (c *Catalog) RenameTableOver(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldKey := strings.ToLower(oldName)
	newKey := strings.ToLower(newName)
	t, ok := c.tables[oldKey]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", oldName)
	}
	if _, ok := c.tables[newKey]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", newName)
	}
	delete(c.tables, oldKey)
	delete(c.tstats, oldKey)
	delete(c.tstats, newKey)
	t.Name = newName
	for _, ix := range t.Indexes {
		ix.Table = newName
	}
	c.tables[newKey] = t
	return nil
}

// SetTableStats stores (or replaces) a table's ANALYZE statistics.
func (c *Catalog) SetTableStats(ts *stats.TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tstats[strings.ToLower(ts.Table)] = ts
}

// TableStats returns the stored ANALYZE statistics for a table, or nil.
func (c *Catalog) TableStats(name string) *stats.TableStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tstats[strings.ToLower(name)]
}

// AnalyzedTables counts tables with stored statistics.
func (c *Catalog) AnalyzedTables() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.tstats)
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// TableByID looks up a table by its id (parent ids only, not partition
// leaves); nil when no such table exists.
func (c *Catalog) TableByID(id TableID) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// HasTable reports table existence.
func (c *Catalog) HasTable(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[strings.ToLower(name)]
	return ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers a secondary index on a table.
func (c *Catalog) AddIndex(table string, idx *Index) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", table)
	}
	for _, existing := range t.Indexes {
		if existing.Name == idx.Name {
			return fmt.Errorf("catalog: index %q already exists", idx.Name)
		}
	}
	idx.Table = t.Name
	t.Indexes = append(t.Indexes, idx)
	return nil
}

// CreateResourceGroup registers a resource group definition.
func (c *Catalog) CreateResourceGroup(def *ResourceGroupDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, ok := c.groups[key]; ok {
		return fmt.Errorf("catalog: resource group %q already exists", def.Name)
	}
	c.groups[key] = def
	return nil
}

// DropResourceGroup removes a group; built-in groups cannot be dropped.
func (c *Catalog) DropResourceGroup(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if key == "default_group" || key == "admin_group" {
		return fmt.Errorf("catalog: cannot drop built-in resource group %q", name)
	}
	if _, ok := c.groups[key]; !ok {
		return fmt.Errorf("catalog: resource group %q does not exist", name)
	}
	for _, r := range c.roles {
		if strings.EqualFold(r.ResourceGroup, name) {
			return fmt.Errorf("catalog: resource group %q is assigned to role %q", name, r.Name)
		}
	}
	delete(c.groups, key)
	return nil
}

// ResourceGroup looks up a group definition.
func (c *Catalog) ResourceGroup(name string) (*ResourceGroupDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	g, ok := c.groups[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: resource group %q does not exist", name)
	}
	return g, nil
}

// ResourceGroups returns all groups sorted by name.
func (c *Catalog) ResourceGroups() []*ResourceGroupDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*ResourceGroupDef, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateRole registers a role; an empty group binds to default_group.
func (c *Catalog) CreateRole(name, group string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.roles[key]; ok {
		return fmt.Errorf("catalog: role %q already exists", name)
	}
	if group == "" {
		group = "default_group"
	}
	if _, ok := c.groups[strings.ToLower(group)]; !ok {
		return fmt.Errorf("catalog: resource group %q does not exist", group)
	}
	c.roles[key] = &Role{Name: name, ResourceGroup: group}
	return nil
}

// AlterRole rebinds a role to a resource group.
func (c *Catalog) AlterRole(name, group string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.roles[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("catalog: role %q does not exist", name)
	}
	if _, ok := c.groups[strings.ToLower(group)]; !ok {
		return fmt.Errorf("catalog: resource group %q does not exist", group)
	}
	r.ResourceGroup = group
	return nil
}

// Role looks up a role.
func (c *Catalog) Role(name string) (*Role, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.roles[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: role %q does not exist", name)
	}
	return r, nil
}
