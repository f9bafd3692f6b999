package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/types"
)

// Locus describes where a node's output lives in the cluster.
type Locus uint8

// Loci.
const (
	// LocusPartitioned means rows are spread across segments.
	LocusPartitioned Locus = iota
	// LocusHashed means rows are spread by hash of specific columns.
	LocusHashed
	// LocusReplicated means every segment holds all rows.
	LocusReplicated
	// LocusSingle means all rows live in the coordinator slice.
	LocusSingle
)

func (l Locus) String() string {
	switch l {
	case LocusHashed:
		return "hashed"
	case LocusReplicated:
		return "replicated"
	case LocusSingle:
		return "single"
	default:
		return "partitioned"
	}
}

// Node is a physical plan node.
type Node interface {
	Schema() *types.Schema
	Children() []Node
	// Explain returns the one-line description used by EXPLAIN output.
	Explain() string
}

// MotionType enumerates the paper's data movement operators.
type MotionType uint8

// Motion types.
const (
	// MotionGather collects all segment streams into the coordinator slice.
	MotionGather MotionType = iota
	// MotionRedistribute reshuffles rows by hash of HashCols.
	MotionRedistribute
	// MotionBroadcast replicates the stream to every segment.
	MotionBroadcast
)

func (m MotionType) String() string {
	switch m {
	case MotionRedistribute:
		return "Redistribute Motion"
	case MotionBroadcast:
		return "Broadcast Motion"
	default:
		return "Gather Motion"
	}
}

// Scan reads a table (all partitions, or the pruned subset). Filter is
// applied during the scan; Project (optional) narrows emitted columns —
// the AO-column engine exploits it to decode fewer column files.
type Scan struct {
	Table      *catalog.Table
	Partitions []catalog.TableID // leaf table ids to scan; nil = unpartitioned base
	Filter     Expr
	// Project lists the column offsets the plan above actually reads
	// (including filter columns); nil = all. Unread columns surface as NULL
	// at their original offsets, so ColRef indexes stay valid. Set by
	// pruneColumns, which knows every reader of the scan.
	Project []int
	// ScanPred is the sargable part of Filter, pushed into the storage
	// layer for zone-map block skipping (deriveScan). Advisory: Filter
	// still runs row-by-row over the blocks that survive.
	ScanPred  ScanPredicate
	ForUpdate bool
	// OnSeg restricts the scan to one segment (-1 = every segment). Used for
	// replicated tables whose placement has not yet been widened to the live
	// segment count by online expansion: only the original segments hold a
	// copy, so the plan scans a single one and redistributes.
	OnSeg  int
	schema *types.Schema
}

// NewScan builds a scan of t with the given pruned leaf set.
func NewScan(t *catalog.Table, parts []catalog.TableID, filter Expr) *Scan {
	return &Scan{Table: t, Partitions: parts, Filter: filter, OnSeg: -1, schema: t.Schema}
}

// Schema implements Node.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Explain implements Node.
func (s *Scan) Explain() string {
	out := fmt.Sprintf("Seq Scan on %s", s.Table.Name)
	if s.Table.IsPartitioned() && len(s.Partitions) < len(s.Table.Partitions) {
		out += fmt.Sprintf(" (%d of %d partitions)", len(s.Partitions), len(s.Table.Partitions))
	}
	if s.Filter != nil {
		out += " Filter: " + s.Filter.String()
	}
	if s.ScanPred != nil {
		out += " Pushdown: " + s.ScanPred.String()
	}
	if s.Project != nil {
		out += " Columns: " + colNames(s.schema, s.Project)
	}
	return out
}

// colNames renders column offsets of a schema for EXPLAIN.
func colNames(sch *types.Schema, cols []int) string {
	if len(cols) == 0 {
		return "(none)"
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = sch.Columns[c].Name
	}
	return strings.Join(names, ", ")
}

// IndexScan probes a hash index with constant key values.
type IndexScan struct {
	Table *catalog.Table
	Index *catalog.Index
	// KeyVals are the probe values, one per indexed column, in index order.
	KeyVals   []Expr
	Filter    Expr // residual predicate
	ForUpdate bool
}

// Schema implements Node.
func (s *IndexScan) Schema() *types.Schema { return s.Table.Schema }

// Children implements Node.
func (s *IndexScan) Children() []Node { return nil }

// Explain implements Node.
func (s *IndexScan) Explain() string {
	return "Index Scan using " + s.Index.Name + " on " + s.Table.Name
}

// Project computes output expressions.
type Project struct {
	Child  Node
	Exprs  []Expr
	schema *types.Schema
}

// NewProject builds a projection with the given output column names.
func NewProject(child Node, exprs []Expr, names []string) *Project {
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = e.String()
		}
		cols[i] = types.Column{Name: name, Kind: e.Kind()}
	}
	return &Project{Child: child, Exprs: exprs, schema: &types.Schema{Columns: cols}}
}

// Schema implements Node.
func (p *Project) Schema() *types.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Explain implements Node.
func (p *Project) Explain() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Filter drops rows failing Cond.
type Filter struct {
	Child Node
	Cond  Expr
}

// Schema implements Node.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Explain implements Node.
func (f *Filter) Explain() string { return "Filter: " + f.Cond.String() }

// JoinKind is inner or left-outer.
type JoinKind uint8

// Join kinds.
const (
	// JoinInner keeps matching pairs.
	JoinInner JoinKind = iota
	// JoinLeft keeps all left rows, null-extending unmatched ones.
	JoinLeft
)

func (k JoinKind) String() string {
	if k == JoinLeft {
		return "Left"
	}
	return "Inner"
}

// HashJoin joins on equality keys; the right side is the build side and is
// prefetched+materialized before the left (probe) side is pulled — which is
// also what breaks interconnect deadlock cycles (paper Appendix B).
type HashJoin struct {
	Kind        JoinKind
	Left, Right Node
	// LeftKeys[i] pairs with RightKeys[i].
	LeftKeys, RightKeys []Expr
	// Extra is a residual non-equality condition evaluated on the combined
	// row (left columns then right columns).
	Extra Expr
	// Out lists the output offsets the plan above reads (pruneColumns); nil =
	// all. The join emits the others as NULL at their offsets, like a pruned
	// scan, so no ColRef above it moves.
	Out []int
	// EstMemBytes estimates the build-side working set (sizeMemory). The
	// executor sizes the Grace spill partition fanout from it.
	EstMemBytes int64
	schema      *types.Schema
}

// NewHashJoin builds a hash join node.
func NewHashJoin(kind JoinKind, left, right Node, lk, rk []Expr, extra Expr) *HashJoin {
	return &HashJoin{
		Kind: kind, Left: left, Right: right,
		LeftKeys: lk, RightKeys: rk, Extra: extra,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Node.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.Left, j.Right} }

// Explain implements Node.
func (j *HashJoin) Explain() string {
	return fmt.Sprintf("Hash Join (%s)%s%s", j.Kind, estMemSuffix(j.EstMemBytes), outputSuffix(j.schema, j.Out))
}

// outputSuffix renders a join's pruned output columns for EXPLAIN.
func outputSuffix(sch *types.Schema, out []int) string {
	if out == nil {
		return ""
	}
	return " Output: " + colNames(sch, out)
}

// estMemSuffix renders a node's estimated working set for EXPLAIN.
func estMemSuffix(b int64) string {
	if b <= 0 {
		return ""
	}
	kb := (b + 1023) / 1024
	return fmt.Sprintf(" est_mem=%dKB", kb)
}

// NestLoop joins with an arbitrary condition; the right side is
// materialized (prefetched) and rescanned per left row.
type NestLoop struct {
	Kind        JoinKind
	Left, Right Node
	Cond        Expr
	Out         []int // see HashJoin.Out
	schema      *types.Schema
}

// NewNestLoop builds a nested-loop join node.
func NewNestLoop(kind JoinKind, left, right Node, cond Expr) *NestLoop {
	return &NestLoop{
		Kind: kind, Left: left, Right: right, Cond: cond,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Node.
func (j *NestLoop) Schema() *types.Schema { return j.schema }

// Children implements Node.
func (j *NestLoop) Children() []Node { return []Node{j.Left, j.Right} }

// Explain implements Node.
func (j *NestLoop) Explain() string {
	return fmt.Sprintf("Nested Loop (%s)%s", j.Kind, outputSuffix(j.schema, j.Out))
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	// AggCount is count(expr) or count(*).
	AggCount AggFunc = iota
	// AggSum sums.
	AggSum
	// AggAvg averages.
	AggAvg
	// AggMin takes the minimum.
	AggMin
	// AggMax takes the maximum.
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "count"
	}
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     AggFunc
	Arg      Expr // nil = count(*)
	Distinct bool
	Name     string
}

// AggPhase splits aggregation for the two-phase distributed strategy.
type AggPhase uint8

// Aggregation phases.
const (
	// AggPlain computes the aggregate in one step (single locus).
	AggPlain AggPhase = iota
	// AggPartial emits per-segment transition states.
	AggPartial
	// AggFinal merges partial states gathered from segments.
	AggFinal
)

// Agg groups and aggregates.
//
// Partial output schema: group-by columns, then per spec: for avg two
// columns (sum, count), else one column. Final consumes that layout.
type Agg struct {
	Child   Node
	GroupBy []Expr
	Specs   []AggSpec
	Phase   AggPhase
	// EstMemBytes estimates the hash table's working set (sizeMemory). The
	// executor sizes the spill partition fanout from it.
	EstMemBytes int64
	schema      *types.Schema
}

// NewAgg builds an aggregation node and computes its output schema.
func NewAgg(child Node, groupBy []Expr, specs []AggSpec, phase AggPhase) *Agg {
	var cols []types.Column
	for i, g := range groupBy {
		cols = append(cols, types.Column{Name: fmt.Sprintf("g%d", i), Kind: g.Kind()})
	}
	for _, s := range specs {
		switch phase {
		case AggPartial:
			if s.Func == AggAvg {
				cols = append(cols,
					types.Column{Name: s.Name + "_sum", Kind: types.KindFloat},
					types.Column{Name: s.Name + "_cnt", Kind: types.KindInt})
			} else if s.Func == AggCount {
				cols = append(cols, types.Column{Name: s.Name, Kind: types.KindInt})
			} else {
				cols = append(cols, types.Column{Name: s.Name, Kind: aggKind(s)})
			}
		default:
			cols = append(cols, types.Column{Name: s.Name, Kind: aggKind(s)})
		}
	}
	return &Agg{Child: child, GroupBy: groupBy, Specs: specs, Phase: phase,
		schema: &types.Schema{Columns: cols}}
}

func aggKind(s AggSpec) types.Kind {
	switch s.Func {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	default:
		if s.Arg != nil {
			return s.Arg.Kind()
		}
		return types.KindFloat
	}
}

// Schema implements Node.
func (a *Agg) Schema() *types.Schema { return a.schema }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Child} }

// Explain implements Node.
func (a *Agg) Explain() string {
	ph := ""
	switch a.Phase {
	case AggPartial:
		ph = " (partial)"
	case AggFinal:
		ph = " (final)"
	}
	if len(a.GroupBy) > 0 {
		return "HashAggregate" + ph + estMemSuffix(a.EstMemBytes)
	}
	return "Aggregate" + ph
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Child Node
	Keys  []SortKey
	// Top, on a per-segment sort below a Gather, is the LIMIT above the
	// Gather (not a child): the sort emits only its first Bound() rows.
	Top *Limit
	// EstMemBytes estimates the materialized input's working set
	// (sizeMemory); surfaced by EXPLAIN.
	EstMemBytes int64
}

// Bound is the number of rows a top-N sort emits — its LIMIT's count plus
// offset — or 0 for a sort that emits every row.
func (s *Sort) Bound() int64 {
	if s.Top == nil || s.Top.Count < 0 || s.Top.Offset < 0 || s.Top.Count > math.MaxInt64-s.Top.Offset {
		return 0
	}
	return s.Top.Count + s.Top.Offset
}

// Schema implements Node.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Explain implements Node.
func (s *Sort) Explain() string {
	if n := s.Bound(); n > 0 {
		return fmt.Sprintf("Sort (top %d)%s", n, estMemSuffix(s.EstMemBytes))
	}
	return "Sort" + estMemSuffix(s.EstMemBytes)
}

// Limit caps output. CountExpr/OffsetExpr are set only in a template whose
// LIMIT or OFFSET names a $N slot; Bind evaluates them into Count/Offset.
type Limit struct {
	Child                 Node
	Count                 int64 // -1 = unlimited
	Offset                int64
	CountExpr, OffsetExpr Expr
}

// Schema implements Node.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Explain implements Node.
func (l *Limit) Explain() string { return fmt.Sprintf("Limit %d", l.Count) }

// Motion moves rows between slices (paper §3.2). A Motion is a slice
// boundary: its child executes in the sending slice, its parent in the
// receiving slice.
type Motion struct {
	Child Node
	// HashExprs compute the redistribution key over the child's output row
	// (MotionRedistribute only).
	HashExprs []Expr
	// SliceID identifies the sending slice; assigned by Planned.cut.
	SliceID int
	// An INSERT's motion moves rows to the segments of the target's
	// placement: Width of them (0 = every segment), fewer than the cluster
	// while online expansion has not moved the table. FromCoordinator marks
	// a source that ends in the coordinator's slice (an aggregate, ORDER BY …
	// LIMIT): that slice is the motion's one sender.
	Width           int
	Type            MotionType
	FromCoordinator bool
}

// Schema implements Node.
func (m *Motion) Schema() *types.Schema { return m.Child.Schema() }

// Children implements Node.
func (m *Motion) Children() []Node { return []Node{m.Child} }

// Explain implements Node.
func (m *Motion) Explain() string {
	if m.FromCoordinator {
		return m.Type.String() + " (slice" + strconv.Itoa(m.SliceID) + "; from coordinator)"
	}
	return m.Type.String() + " (slice" + strconv.Itoa(m.SliceID) + ")"
}

// Values is a leaf of literal rows: the one empty row of a SELECT without
// FROM, or an INSERT's VALUES list shaped to its table. A row that names a
// $N slot is evaluated by Bind: Slots, when set, holds one entry per row,
// that row's expressions, or nil for a row folded at plan time.
type Values struct {
	Out   *types.Schema
	Rows  []types.Row
	Slots [][]Expr
}

// Schema implements Node.
func (v *Values) Schema() *types.Schema { return v.Out }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Explain implements Node.
func (v *Values) Explain() string { return "Result" }

// --- DML plans: the top slice, run on each segment the write targets ---

// InsertPlan stores the rows its child produces, already shaped to the
// table (see PlanInsert). The child is a Values leaf, whose rows dispatch
// routes, or the SELECT, under the motion that moves its rows to the
// segments storing them when they are not produced there.
type InsertPlan struct {
	Table *catalog.Table
	Child Node
	// MapVersion is the table's distribution-map version the plan was built
	// against; dispatch rejects the plan (retryably) if online expansion has
	// flipped the placement since.
	MapVersion uint64
}

// Schema implements Node.
func (p *InsertPlan) Schema() *types.Schema { return &types.Schema{} }

// Children implements Node.
func (p *InsertPlan) Children() []Node { return []Node{p.Child} }

// Explain implements Node.
func (p *InsertPlan) Explain() string { return "Insert on " + p.Table.Name }

// UpdatePlan writes a new version of every row its child selects. Child is
// the table's access path — the Scan or IndexScan a SELECT with the same
// WHERE gets.
type UpdatePlan struct {
	Table    *catalog.Table
	Child    Node
	SetCols  []int
	SetExprs []Expr
	// MapVersion: see InsertPlan.MapVersion.
	MapVersion uint64
}

// Schema implements Node.
func (p *UpdatePlan) Schema() *types.Schema { return &types.Schema{} }

// Children implements Node.
func (p *UpdatePlan) Children() []Node { return []Node{p.Child} }

// Explain implements Node.
func (p *UpdatePlan) Explain() string { return "Update on " + p.Table.Name }

// NewVersion computes the version that replaces old: the SET expressions
// evaluated over old, cast to their columns' kinds.
func (p *UpdatePlan) NewVersion(old types.Row) (types.Row, error) {
	row := old.Clone()
	for i, col := range p.SetCols {
		v, err := p.SetExprs[i].Eval(old)
		if err == nil {
			v, err = v.CastTo(p.Table.Schema.Columns[col].Kind)
		}
		if err != nil {
			return nil, err
		}
		row[col] = v
	}
	return row, nil
}

// DeletePlan deletes every row its child (see UpdatePlan.Child) selects.
type DeletePlan struct {
	Table *catalog.Table
	Child Node
	// MapVersion: see InsertPlan.MapVersion.
	MapVersion uint64
}

// Schema implements Node.
func (p *DeletePlan) Schema() *types.Schema { return &types.Schema{} }

// Children implements Node.
func (p *DeletePlan) Children() []Node { return []Node{p.Child} }

// Explain implements Node.
func (p *DeletePlan) Explain() string { return "Delete on " + p.Table.Name }
