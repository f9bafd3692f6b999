package sql

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any scalar expression node.
type Expr interface {
	expr()
	String() string
}

// ---------- Expressions ----------

// ColumnRef names a column, optionally qualified by table alias.
type ColumnRef struct {
	Table  string // optional
	Column string
}

func (*ColumnRef) expr() {}
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return ident(c.Table) + "." + ident(c.Column)
	}
	return ident(c.Column)
}

// ident prints a name so it lexes back to the same identifier: bare when it
// is a lower-case word that is not a keyword, double-quoted otherwise.
func ident(name string) string {
	plain := name != "" && isIdentStart(name[0]) && !lowerKeywords[name]
	for i := 0; plain && i < len(name); i++ {
		plain = isIdentCont(name[i]) && (name[i] < 'A' || name[i] > 'Z')
	}
	if plain {
		return name
	}
	return `"` + name + `"`
}

// lowerKeywords is keywords in lower case, so ident checks a name without
// allocating its upper-case form.
var lowerKeywords = func() map[string]bool {
	m := make(map[string]bool, len(keywords))
	for k := range keywords {
		m[strings.ToLower(k)] = true
	}
	return m
}()

// Literal is a constant value.
type Literal struct {
	Value types.Datum
}

func (*Literal) expr() {}
func (l *Literal) String() string {
	if l.Value.Kind() == types.KindText {
		return "'" + strings.ReplaceAll(l.Value.Text(), "'", "''") + "'"
	}
	return l.Value.String()
}

// Param is a positional parameter $N (1-based).
type Param struct{ Index int }

func (*Param) expr()            {}
func (p *Param) String() string { return fmt.Sprintf("$%d", p.Index) }

// BinaryOp applies an infix operator.
type BinaryOp struct {
	Op          string // =, <>, <, <=, >, >=, +, -, *, /, %, AND, OR, LIKE, ||
	Left, Right Expr
}

func (*BinaryOp) expr() {}
func (b *BinaryOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.Left, b.Op, b.Right)
}

// UnaryOp applies a prefix operator: -, NOT.
type UnaryOp struct {
	Op      string
	Operand Expr
}

func (*UnaryOp) expr()            {}
func (u *UnaryOp) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.Operand) }

// IsNullExpr tests IS [NOT] NULL.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

func (*IsNullExpr) expr() {}
func (e *IsNullExpr) String() string {
	if e.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", e.Operand)
	}
	return fmt.Sprintf("(%s IS NULL)", e.Operand)
}

// InExpr tests membership in a literal list.
type InExpr struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

func (*InExpr) expr() {}
func (e *InExpr) String() string {
	items := make([]string, len(e.List))
	for i, x := range e.List {
		items[i] = x.String()
	}
	neg := ""
	if e.Negate {
		neg = " NOT"
	}
	return fmt.Sprintf("(%s%s IN (%s))", e.Operand, neg, strings.Join(items, ", "))
}

// BetweenExpr tests range membership.
type BetweenExpr struct {
	Operand, Lo, Hi Expr
	Negate          bool
}

func (*BetweenExpr) expr() {}
func (e *BetweenExpr) String() string {
	neg := ""
	if e.Negate {
		neg = " NOT"
	}
	return fmt.Sprintf("(%s%s BETWEEN %s AND %s)", e.Operand, neg, e.Lo, e.Hi)
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name     string // lower-case
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool
}

func (*FuncCall) expr() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	args := make([]string, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(args, ", "))
}

// CaseExpr is CASE WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN branch.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) expr() {}
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

// ---------- Table references ----------

// TableRef is a FROM-clause item.
type TableRef interface {
	tableRef()
	String() string
}

// BaseTable names a catalog table with an optional alias.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}
func (t *BaseTable) String() string {
	if t.Alias != "" {
		return ident(t.Name) + " " + ident(t.Alias)
	}
	return ident(t.Name)
}

// JoinType enumerates join shapes.
type JoinType uint8

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinCross
)

func (j JoinType) String() string {
	switch j {
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinRef is a binary join between two table refs.
type JoinRef struct {
	Type        JoinType
	Left, Right TableRef
	On          Expr     // nil for CROSS or USING
	Using       []string // non-empty for USING(...)
}

func (*JoinRef) tableRef() {}
func (j *JoinRef) String() string {
	s := fmt.Sprintf("%s %s %s", j.Left, j.Type, j.Right)
	if j.On != nil {
		s += " ON " + j.On.String()
	} else if len(j.Using) > 0 {
		using := make([]string, len(j.Using))
		for i, c := range j.Using {
			using[i] = ident(c)
		}
		s += " USING (" + strings.Join(using, ", ") + ")"
	}
	return s
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*SubqueryRef) tableRef() {}
func (s *SubqueryRef) String() string {
	return fmt.Sprintf("(%s) %s", s.Select, ident(s.Alias))
}

// ---------- Statements ----------

// SelectItem is one projection with an optional alias; Star selects all.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// LockStrength is the FOR UPDATE / FOR SHARE suffix of a SELECT.
type LockStrength uint8

// Lock strengths.
const (
	LockNone LockStrength = iota
	LockForShare
	LockForUpdate
)

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items    []SelectItem
	From     TableRef // nil for SELECT <exprs>
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr
	Distinct bool
	Lock     LockStrength
}

func (*SelectStmt) stmt() {}
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
		} else {
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + ident(it.Alias))
			}
		}
	}
	if s.From != nil {
		b.WriteString(" FROM " + s.From.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET " + s.Offset.String())
	}
	switch s.Lock {
	case LockForShare:
		b.WriteString(" FOR SHARE")
	case LockForUpdate:
		b.WriteString(" FOR UPDATE")
	}
	return b.String()
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// DistributionKind mirrors Greenplum's DISTRIBUTED BY clause.
type DistributionKind uint8

// Distribution kinds.
const (
	DistributeHash DistributionKind = iota
	DistributeRandomly
	DistributeReplicated
)

// StorageKind selects the table's storage engine.
type StorageKind uint8

// Storage kinds (paper §3.4).
const (
	StorageHeap StorageKind = iota
	StorageAORow
	StorageAOColumn
)

func (s StorageKind) String() string {
	switch s {
	case StorageAORow:
		return "ao_row"
	case StorageAOColumn:
		return "ao_column"
	default:
		return "heap"
	}
}

// PartitionDef is one RANGE partition: [Start, End).
type PartitionDef struct {
	Name    string
	Start   types.Datum
	End     types.Datum
	Storage StorageKind
}

// CreateTableStmt is CREATE TABLE with Greenplum distribution/partitioning.
type CreateTableStmt struct {
	Name         string
	Columns      []ColumnDef
	Distribution DistributionKind
	DistKeys     []string // for DistributeHash
	Storage      StorageKind
	PartitionBy  string // range-partition column, "" if none
	Partitions   []PartitionDef
	IfNotExists  bool
}

func (*CreateTableStmt) stmt() {}
func (c *CreateTableStmt) String() string {
	return fmt.Sprintf("CREATE TABLE %s (%d columns)", c.Name, len(c.Columns))
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

func (*DropTableStmt) stmt()            {}
func (d *DropTableStmt) String() string { return "DROP TABLE " + d.Name }

// TruncateStmt is TRUNCATE TABLE.
type TruncateStmt struct{ Name string }

func (*TruncateStmt) stmt()            {}
func (t *TruncateStmt) String() string { return "TRUNCATE " + t.Name }

// InsertStmt is INSERT INTO ... VALUES or INSERT INTO ... SELECT.
type InsertStmt struct {
	Table   string
	Columns []string // optional
	Rows    [][]Expr // literal rows
	Select  *SelectStmt
}

func (*InsertStmt) stmt() {}
func (i *InsertStmt) String() string {
	return fmt.Sprintf("INSERT INTO %s (%d rows)", i.Table, len(i.Rows))
}

// Assignment is one SET column = expr in UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*UpdateStmt) stmt()            {}
func (u *UpdateStmt) String() string { return "UPDATE " + u.Table }

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmt()            {}
func (d *DeleteStmt) String() string { return "DELETE FROM " + d.Table }

// BeginStmt starts a transaction.
type BeginStmt struct{}

func (*BeginStmt) stmt()          {}
func (*BeginStmt) String() string { return "BEGIN" }

// CommitStmt commits a transaction.
type CommitStmt struct{}

func (*CommitStmt) stmt()          {}
func (*CommitStmt) String() string { return "COMMIT" }

// RollbackStmt aborts a transaction.
type RollbackStmt struct{}

func (*RollbackStmt) stmt()          {}
func (*RollbackStmt) String() string { return "ROLLBACK" }

// LockStmt is LOCK [TABLE] name [IN <mode> MODE].
type LockStmt struct {
	Table string
	Mode  string // normalized, e.g. "ACCESS EXCLUSIVE"; "" = default exclusive
}

func (*LockStmt) stmt()            {}
func (l *LockStmt) String() string { return "LOCK TABLE " + l.Table }

// VacuumStmt is VACUUM [FULL] [table].
type VacuumStmt struct {
	Table string // "" = all
	Full  bool
}

func (*VacuumStmt) stmt()            {}
func (v *VacuumStmt) String() string { return "VACUUM " + v.Table }

// AnalyzeStmt is ANALYZE [table]: collect optimizer statistics.
type AnalyzeStmt struct {
	Table string // "" = all tables
}

func (*AnalyzeStmt) stmt() {}
func (a *AnalyzeStmt) String() string {
	if a.Table == "" {
		return "ANALYZE"
	}
	return "ANALYZE " + a.Table
}

// CreateIndexStmt is CREATE INDEX name ON table (col).
type CreateIndexStmt struct {
	Name    string
	Table   string
	Columns []string
}

func (*CreateIndexStmt) stmt()            {}
func (c *CreateIndexStmt) String() string { return "CREATE INDEX " + c.Name }

// ResourceGroupOption is one WITH(...) setting.
type ResourceGroupOption struct {
	Name  string // normalized upper-case, e.g. CONCURRENCY
	Value string
}

// CreateResourceGroupStmt mirrors CREATE RESOURCE GROUP ... WITH (...).
type CreateResourceGroupStmt struct {
	Name    string
	Options []ResourceGroupOption
}

func (*CreateResourceGroupStmt) stmt() {}
func (c *CreateResourceGroupStmt) String() string {
	return "CREATE RESOURCE GROUP " + c.Name
}

// DropResourceGroupStmt drops a resource group.
type DropResourceGroupStmt struct{ Name string }

func (*DropResourceGroupStmt) stmt() {}
func (d *DropResourceGroupStmt) String() string {
	return "DROP RESOURCE GROUP " + d.Name
}

// CreateRoleStmt is CREATE ROLE name [RESOURCE GROUP g].
type CreateRoleStmt struct {
	Name          string
	ResourceGroup string
}

func (*CreateRoleStmt) stmt()            {}
func (c *CreateRoleStmt) String() string { return "CREATE ROLE " + c.Name }

// AlterRoleStmt is ALTER ROLE name RESOURCE GROUP g.
type AlterRoleStmt struct {
	Name          string
	ResourceGroup string
}

func (*AlterRoleStmt) stmt()            {}
func (a *AlterRoleStmt) String() string { return "ALTER ROLE " + a.Name }

// AlterSystemExpandStmt is ALTER SYSTEM EXPAND TO n: grow the cluster to n
// segments and rebalance tables online.
type AlterSystemExpandStmt struct {
	Target int
}

func (*AlterSystemExpandStmt) stmt() {}
func (a *AlterSystemExpandStmt) String() string {
	return fmt.Sprintf("ALTER SYSTEM EXPAND TO %d", a.Target)
}

// ExplainStmt wraps another statement for plan display. With Analyze set
// the statement is executed and runtime counters (blocks scanned/skipped,
// rows, elapsed time) are appended to the plan text.
type ExplainStmt struct {
	Target  Statement
	Analyze bool
}

func (*ExplainStmt) stmt() {}
func (e *ExplainStmt) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Target.String()
	}
	return "EXPLAIN " + e.Target.String()
}

// FaultVerb selects the FAULT sub-command.
type FaultVerb uint8

// Fault verbs.
const (
	// FaultInject arms a fault-point spec.
	FaultInject FaultVerb = iota
	// FaultReset disarms a point (or every point).
	FaultReset
	// FaultResume wakes goroutines hung at a point.
	FaultResume
	// FaultStatus lists armed specs.
	FaultStatus
)

// FaultStmt is the fault-injection admin statement, mirroring Greenplum's
// gp_inject_fault:
//
//	FAULT INJECT 'point' [ACTION error|panic|sleep|hang|torn_write|skip]
//	      [SEGMENT n] [MESSAGE 'text'] [SLEEP ms] [START n] [COUNT n]
//	      [PROBABILITY pct] [SEED n]
//	FAULT RESET ['point']
//	FAULT RESUME 'point'
//	FAULT STATUS
type FaultStmt struct {
	Verb  FaultVerb
	Point string // "" for STATUS and RESET-all
	// Seg targets one segment (-1 = all segments and the coordinator).
	Seg         int
	Action      string // normalized lower-case; "" defaults to error
	Message     string
	SleepMS     int
	Start       int
	Count       int
	Probability int
	Seed        int64
}

func (*FaultStmt) stmt() {}
func (f *FaultStmt) String() string {
	switch f.Verb {
	case FaultReset:
		if f.Point == "" {
			return "FAULT RESET"
		}
		return "FAULT RESET '" + f.Point + "'"
	case FaultResume:
		return "FAULT RESUME '" + f.Point + "'"
	case FaultStatus:
		return "FAULT STATUS"
	default:
		s := "FAULT INJECT '" + f.Point + "'"
		if f.Action != "" {
			s += " ACTION " + f.Action
		}
		if f.Seg != -1 {
			s += fmt.Sprintf(" SEGMENT %d", f.Seg)
		}
		return s
	}
}

// ShowStmt is SHOW name: session settings plus the virtual counters the
// engine exposes (e.g. SHOW scan_stats).
type ShowStmt struct{ Name string }

func (*ShowStmt) stmt()            {}
func (s *ShowStmt) String() string { return "SHOW " + s.Name }

// SetStmt is SET name = value (session settings, e.g. optimizer choice).
type SetStmt struct {
	Name  string
	Value string
}

func (*SetStmt) stmt()            {}
func (s *SetStmt) String() string { return fmt.Sprintf("SET %s = %s", s.Name, s.Value) }
