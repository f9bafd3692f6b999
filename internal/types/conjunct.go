package types

// A Conjunct is one `col <op> constant` or `col IN (constants)` term of a
// scan filter's conjunction, in the one form its consumers share: the
// planner's pushdown, cost model and partition pruning, and the storage
// layer's zone maps. Val, and every candidate in In, is non-NULL.
type Conjunct struct {
	Col  int     // column offset in the scanned table's rows
	Op   CmpOp   // the operator; OpIn reads In, any other Val
	Val  Datum   // the constant compared with
	In   []Datum // the candidates of an IN list
	Name string  // the column's name, for EXPLAIN
}

// CmpOp is a conjunct's operator. A comparison is the set of orderings of a
// column value against the constant that satisfy it, as OpLess, OpEqual and
// OpGreater bits: `<=` is OpLess|OpEqual and `<>` is OpLess|OpGreater. OpIn
// is membership of an IN list.
type CmpOp uint8

const (
	OpLess CmpOp = 1 << iota
	OpEqual
	OpGreater
	OpIn
)

var cmpOpNames = [...]string{OpLess: "<", OpEqual: "=", OpLess | OpEqual: "<=", OpGreater: ">",
	OpLess | OpGreater: "<>", OpEqual | OpGreater: ">=", OpIn: "in"}

// ParseCmpOp returns the comparison spelled s, or 0 when s is no comparison.
func ParseCmpOp(s string) CmpOp {
	if s == "!=" {
		return OpLess | OpGreater
	}
	for op, name := range cmpOpNames {
		if name == s && CmpOp(op) != OpIn {
			return CmpOp(op)
		}
	}
	return 0
}

// String renders the operator as SQL spells it ("in" for OpIn).
func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return "?"
}

// Mirror returns the comparison with its operands swapped: `k < c` is `c > k`.
func (op CmpOp) Mirror() CmpOp {
	return op&^(OpLess|OpGreater) | (op&OpLess)<<2 | (op&OpGreater)>>2
}

// Holds reports whether a value that orders against the constant as cmp
// (Compare's -1, 0 or 1) satisfies the comparison.
func (op CmpOp) Holds(cmp int) bool { return op>>(cmp+1)&1 != 0 }

// MayMatch reports whether some value between lo and hi may satisfy the
// conjunct: the closed range [lo, hi], or the half-open [lo, hi) when open.
// false proves that none does — zone maps skip a block on it (its closed
// [min, max]) and partition pruning a leaf (its half-open [Start, End)).
// The test orders values by Compare, the order the row filter compares by,
// so the proof holds for a constant of another kind than the column's too.
func (c *Conjunct) MayMatch(lo, hi Datum, open bool) bool {
	if c.Op == OpIn {
		for _, v := range c.In {
			if within(v, lo, hi, open) {
				return true
			}
		}
		return false
	}
	return c.Op&OpLess != 0 && Compare(lo, c.Val) < 0 ||
		c.Op&OpEqual != 0 && within(c.Val, lo, hi, open) ||
		c.Op&OpGreater != 0 && Compare(hi, c.Val) > 0
}

// within reports whether v lies in [lo, hi], or in [lo, hi) when open.
func within(v, lo, hi Datum, open bool) bool {
	h := Compare(v, hi)
	return Compare(lo, v) <= 0 && (h < 0 || h == 0 && !open)
}
