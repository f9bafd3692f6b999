package plan

import "repro/internal/types"

// Operator memory estimation: the planner annotates every blocking operator
// (Sort, hash Agg, HashJoin build side) with a rough working-set estimate
// derived from the stats provider's row counts. The estimates serve two
// consumers: EXPLAIN surfaces them next to the operator, and the executor's
// spill machinery sizes its Grace partition fanout from them so a spilled
// partition's reload fits the memory_spill_ratio budget.

// Per-datum and per-row footprints matching types.Datum.Size / types.Row.Size
// for numeric columns (text adds its payload, which stats cannot see).
const (
	estDatumBytes = 24
	estRowBytes   = 24
)

// estRowWidth is the accounted bytes of one row of the schema.
func estRowWidth(s *types.Schema) int64 {
	if s == nil {
		return estRowBytes
	}
	return estRowBytes + estDatumBytes*int64(len(s.Columns))
}

// groupEstimateDivisor is how many input rows the planner assumes share a
// group when it has no distinct-value statistics.
const groupEstimateDivisor = 4

// AnnotateMemory walks the plan bottom-up, estimating output row counts and
// setting EstMemBytes on the blocking operators. Safe on any plan shape;
// nodes it does not recognize pass their child estimate through.
func AnnotateMemory(root Node, st Stats) {
	estimateRows(root, st)
}

func estimateRows(n Node, st Stats) int64 {
	switch x := n.(type) {
	case *Scan:
		return st.RowCount(x.Table.Name)
	case *IndexScan:
		return 1
	case *Filter:
		return estimateRows(x.Child, st)/3 + 1
	case *Sort:
		rows := estimateRows(x.Child, st)
		if k := x.Bound(); k > 0 && k < rows {
			rows = k
		}
		x.EstMemBytes = rows * estRowWidth(x.Child.Schema())
		return rows
	case *Agg:
		rows := estimateRows(x.Child, st)
		groups := int64(1)
		if len(x.GroupBy) > 0 {
			groups = rows/groupEstimateDivisor + 1
		}
		// Each group holds its key row plus per-spec transition state (the
		// executor charges 64 bytes per aggregate state).
		x.EstMemBytes = groups * (estRowBytes + estDatumBytes*int64(len(x.GroupBy)) + 64*int64(len(x.Specs)))
		return groups
	case *HashJoin:
		l := estimateRows(x.Left, st)
		r := estimateRows(x.Right, st)
		x.EstMemBytes = r * estRowWidth(x.Right.Schema())
		if l > r {
			return l
		}
		return r
	case *NestLoop:
		l := estimateRows(x.Left, st)
		estimateRows(x.Right, st)
		return l
	case *Limit:
		rows := estimateRows(x.Child, st)
		if x.Count >= 0 && x.Count < rows {
			rows = x.Count
		}
		return rows
	default:
		rows := int64(1)
		for _, c := range n.Children() {
			rows = estimateRows(c, st)
		}
		return rows
	}
}
