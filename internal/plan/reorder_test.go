package plan

import (
	"testing"

	"repro/internal/types"
)

// starCard builds card/stepCost callbacks for a toy star join: relation 0 is
// a huge fact, 1 a large fact, 2 a tiny filtered dimension joined to 1.
// Joining through the dimension first collapses the intermediate.
func starCard() (func(uint64) float64, func(uint64, int) float64) {
	rows := []float64{10000, 10000, 5}
	card := func(mask uint64) float64 {
		switch mask {
		case 1, 2, 4:
			return rows[map[uint64]int{1: 0, 2: 1, 4: 2}[mask]]
		case 1 | 2: // fact ⋈ fact on a 100-NDV key
			return 1e6
		case 2 | 4: // fact pruned by the 5-row dimension
			return 500
		case 1 | 4: // no edge: cross product
			return 50000
		case 1 | 2 | 4:
			return 50000
		}
		return 0
	}
	stepCost := func(acc uint64, r int) float64 {
		return card(acc) + 2*rows[r] + card(acc|1<<uint(r))
	}
	return card, stepCost
}

func TestDPJoinOrderPicksSelectiveFirst(t *testing.T) {
	card, stepCost := starCard()
	order := dpJoinOrder(3, card, stepCost)
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	// The 1M-row fact⋈fact intermediate must be avoided: the dimension (2)
	// joins in before the two facts meet.
	if order[2] == 2 {
		t.Fatalf("DP left the dimension last (fact ⋈ fact first): %v", order)
	}
	first := uint64(1)<<uint(order[0]) | uint64(1)<<uint(order[1])
	if card(first) >= 1e6 {
		t.Fatalf("DP starts with the huge intermediate: %v", order)
	}
}

func TestGreedyJoinOrderAgreesOnStar(t *testing.T) {
	card, stepCost := starCard()
	order := greedyJoinOrder(3, card, stepCost)
	if len(order) != 3 || order[2] == 2 {
		t.Fatalf("greedy left the dimension last: %v", order)
	}
}

func TestRemapCols(t *testing.T) {
	// (c3 = 7) AND c5 IS NULL, shifted down by 2.
	e := &BinOp{
		Op:    "and",
		Left:  &BinOp{Op: "=", Left: &ColRef{Idx: 3, Typ: types.KindInt}, Right: &Const{Val: types.NewInt(7)}},
		Right: &IsNull{Operand: &ColRef{Idx: 5, Typ: types.KindInt}},
	}
	got := remapCols(e, func(i int) int { return i - 2 })
	b, ok := got.(*BinOp)
	if !ok {
		t.Fatalf("remap changed shape: %T", got)
	}
	if l := b.Left.(*BinOp).Left.(*ColRef); l.Idx != 1 {
		t.Fatalf("left colref = %d, want 1", l.Idx)
	}
	if r := b.Right.(*IsNull).Operand.(*ColRef); r.Idx != 3 {
		t.Fatalf("isnull colref = %d, want 3", r.Idx)
	}
	// The original is untouched.
	if e.Left.(*BinOp).Left.(*ColRef).Idx != 3 {
		t.Fatal("remapCols mutated its input")
	}
}
