package plan

import (
	"testing"

	"repro/internal/types"
)

func col(i int, name string) *ColRef { return &ColRef{Idx: i, Name: name, Typ: types.KindInt} }
func lit(v int64) *Const             { return &Const{Val: types.NewInt(v)} }

func cmp(op string, l, r Expr) Expr { return &BinOp{Op: op, Left: l, Right: r} }

func TestExtractPushdownShapes(t *testing.T) {
	// col >= 10 AND col < 20 AND b = 3 — all sargable.
	e := cmp("AND", cmp("AND", cmp(">=", col(0, "k"), lit(10)), cmp("<", col(0, "k"), lit(20))), cmp("=", col(1, "b"), lit(3)))
	p := sargable(nil, e)
	if p == nil || len(p) != 3 {
		t.Fatalf("conjuncts: %+v", p)
	}
	if p[0].Op != types.OpGreater|types.OpEqual || p[0].Col != 0 ||
		p[1].Op != types.OpLess ||
		p[2].Op != types.OpEqual || p[2].Col != 1 {
		t.Fatalf("wrong conjuncts: %+v", p)
	}

	// Reversed operand order flips the comparison.
	p = sargable(nil, cmp("<", lit(10), col(0, "k"))) // 10 < k  ⇒  k > 10
	if p == nil || p[0].Op != types.OpGreater || p[0].Val.Int() != 10 {
		t.Fatalf("flip: %+v", p)
	}

	// != normalizes to <>.
	p = sargable(nil, cmp("!=", col(0, "k"), lit(5)))
	if p == nil || p[0].Op != types.OpLess|types.OpGreater {
		t.Fatalf("!=: %+v", p)
	}

	// BETWEEN decomposes into both bounds.
	p = sargable(nil, &Between{Operand: col(0, "k"), Lo: lit(3), Hi: lit(9)})
	if p == nil || len(p) != 2 || p[0].Op != types.OpGreater|types.OpEqual || p[1].Op != types.OpLess|types.OpEqual {
		t.Fatalf("between: %+v", p)
	}

	// IN list of constants pushes, dropping NULL candidates.
	p = sargable(nil, &InList{Operand: col(0, "k"),
		List: []Expr{lit(1), &Const{Val: types.Null}, lit(7)}})
	if p == nil || p[0].Op != types.OpIn || len(p[0].In) != 2 {
		t.Fatalf("in: %+v", p)
	}
}

func TestExtractPushdownRejects(t *testing.T) {
	cases := map[string]Expr{
		"or tree":            cmp("OR", cmp("=", col(0, "k"), lit(1)), cmp("=", col(0, "k"), lit(2))),
		"col vs col":         cmp("=", col(0, "a"), col(1, "b")),
		"null comparand":     cmp("=", col(0, "k"), &Const{Val: types.Null}),
		"arith comparand":    cmp("=", col(0, "k"), cmp("+", lit(1), lit(2))),
		"like":               cmp("LIKE", col(0, "k"), &Const{Val: types.NewText("a%")}),
		"not in":             &InList{Operand: col(0, "k"), List: []Expr{lit(1)}, Negate: true},
		"in with expr":       &InList{Operand: col(0, "k"), List: []Expr{cmp("+", lit(1), lit(1))}},
		"in all null":        &InList{Operand: col(0, "k"), List: []Expr{&Const{Val: types.Null}}},
		"not between":        &Between{Operand: col(0, "k"), Lo: lit(1), Hi: lit(2), Negate: true},
		"between null bound": &Between{Operand: col(0, "k"), Lo: lit(1), Hi: &Const{Val: types.Null}},
		"is null":            &IsNull{Operand: col(0, "k")},
	}
	for name, e := range cases {
		if p := sargable(nil, e); p != nil {
			t.Errorf("%s: pushed %+v, want nil", name, p)
		}
	}

	// A mixed conjunction pushes only the sargable half.
	e := cmp("AND", cmp("=", col(0, "k"), lit(1)), cmp("=", col(0, "k"), col(1, "b")))
	p := sargable(nil, e)
	if p == nil || len(p) != 1 || p[0].Val.Int() != 1 {
		t.Fatalf("mixed conjunction: %+v", p)
	}
}

// TestPushdownTypeMismatchedConstant: a constant of a different kind still
// pushes — zone checks use the same types.Compare total order as the row
// filter, so skipping stays exactly as conservative as row-level
// evaluation.
func TestPushdownTypeMismatchedConstant(t *testing.T) {
	p := sargable(nil, cmp("=", col(0, "k"), &Const{Val: types.NewText("zzz")}))
	if p == nil || p[0].Val.Kind() != types.KindText {
		t.Fatalf("text constant: %+v", p)
	}
	p = sargable(nil, cmp(">", col(0, "k"), &Const{Val: types.NewFloat(1.5)}))
	if p == nil || p[0].Val.Kind() != types.KindFloat {
		t.Fatalf("float constant: %+v", p)
	}
}

func TestScanPredicateString(t *testing.T) {
	p := ScanPredicate{
		{Col: 0, Op: types.OpGreater | types.OpEqual, Val: types.NewInt(10), Name: "k"},
		{Col: 1, Op: types.OpIn, In: []types.Datum{types.NewInt(1), types.NewInt(2)}, Name: "b"},
	}
	if got := p.String(); got != "k >= 10 AND b IN (1, 2)" {
		t.Fatalf("string: %q", got)
	}
}

// TestConjunctMayMatch: MayMatch never rules out a range that holds a value
// the conjunct's own filter keeps, on closed and half-open ranges, and on a
// closed range it is exact. Each grid holds every range end and constant,
// the only witnesses a comparison or an IN list needs on a closed range, so
// there "some grid value in the range passes" is the exact answer.
func TestConjunctMayMatch(t *testing.T) {
	grids := map[string][]types.Datum{
		"int":           {types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)},
		"float":         {types.NewFloat(-0.5), types.NewFloat(1), types.NewFloat(1.5), types.NewFloat(2.5)},
		"int and float": {types.NewInt(1), types.NewFloat(1.5), types.NewInt(2), types.NewFloat(2.5)},
		"text":          {types.NewText("a"), types.NewText("ab"), types.NewText("b"), types.NewText("c")},
		"date":          {types.NewDate(18000), types.NewDate(18001), types.NewDate(18400)},
	}
	for name, grid := range grids {
		var filters []Expr
		for _, c := range grid {
			for _, op := range []string{"=", "<>", "!=", "<", "<=", ">", ">="} {
				filters = append(filters, cmp(op, col(0, "k"), &Const{Val: c}), cmp(op, &Const{Val: c}, col(0, "k")))
			}
			for _, c2 := range grid {
				filters = append(filters, &InList{Operand: col(0, "k"), List: []Expr{&Const{Val: c}, &Const{Val: c2}}})
			}
		}
		for _, f := range filters {
			p := sargable(nil, f)
			if len(p) != 1 {
				t.Fatalf("%s: %s pushes %v", name, f, p)
			}
			for _, lo := range grid {
				for _, hi := range grid {
					if types.Compare(lo, hi) > 0 {
						continue
					}
					for _, open := range []bool{false, true} {
						passes := false
						for _, v := range grid {
							if h := types.Compare(v, hi); types.Compare(lo, v) <= 0 && (h < 0 || h == 0 && !open) {
								ok, err := EvalBool(f, types.Row{v})
								if err != nil {
									t.Fatal(err)
								}
								passes = passes || ok
							}
						}
						if got := p[0].MayMatch(lo, hi, open); got != passes && (passes || !open) {
							t.Errorf("%s: %s over [%v, %v] (open %v): MayMatch %v, a value passes %v", name, f, lo, hi, open, got, passes)
						}
					}
				}
			}
		}
	}
}
