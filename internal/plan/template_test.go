package plan

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sql"
	"repro/internal/types"
)

// templateCatalog adds a date column, a two-column distribution key and an
// index to the shared test catalog.
func templateCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := testCatalog(t)
	for _, tab := range []*catalog.Table{
		{
			Name: "ev",
			Schema: &types.Schema{Columns: []types.Column{
				{Name: "id", Kind: types.KindInt}, {Name: "day", Kind: types.KindDate}, {Name: "w", Kind: types.KindFloat}}},
			Distribution: catalog.DistHash, DistKeyCols: []int{0}, PartitionCol: -1,
			Indexes: []*catalog.Index{{Name: "ev_id", Columns: []int{0}}},
		},
		{
			Name: "two",
			Schema: &types.Schema{Columns: []types.Column{
				{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}},
			Distribution: catalog.DistHash, DistKeyCols: []int{0, 1}, PartitionCol: -1,
		},
	} {
		if err := c.CreateTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func ints(vs ...int64) []types.Datum {
	out := make([]types.Datum, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

// planWith plans q for params, folding $N to constants when fold is set and
// leaving slots otherwise.
func planWith(t *testing.T, cat *catalog.Catalog, q string, fold bool, params []types.Datum) *Planned {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	pl, err := (&Planner{Catalog: cat, NumSegments: 4, Params: params, Fold: fold}).Plan(st, true)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return pl
}

// describe renders everything execution reads off a plan.
func describe(pl *Planned) string {
	var sb strings.Builder
	sb.WriteString(Explain(pl.Root))
	var walk func(Node)
	walk = func(n Node) {
		switch x := n.(type) {
		case *IndexScan:
			sb.WriteString("index keys:")
			for _, k := range x.KeyVals {
				sb.WriteString(" " + k.String())
			}
			sb.WriteString(" filter: " + x.Filter.String() + "\n")
		case *Limit:
			sb.WriteString("limit " + types.NewInt(x.Count).String() + " offset " + types.NewInt(x.Offset).String() + "\n")
		case *UpdatePlan:
			for _, e := range x.SetExprs {
				sb.WriteString("set " + e.String() + "\n")
			}
		case *Values:
			for _, r := range x.Rows {
				sb.WriteString("values " + r.String() + "\n")
			}
		case *Agg:
			for _, sp := range x.Specs {
				if sp.Arg != nil {
					sb.WriteString("agg arg: " + sp.Arg.String() + "\n")
				}
			}
		case *HashJoin:
			if x.Extra != nil {
				sb.WriteString("join extra: " + x.Extra.String() + "\n")
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pl.Root)
	sb.WriteString("direct " + types.NewInt(int64(pl.DirectSegment)).String())
	return sb.String()
}

// shifted returns params with every number moved, the kinds kept: another
// execution's values for the same template.
func shifted(params []types.Datum) []types.Datum {
	out := make([]types.Datum, len(params))
	for i, v := range params {
		switch v.Kind() {
		case types.KindInt:
			v = types.NewInt(v.Int() + 3)
		case types.KindFloat:
			v = types.NewFloat(v.Float() + 3)
		}
		out[i] = v
	}
	return out
}

// TestBindEqualsFoldedPlan: a lowered template bound to values must be the
// plan the planner builds when it sees them — plan tree, pushdown, pruned
// partitions, index keys, LIMIT and the direct-dispatch segment — also when
// the instance ran another execution's values first.
func TestBindEqualsFoldedPlan(t *testing.T) {
	cat := templateCatalog(t)
	day := types.NewText("2021-06-01")
	cases := []struct {
		q      string
		params []types.Datum
	}{
		{"SELECT c2 FROM t1 WHERE c1 = $1", ints(7)},
		{"SELECT c2 FROM t1 WHERE $1 = c1 AND c2 > $2", ints(7, 3)},
		{"SELECT w FROM ev WHERE id = $1", ints(11)},
		{"SELECT id FROM ev WHERE day = $1", []types.Datum{day}},
		{"SELECT id FROM ev WHERE day BETWEEN $1 AND $2", []types.Datum{day, types.NewText("2021-07-01")}},
		{"SELECT id FROM ev WHERE w > $1", ints(2)},
		{"SELECT id FROM ev WHERE id = $1", []types.Datum{types.NewFloat(11)}},
		{"SELECT id FROM ev WHERE id = $1", []types.Datum{types.Null}},
		{"SELECT v FROM two WHERE a = $1 AND b = $2", ints(1, 2)},
		{"SELECT v FROM two WHERE a = $1", ints(1)},
		{"SELECT amt FROM sales WHERE id = $1 AND d = $2", ints(5, 150)},
		{"SELECT amt FROM sales WHERE d >= $1 AND d < $2", ints(100, 200)},
		{"SELECT amt FROM sales WHERE d < $1 OR id = $2", ints(100, 3)},
		{"SELECT c2 FROM t1 WHERE c1 IN ($1, $2)", ints(1, 2)},
		{"SELECT count(*), sum(c2 + $2) FROM t1 WHERE c1 = $1", ints(7, 1)},
		{"SELECT c1, c2 FROM t1 WHERE c1 = $1 ORDER BY c2 LIMIT $2 OFFSET $3", ints(7, 5, 1)},
		{"SELECT c1 FROM t1 ORDER BY c1 LIMIT $1", ints(3)},
		{"SELECT CASE WHEN c2 > $1 THEN $2 ELSE c2 END FROM t1", ints(1, 0)},
		{"SELECT a.c2 FROM t1 a JOIN t2 b ON a.c1 = b.c1 WHERE b.c2 = $1", ints(4)},
		{"SELECT name FROM r WHERE id = $1", ints(1)},
		{"SELECT b FROM rnd WHERE a = $1", ints(1)},
		{"UPDATE t1 SET c2 = c2 + $1 WHERE c1 = $2", ints(1, 7)},
		{"UPDATE ev SET w = $1 WHERE day = $2", []types.Datum{types.NewInt(2), day}},
		{"DELETE FROM two WHERE a = $1 AND b = $2", ints(1, 2)},
		{"INSERT INTO t1 VALUES ($1, $2)", ints(7, 3)},
		{"INSERT INTO t1 VALUES ($1, $2)", []types.Datum{types.NewFloat(7), types.NewText("3")}},
		{"INSERT INTO ev (w, id) VALUES ($1, $2), (3, 4)", ints(2, 1)},
		{"INSERT INTO r VALUES ($1, 'x')", ints(1)},
		{"INSERT INTO t1 (c2, c1) SELECT c2 + $1, c1 FROM t1 WHERE c1 = $2", ints(1, 7)},
	}
	for _, tc := range cases {
		tmpl := planWith(t, cat, tc.q, false, tc.params)
		if !tmpl.slots {
			t.Errorf("%s: planned without slots", tc.q)
		}
		before := describe(tmpl)
		in := tmpl.Lower()
		for _, params := range [][]types.Datum{shifted(tc.params), tc.params} {
			if err := in.Bind(params); err != nil {
				t.Errorf("%s: Bind %v: %v", tc.q, params, err)
				continue
			}
			want := planWith(t, cat, tc.q, true, params)
			if describe(&in.Planned) != describe(want) {
				t.Errorf("%s %v:\nbound instance:\n%s\nfolded plan:\n%s", tc.q, params, describe(&in.Planned), describe(want))
			}
		}
		if in.slots {
			t.Errorf("%s: bound instance is still marked a template", tc.q)
		}
		if describe(tmpl) != before {
			t.Errorf("%s: Lower or Bind changed the template", tc.q)
		}
	}
}

// TestDirectSegmentDerivation pins which SELECT and INSERT shapes route to
// one segment.
func TestDirectSegmentDerivation(t *testing.T) {
	cat := templateCatalog(t)
	routed := func(q string) bool { return planWith(t, cat, q, true, nil).DirectSegment >= 0 }
	for q, want := range map[string]bool{
		"SELECT c2 FROM t1 WHERE c1 = 7":                                true,
		"SELECT c2 FROM t1 WHERE 7 = c1":                                true,
		"SELECT c2 FROM t1 WHERE c1 = 7.0":                              true,
		"SELECT c2 FROM t1 WHERE c1 = NULL":                             true,
		"SELECT c2 FROM t1 WHERE c1 = 7 AND c2 > 1":                     true,
		"SELECT count(*), max(c2) FROM t1 WHERE c1 = 7":                 true,
		"SELECT c2 FROM t1 WHERE c1 = 7 ORDER BY c2 LIMIT 2":            true,
		"SELECT c2 FROM t1 WHERE c1 = 7 FOR UPDATE":                     true,
		"SELECT w FROM ev WHERE id = 7":                                 true,
		"SELECT v FROM two WHERE a = 1 AND b = 2":                       true,
		"SELECT amt FROM sales WHERE id = 5 AND d = 150":                true,
		"SELECT v FROM two WHERE a = 1":                                 false,
		"SELECT c2 FROM t1 WHERE c1 IN (1, 2)":                          false,
		"SELECT c2 FROM t1 WHERE c1 >= 7 AND c1 <= 7":                   false,
		"SELECT c2 FROM t1 WHERE c1 = 7 OR c1 = 8":                      false,
		"SELECT c2 FROM t1 WHERE c2 = 7":                                false,
		"SELECT c2 FROM t1":                                             false,
		"SELECT name FROM r WHERE id = 1":                               false,
		"SELECT b FROM rnd WHERE a = 1":                                 false,
		"SELECT a.c2 FROM t1 a JOIN t2 b ON a.c1 = b.c1 WHERE a.c1 = 7": false,
		"SELECT 1":                     false,
		"INSERT INTO t1 VALUES (7, 1)": true,
		"INSERT INTO two (v, b, a) VALUES (1, 2, 3)":        true,
		"INSERT INTO t1 VALUES (7, 1), (8, 2)":              false,
		"INSERT INTO r VALUES (1, 'x')":                     false,
		"INSERT INTO rnd VALUES (1, 2)":                     false,
		"INSERT INTO t1 SELECT c1, c2 FROM t1 WHERE c1 = 7": false,
	} {
		if got := routed(q); got != want {
			t.Errorf("%s: routed to one segment = %v, want %v", q, got, want)
		}
	}
	// The segment is the one the key's rows hash to.
	for k := int64(0); k < 50; k++ {
		pl, err := planWith(t, cat, "SELECT c2 FROM t1 WHERE c1 = $1", false, ints(k)).Bind(ints(k))
		if err != nil {
			t.Fatal(err)
		}
		if want := types.Bucket(types.Row{types.NewInt(k)}.HashKey(), 4); pl.DirectSegment != want {
			t.Fatalf("key %d routed to segment %d, rows live on %d", k, pl.DirectSegment, want)
		}
		ins, err := planWith(t, cat, "INSERT INTO t1 VALUES ($1, 0)", false, ints(k)).Bind(ints(k))
		if err != nil {
			t.Fatal(err)
		}
		if ins.DirectSegment != pl.DirectSegment {
			t.Fatalf("INSERT of key %d pinned to segment %d, its reads to %d", k, ins.DirectSegment, pl.DirectSegment)
		}
	}
}

// TestBindSharesTemplateConcurrently lowers one template in many goroutines,
// each a session binding its own instance over and over (run under -race):
// lowering and binding must only read the template.
func TestBindSharesTemplateConcurrently(t *testing.T) {
	cat := templateCatalog(t)
	tmpl := planWith(t, cat, "SELECT amt FROM sales WHERE id = $1 AND d = $2 ORDER BY amt LIMIT $3", false, ints(1, 1, 1))
	before := describe(tmpl)
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			pl := tmpl.Lower()
			for i := int64(0); i < 200; i++ {
				params := ints(g*1000+i, (g*37+i)%300, i%7)
				if err := pl.Bind(params); err != nil {
					t.Error(err)
					return
				}
				want := types.Bucket(types.Row{params[0]}.HashKey(), 4)
				lim := pl.Root.(*Limit)
				if pl.DirectSegment != want || lim.Count != i%7 || len(pl.Motions) != 1 || pl.Motions[0] == tmpl.Motions[0] {
					t.Errorf("params %v: direct=%d (want %d) limit=%d motions=%d", params, pl.DirectSegment, want, lim.Count, len(pl.Motions))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if describe(tmpl) != before {
		t.Fatalf("the template changed under its instances:\n%s\nwas:\n%s", describe(tmpl), before)
	}
}

// TestBindErrors: a bad bound LIMIT and a missing parameter surface as
// errors, not as a plan.
func TestBindErrors(t *testing.T) {
	cat := templateCatalog(t)
	tmpl := planWith(t, cat, "SELECT c1 FROM t1 LIMIT $1", false, ints(1))
	if _, err := tmpl.Bind([]types.Datum{types.NewText("many")}); err == nil || !strings.Contains(err.Error(), "bad LIMIT") {
		t.Fatalf("text LIMIT: %v", err)
	}
	if _, err := tmpl.Bind(nil); err == nil || !strings.Contains(err.Error(), "not supplied") {
		t.Fatalf("missing parameter: %v", err)
	}
}

// TestInstanceBindAfterErrors: a bad bound LIMIT and a missing parameter
// leave an instance ready for the next values.
func TestInstanceBindAfterErrors(t *testing.T) {
	cat := templateCatalog(t)
	in := planWith(t, cat, "SELECT c1 FROM t1 LIMIT $1", false, ints(1)).Lower()
	if err := in.Bind([]types.Datum{types.NewText("many")}); err == nil || !strings.Contains(err.Error(), "bad LIMIT") {
		t.Fatalf("text LIMIT: %v", err)
	}
	if err := in.Bind(nil); err == nil || !strings.Contains(err.Error(), "not supplied") {
		t.Fatalf("missing parameter: %v", err)
	}
	if err := in.Bind(ints(4)); err != nil || in.Root.(*Limit).Count != 4 {
		t.Fatalf("after the failures: %v, limit %d", err, in.Root.(*Limit).Count)
	}
}
