package plan

import (
	"testing"

	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/types"
)

// analyzedStats gives t1 (1 000 rows) and t2 (200 rows) ANALYZE statistics
// over rows (i, i % 7), as a session's cluster would after ANALYZE.
type analyzedStats map[string]*stats.TableStats

func newAnalyzedStats() analyzedStats {
	st := analyzedStats{}
	for table, n := range map[string]int{"t1": 1000, "t2": 200} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 7))}
		}
		st[table] = stats.BuildTableStats(table, []string{"c1", "c2"}, rows, int64(n), stats.DefaultBuckets)
	}
	return st
}

func (s analyzedStats) RowCount(table string) int64 {
	if ts := s[table]; ts != nil {
		return ts.RowCount
	}
	return 0
}

func (s analyzedStats) TableStats(table string) *stats.TableStats { return s[table] }

// TestOperatorMemoryReadsCostRows: under both optimizers, robust or not,
// every blocking operator's EstMemBytes is its width formula times the rows
// the cost model estimated for it (a hash join's for its build side), taking
// the upper end of the estimate's interval (Rows+Bound) in a robust plan.
func TestOperatorMemoryReadsCostRows(t *testing.T) {
	cat := testCatalog(t)
	queries := []string{
		"SELECT c2, count(*), sum(c1) FROM t1 WHERE c1 < 300 GROUP BY c2",
		"SELECT t1.c1, t2.c1 FROM t1 JOIN t2 ON t1.c2 = t2.c2 WHERE t2.c1 < 50",
		"SELECT c1, c2 FROM t1 ORDER BY c2, c1 LIMIT 5",
	}
	for _, opt := range []Optimizer{OptimizerOLTP, OptimizerOLAP} {
		for _, robust := range []bool{false, true} {
			for _, q := range queries {
				st, err := sql.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: opt, Stats: newAnalyzedStats(), Robust: robust}
				pl, err := p.PlanSelect(st.(*sql.SelectStmt))
				if err != nil {
					t.Fatal(err)
				}
				rows := func(n Node) int64 {
					nc := pl.Costs[n]
					if nc == nil {
						t.Fatalf("%v robust=%v %s: %s has no cost", opt, robust, q, n.Explain())
					}
					if robust {
						return nc.Rows + nc.Bound
					}
					return nc.Rows
				}
				blocking := 0
				var walk func(Node)
				walk = func(n Node) {
					var est, want int64
					switch x := n.(type) {
					case *Sort:
						est, want = x.EstMemBytes, rows(x)*estRowWidth(x.Child.Schema())
					case *Agg:
						est, want = x.EstMemBytes, rows(x)*(estRowBytes+estDatumBytes*int64(len(x.GroupBy))+64*int64(len(x.Specs)))
					case *HashJoin:
						est, want = x.EstMemBytes, rows(x.Right)*estRowWidth(x.Right.Schema())
					default:
						for _, c := range n.Children() {
							walk(c)
						}
						return
					}
					blocking++
					if est != want {
						t.Errorf("%v robust=%v %s: %s est_mem %d, want %d\n%s", opt, robust, q, n.Explain(), est, want, ExplainPlan(pl.Root, pl.Costs, nil))
					}
					for _, c := range n.Children() {
						walk(c)
					}
				}
				walk(pl.Root)
				if blocking == 0 {
					t.Errorf("%v robust=%v %s: no blocking operator\n%s", opt, robust, q, Explain(pl.Root))
				}
			}
		}
	}
}

// TestJoinEstimateIgnoresBroadcast: a join's row estimate does not depend on
// the motion under its inner side. smallT2Stats makes the cost-based planner
// broadcast t2 and the robust plan redistributes it; the hash join's
// estimated rows are the same.
func TestJoinEstimateIgnoresBroadcast(t *testing.T) {
	cat := testCatalog(t)
	var got []int64
	for _, robust := range []bool{false, true} {
		st, _ := sql.Parse("SELECT * FROM t1 JOIN t2 ON t1.c2 = t2.c2")
		p := &Planner{Catalog: cat, NumSegments: 4, Optimizer: OptimizerOLAP, Stats: smallT2Stats{}, Robust: robust}
		pl, err := p.PlanSelect(st.(*sql.SelectStmt))
		if err != nil {
			t.Fatal(err)
		}
		j := joinsIn(pl.Root)[0].(*HashJoin)
		want := MotionBroadcast
		if robust {
			want = MotionRedistribute
		}
		if m, ok := j.Right.(*Motion); !ok || m.Type != want {
			t.Fatalf("robust=%v: want a %s inner side:\n%s", robust, want, Explain(pl.Root))
		}
		got = append(got, pl.Costs[j].Rows)
	}
	if got[0] != got[1] {
		t.Fatalf("hash join rows: %d over a broadcast, %d over a redistribute", got[0], got[1])
	}
}
