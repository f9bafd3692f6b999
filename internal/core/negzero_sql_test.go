package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestNegativeZeroIsZero: -0.0 and 0.0 compare equal, so every hashed path
// must treat them as one value — grouping, DISTINCT, a redistributed hash
// join, the distribution of a row and a direct-dispatch read pinned by it, and
// the hash index — on a heap and on an AO-column table.
func TestNegativeZeroIsZero(t *testing.T) {
	_, s := directEngine(t, true)
	ctx := context.Background()
	negZero := types.NewFloat(math.Copysign(0, -1))
	mustExec(t, s, "CREATE TABLE z (k float, tag text) DISTRIBUTED BY (tag)")
	vals := []string{"(0, 'zero')"}
	for i := 0; i < 500; i++ { // enough build rows that -0 and 0 would hash to different chains
		vals = append(vals, fmt.Sprintf("(%d.5, 'k%d')", 10+i, i))
	}
	mustExec(t, s, "INSERT INTO z VALUES "+strings.Join(vals, ", "))
	for _, tc := range []struct{ name, with string }{
		{"heap", ""},
		{"ao_column", " WITH (appendonly=true, orientation=column)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := "nz_" + tc.name
			mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (a float, b int)%s DISTRIBUTED BY (a)", tab, tc.with))
			if tc.with == "" {
				mustExec(t, s, fmt.Sprintf("CREATE INDEX %s_a ON %s (a)", tab, tab))
			}
			mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES (0.0, 1), (-0.0, 2), (2.5, 3)", tab))
			if _, err := s.Exec(ctx, "INSERT INTO "+tab+" VALUES ($1, 4)", negZero); err != nil {
				t.Fatal(err)
			}
			count := func(q string, params ...types.Datum) int64 {
				t.Helper()
				res := mustExec(t, s, q, params...)
				if len(res.Rows) != 1 {
					t.Fatalf("%s: %d rows %v, want one", q, len(res.Rows), res.Rows)
				}
				return res.Rows[0][len(res.Rows[0])-1].Int()
			}
			if res := mustExec(t, s, "SELECT a, count(*) FROM "+tab+" WHERE a < 1 GROUP BY a"); len(res.Rows) != 1 || res.Rows[0][1].Int() != 3 {
				t.Errorf("GROUP BY a: %v, want one group of 3", res.Rows)
			}
			if res := mustExec(t, s, "SELECT DISTINCT a FROM "+tab); len(res.Rows) != 2 {
				t.Errorf("DISTINCT a: %v, want 2 values", res.Rows)
			}
			if n := count("SELECT count(DISTINCT a) FROM " + tab); n != 2 {
				t.Errorf("count(DISTINCT a) = %d, want 2", n)
			}
			if n := count("SELECT count(*) FROM " + tab + " JOIN z ON " + tab + ".a = z.k"); n != 3 {
				t.Errorf("join on a = k: %d rows, want 3", n)
			}
			for _, key := range []types.Datum{negZero, types.NewFloat(0), types.NewInt(0)} {
				if n := count("SELECT count(*) FROM "+tab+" WHERE a = $1", key); n != 3 {
					t.Errorf("pinned read of a = %v: %d rows, want 3", key, n)
				}
			}
			if n := count("SELECT count(*) FROM " + tab + " WHERE a = -0.0"); n != 3 {
				t.Errorf("pinned read of a = -0.0: %d rows, want 3", n)
			}
		})
	}
}
