package sql_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/workload"
)

// hangInputs once sent the parser into loops that never reached end of
// input: an unclosed type modifier and a LOCK mode without MODE.
var hangInputs = []string{
	"CREATE TABLE a (a int(",
	"LOCK TABLE t IN ACCESS",
}

// parseWithin runs ParseAll on src and fails the test if it has not returned
// within d.
func parseWithin(t *testing.T, src string, d time.Duration) ([]sql.Statement, error) {
	t.Helper()
	type result struct {
		stmts []sql.Statement
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stmts, err := sql.ParseAll(src)
		done <- result{stmts, err}
	}()
	select {
	case r := <-done:
		return r.stmts, r.err
	case <-time.After(d):
		t.Fatalf("ParseAll(%q) did not return within %v", src, d)
		return nil, nil
	}
}

// TestParseStopsAtEndOfInput: truncated statements are parse errors, not
// endless loops.
func TestParseStopsAtEndOfInput(t *testing.T) {
	for _, src := range hangInputs {
		if _, err := parseWithin(t, src, 2*time.Second); err == nil {
			t.Errorf("ParseAll(%q) accepted a truncated statement", src)
		}
	}
}

// recorder is a workload.Conn that keeps the statement texts it is sent.
type recorder []string

func (r *recorder) Exec(_ context.Context, q string, _ ...types.Datum) (int, []types.Row, error) {
	*r = append(*r, q)
	return 0, nil, nil
}

// FuzzParse: ParseAll on any text returns statements or an error — never a
// panic or a hang — and a parsed SELECT prints (String) to text that parses
// back to the same print. Only SELECT has that property; other statement
// kinds print abbreviated forms. Seeds: the TPC-B and CH-benCHmark statement
// texts and the inputs that once hung the parser.
func FuzzParse(f *testing.F) {
	ctx := context.Background()
	var rec recorder
	tpcb := &workload.TPCB{Branches: 1}
	ch := &workload.CHBench{Warehouses: 1, Items: 10}
	rec = append(rec, tpcb.Schema(), ch.Schema())
	r := workload.NewRand(1)
	_ = tpcb.Transaction(ctx, &rec, r)
	_ = ch.NewOrder(ctx, &rec, r)
	_ = ch.Payment(ctx, &rec, r)
	rec = append(rec, ch.AnalyticalQueries()...)
	for _, q := range append(rec, hangInputs...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parseWithin(t, src, 2*time.Second)
		if err != nil {
			return
		}
		for _, st := range stmts {
			sel, ok := st.(*sql.SelectStmt)
			if !ok {
				continue
			}
			text := sel.String()
			again, err := sql.Parse(text)
			if err != nil {
				t.Fatalf("%q parses, its print %q does not: %v", src, text, err)
			}
			if got := again.String(); got != text {
				t.Fatalf("%q prints %q, which re-parses to %q", src, text, got)
			}
		}
	})
}
