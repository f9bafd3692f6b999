package workload

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/types"
)

// Conn is the minimal session surface a workload driver needs; both the
// public greenplum.Conn and the internal core.Session satisfy it via small
// adapters in the bench harness.
type Conn interface {
	Exec(ctx context.Context, sql string, args ...types.Datum) (affected int, rows []types.Row, err error)
}

// TPCB is the pgbench-style TPC-B workload (paper §7.2, Figs. 12–13).
type TPCB struct {
	// Branches is the scale factor: 1 branch = 10 tellers = AccountsPerBranch
	// accounts.
	Branches int
	// AccountsPerBranch defaults to 1000 (pgbench uses 100000; the
	// simulation keeps the same shape at a laptop-friendly scale).
	AccountsPerBranch int
}

// Accounts returns the total account count.
func (w *TPCB) Accounts() int { return w.Branches * w.apb() }

func (w *TPCB) apb() int {
	if w.AccountsPerBranch <= 0 {
		return 1000
	}
	return w.AccountsPerBranch
}

// Schema returns the DDL (pgbench table layout, distributed by the access
// keys, with drill-through indexes).
func (w *TPCB) Schema() string {
	return `
CREATE TABLE pgbench_branches (bid int, bbalance int, filler text) DISTRIBUTED BY (bid);
CREATE TABLE pgbench_tellers  (tid int, bid int, tbalance int, filler text) DISTRIBUTED BY (tid);
CREATE TABLE pgbench_accounts (aid int, bid int, abalance int, filler text) DISTRIBUTED BY (aid);
CREATE TABLE pgbench_history  (tid int, bid int, aid int, delta int, mtime int, filler text) DISTRIBUTED BY (aid);
CREATE INDEX pgbench_branches_pkey ON pgbench_branches (bid);
CREATE INDEX pgbench_tellers_pkey  ON pgbench_tellers (tid);
CREATE INDEX pgbench_accounts_pkey ON pgbench_accounts (aid);
`
}

// Load populates the tables. It batches inserts for speed.
func (w *TPCB) Load(ctx context.Context, c Conn) error {
	for b := 1; b <= w.Branches; b++ {
		if _, _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO pgbench_branches VALUES (%d, 0, '')", b)); err != nil {
			return err
		}
		for t := 0; t < 10; t++ {
			tid := (b-1)*10 + t + 1
			if _, _, err := c.Exec(ctx, fmt.Sprintf("INSERT INTO pgbench_tellers VALUES (%d, %d, 0, '')", tid, b)); err != nil {
				return err
			}
		}
	}
	apb := w.apb()
	const batch = 500
	var sb strings.Builder
	flush := func() error {
		if sb.Len() == 0 {
			return nil
		}
		_, _, err := c.Exec(ctx, "INSERT INTO pgbench_accounts VALUES "+sb.String())
		sb.Reset()
		return err
	}
	n := 0
	for b := 1; b <= w.Branches; b++ {
		for a := 0; a < apb; a++ {
			aid := (b-1)*apb + a + 1
			if sb.Len() > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, 0, '')", aid, b)
			n++
			if n%batch == 0 {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}

// Transaction runs one TPC-B transaction on keys drawn from r.
func (w *TPCB) Transaction(ctx context.Context, c Conn, r *Rand) error {
	aid := r.Range(1, w.Accounts())
	bid := r.Range(1, w.Branches)
	tid := r.Range(1, w.Branches*10)
	return w.Transfer(ctx, c, aid, tid, bid, r.Range(-5000, 5000))
}

// Transfer runs the classic five TPC-B statements in an explicit block:
// delta moves onto account aid, teller tid and branch bid, and a history
// row records it. A failed statement rolls the block back.
func (w *TPCB) Transfer(ctx context.Context, c Conn, aid, tid, bid, delta int) error {
	if _, _, err := c.Exec(ctx, "BEGIN"); err != nil {
		return err
	}
	a, t, b, d := types.NewInt(int64(aid)), types.NewInt(int64(tid)), types.NewInt(int64(bid)), types.NewInt(int64(delta))
	steps := []struct {
		sql  string
		args []types.Datum
	}{
		{"UPDATE pgbench_accounts SET abalance = abalance + $1 WHERE aid = $2", []types.Datum{d, a}},
		{"SELECT abalance FROM pgbench_accounts WHERE aid = $1", []types.Datum{a}},
		{"UPDATE pgbench_tellers SET tbalance = tbalance + $1 WHERE tid = $2", []types.Datum{d, t}},
		{"UPDATE pgbench_branches SET bbalance = bbalance + $1 WHERE bid = $2", []types.Datum{d, b}},
		{"INSERT INTO pgbench_history VALUES ($1, $2, $3, $4, 0, '')", []types.Datum{t, b, a, d}},
	}
	for _, st := range steps {
		if _, _, err := c.Exec(ctx, st.sql, st.args...); err != nil {
			_, _, _ = c.Exec(ctx, "ROLLBACK")
			return err
		}
	}
	_, _, err := c.Exec(ctx, "COMMIT")
	return err
}

// TotalBalance returns sum(abalance) — the consistency invariant checks
// that it always equals the sum of applied deltas.
func (w *TPCB) TotalBalance(ctx context.Context, c Conn) (int64, error) {
	_, rows, err := c.Exec(ctx, "SELECT sum(abalance) FROM pgbench_accounts")
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || rows[0][0].IsNull() {
		return 0, nil
	}
	return rows[0][0].Int(), nil
}
