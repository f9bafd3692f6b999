package main

import (
	"context"
	"fmt"
	"strings"
)

// tpcb is the pgbench TPC-B mix: one transaction updates an account, its
// teller and its branch and appends a history row, five statements inside
// BEGIN…COMMIT with bound parameters. Account, teller and branch are drawn
// independently, so a transaction lands on one segment (and commits in one
// phase) only when all three keys hash there — about 1 in 16 on 4 segments.
type tpcb struct {
	branches  int
	perBranch int
	rnd       []*rng
	// acked[id] is the sum of the deltas client id saw COMMIT succeed for.
	acked []int64
	// plant skips one history insert, to prove the gate trips.
	plant bool
}

const (
	tpcbBranches  = 16
	tpcbPerBranch = 30000
)

func newTPCB(seed uint64, scale int) workload {
	w := &tpcb{branches: tpcbBranches, perBranch: scaled(tpcbPerBranch, scale, 20)}
	for id := 0; id < 2; id++ {
		w.rnd = append(w.rnd, fork(seed, uint64(id)))
	}
	w.acked = make([]int64, len(w.rnd))
	return w
}

const tpcbSchema = `
CREATE TABLE pgbench_branches (bid int, bbalance int, filler text) DISTRIBUTED BY (bid);
CREATE TABLE pgbench_tellers  (tid int, bid int, tbalance int, filler text) DISTRIBUTED BY (tid);
CREATE TABLE pgbench_accounts (aid int, bid int, abalance int, filler text) DISTRIBUTED BY (aid);
CREATE TABLE pgbench_history  (tid int, bid int, aid int, delta int, mtime int, filler text) DISTRIBUTED BY (aid);
CREATE INDEX pgbench_branches_pkey ON pgbench_branches (bid);
CREATE INDEX pgbench_tellers_pkey  ON pgbench_tellers (tid);
CREATE INDEX pgbench_accounts_pkey ON pgbench_accounts (aid)`

func (w *tpcb) accounts() int { return w.branches * w.perBranch }

func (w *tpcb) load(ctx context.Context, c conn) error {
	if err := script(ctx, c, tpcbSchema); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "pgbench_branches", w.branches, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d,0,'')", i+1)
	}); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "pgbench_tellers", w.branches*10, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d,%d,0,'')", i+1, i/10+1)
	}); err != nil {
		return err
	}
	if err := bulkInsert(ctx, c, "pgbench_accounts", w.accounts(), func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d,%d,0,'')", i+1, i/w.perBranch+1)
	}); err != nil {
		return err
	}
	_, err := c.exec(ctx, "ANALYZE")
	return err
}

const (
	tpcbUpdAccount = "UPDATE pgbench_accounts SET abalance = abalance + $1 WHERE aid = $2"
	tpcbSelAccount = "SELECT abalance FROM pgbench_accounts WHERE aid = $1"
	tpcbUpdTeller  = "UPDATE pgbench_tellers SET tbalance = tbalance + $1 WHERE tid = $2"
	tpcbUpdBranch  = "UPDATE pgbench_branches SET bbalance = bbalance + $1 WHERE bid = $2"
	tpcbInsHistory = "INSERT INTO pgbench_history VALUES ($1, $2, $3, $4, 0, '')"
)

func (w *tpcb) op(ctx context.Context, c conn, id int) (uint8, error) {
	r := w.rnd[id]
	aid := r.between(1, w.accounts())
	bid := r.between(1, w.branches)
	tid := r.between(1, w.branches*10)
	delta := r.between(-5000, 5000)

	if _, err := c.exec(ctx, "BEGIN"); err != nil {
		return 0, err
	}
	abort := func(err error) (uint8, error) {
		_, _ = c.exec(ctx, "ROLLBACK") // the statement error is the one reported
		return 0, err
	}
	if _, err := c.exec(ctx, tpcbUpdAccount, ints(delta, aid)...); err != nil {
		return abort(err)
	}
	rows, err := c.exec(ctx, tpcbSelAccount, ints(aid)...)
	if err != nil {
		return abort(err)
	}
	if len(rows) != 1 {
		return abort(fmt.Errorf("tpcb: account %d read back %d rows", aid, len(rows)))
	}
	if _, err := c.exec(ctx, tpcbUpdTeller, ints(delta, tid)...); err != nil {
		return abort(err)
	}
	if _, err := c.exec(ctx, tpcbUpdBranch, ints(delta, bid)...); err != nil {
		return abort(err)
	}
	if w.plant {
		w.plant = false
	} else if _, err := c.exec(ctx, tpcbInsHistory, ints(tid, bid, aid, delta)...); err != nil {
		return abort(err)
	}
	if _, err := c.exec(ctx, "COMMIT"); err != nil {
		return 0, err
	}
	w.acked[id] += int64(delta)
	return 0, nil
}

// check: every balance column and the history sum to the acknowledged
// deltas; then every segment is killed and recovered from its WAL and the
// sums are taken again — an acknowledged write must survive.
func (w *tpcb) check(ctx context.Context, h *host) error {
	var want int64
	for _, a := range w.acked {
		want += a
	}
	sums := func(when string) error {
		c, err := h.session()
		if err != nil {
			return err
		}
		defer c.close()
		for _, q := range []string{
			"SELECT sum(abalance) FROM pgbench_accounts",
			"SELECT sum(bbalance) FROM pgbench_branches",
			"SELECT sum(tbalance) FROM pgbench_tellers",
			"SELECT sum(delta) FROM pgbench_history",
		} {
			v, err := scalar(ctx, c, q)
			if err != nil {
				return err
			}
			if got := v.Int(); got != want {
				return fmt.Errorf("tpcb %s: %s = %d, acknowledged deltas sum to %d", when, q, got, want)
			}
		}
		return nil
	}
	if err := sums("after window"); err != nil {
		return err
	}
	if err := crashRecover(h); err != nil {
		return err
	}
	return sums("after crash recovery")
}

// crashRecover kills every segment and revives it from its own WAL.
func crashRecover(h *host) error {
	for seg := 0; seg < segments; seg++ {
		if err := h.db.KillSegment(seg); err != nil {
			return err
		}
		if err := h.db.Recover(seg); err != nil {
			return fmt.Errorf("recover segment %d: %w", seg, err)
		}
	}
	return nil
}

func (w *tpcb) statements() []statement {
	return []statement{
		{tpcbUpdAccount, ints(1, 1), 1},
		{tpcbSelAccount, ints(1), 1},
		{tpcbUpdTeller, ints(1, 1), 1},
		{tpcbUpdBranch, ints(1, 1), 1},
		{tpcbInsHistory, ints(1, 1, 1, 1), 1},
	}
}
