// Banking: a TPC-B-style OLTP application on the HTAP engine. It loads the
// pgbench schema, runs concurrent transfer transactions with and without the
// global deadlock detector's row-level locking, and verifies the money-
// conservation invariant.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	greenplum "repro"
)

const (
	branches = 4
	accounts = 1000 // per branch
	clients  = 16
	duration = 2 * time.Second
)

func main() {
	for _, mode := range []struct {
		name string
		m    greenplum.Mode
	}{
		{"GPDB 5 (Exclusive table locks, 2PC only)", greenplum.ModeGPDB5},
		{"GPDB 6 (GDD row locks, 1PC fast path)", greenplum.ModeGPDB6},
	} {
		tps, victims := run(mode.m)
		fmt.Printf("%-45s %8.0f TPS   (%d deadlock victims)\n", mode.name, tps, victims)
	}
}

func run(mode greenplum.Mode) (tps float64, victims int64) {
	db, err := greenplum.Open(greenplum.Options{Segments: 4, Mode: mode})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	admin, err := db.Connect("")
	if err != nil {
		log.Fatal(err)
	}
	script := `
CREATE TABLE accounts (aid int, bid int, balance int) DISTRIBUTED BY (aid);
CREATE TABLE branches (bid int, balance int) DISTRIBUTED BY (bid);
CREATE INDEX accounts_pkey ON accounts (aid);
CREATE INDEX branches_pkey ON branches (bid);
`
	if err := admin.ExecScript(ctx, script); err != nil {
		log.Fatal(err)
	}
	for b := 1; b <= branches; b++ {
		if _, err := admin.Exec(ctx, `INSERT INTO branches VALUES ($1, 0)`, greenplum.Int(int64(b))); err != nil {
			log.Fatal(err)
		}
	}
	for a := 1; a <= branches*accounts; a++ {
		if _, err := admin.Exec(ctx, `INSERT INTO accounts VALUES ($1, $2, 1000)`,
			greenplum.Int(int64(a)), greenplum.Int(int64((a-1)/accounts+1))); err != nil {
			log.Fatal(err)
		}
	}

	initial, err := admin.QueryScalar(ctx, `SELECT sum(balance) FROM accounts`)
	if err != nil {
		log.Fatal(err)
	}
	// Loaded: now every message to a segment costs a 1ms network round
	// trip and every log flush a 2ms fsync.
	for _, cost := range []greenplum.FaultSpec{
		{Point: "dispatch_send", Seg: greenplum.AllSegments, Action: "sleep", Sleep: time.Millisecond},
		{Point: "wal_flush", Seg: greenplum.AllSegments, Action: "sleep", Sleep: 2 * time.Millisecond},
	} {
		if err := db.InjectFault(cost); err != nil {
			log.Fatal(err)
		}
	}

	var ops atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := db.Connect("")
			if err != nil {
				return
			}
			seed := uint64(c*2654435761 + 1)
			next := func(n int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int(seed>>33) % n
			}
			for time.Now().Before(deadline) {
				from := int64(next(branches*accounts) + 1)
				to := int64(next(branches*accounts) + 1)
				if from == to {
					continue
				}
				if transfer(ctx, conn, from, to, 10) == nil {
					ops.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	final, err := admin.QueryScalar(ctx, `SELECT sum(balance) FROM accounts`)
	if err != nil {
		log.Fatal(err)
	}
	if final.Int() != initial.Int() {
		log.Fatalf("INVARIANT VIOLATION: balance %d -> %d", initial.Int(), final.Int())
	}
	return float64(ops.Load()) / elapsed.Seconds(), db.MetricValue("txn.deadlock_victims")
}

// transfer moves amount between two accounts in one transaction. With rows
// locked in aid order this can deadlock under GPDB6's row-level locking —
// the GDD resolves it by killing the younger transaction, and the caller
// simply retries or drops the transfer.
func transfer(ctx context.Context, conn *greenplum.Conn, from, to, amount int64) error {
	if err := conn.Begin(ctx); err != nil {
		return err
	}
	steps := []struct {
		q    string
		args []greenplum.Datum
	}{
		{`UPDATE accounts SET balance = balance - $1 WHERE aid = $2`, []greenplum.Datum{greenplum.Int(amount), greenplum.Int(from)}},
		{`UPDATE accounts SET balance = balance + $1 WHERE aid = $2`, []greenplum.Datum{greenplum.Int(amount), greenplum.Int(to)}},
	}
	for _, s := range steps {
		if _, err := conn.Exec(ctx, s.q, s.args...); err != nil {
			_ = conn.Rollback(ctx)
			return err
		}
	}
	return conn.Commit(ctx)
}
