// HTAP mixed workload: CH-benCHmark-style transactional and analytical
// clients running simultaneously, isolated by resource groups — the paper's
// §6 configuration with an OLTP group on a dedicated CPUSET and an OLAP
// group on the remaining cores.
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

func main() {
	db, err := greenplum.Open(greenplum.Options{Segments: 4, Cores: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	admin, err := db.Connect("")
	if err != nil {
		log.Fatal(err)
	}

	// Schema: orders fact table + replicated item dimension.
	schema := `
CREATE TABLE item (i_id int, i_name text, i_price float) DISTRIBUTED REPLICATED;
CREATE TABLE orders (o_id int, o_item int, o_qty int, o_amount float, o_day int) DISTRIBUTED BY (o_id);
CREATE INDEX orders_pkey ON orders (o_id);

CREATE RESOURCE GROUP olap_group WITH (CONCURRENCY=10, MEMORY_LIMIT=35, MEMORY_SHARED_QUOTA=20, CPUSET=2-7);
CREATE RESOURCE GROUP oltp_group WITH (CONCURRENCY=50, MEMORY_LIMIT=15, MEMORY_SHARED_QUOTA=20, CPUSET=0-1);
CREATE ROLE analyst RESOURCE GROUP olap_group;
CREATE ROLE teller RESOURCE GROUP oltp_group;
`
	if err := admin.ExecScript(ctx, schema); err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 200; i++ {
		if _, err := admin.Exec(ctx, `INSERT INTO item VALUES ($1, $2, $3)`,
			greenplum.Int(int64(i)), greenplum.Text(fmt.Sprintf("item-%d", i)),
			greenplum.Float(float64(1+i%50))); err != nil {
			log.Fatal(err)
		}
	}
	// Loaded: now every message to a segment costs a 1ms network round
	// trip and every log flush a 1ms fsync.
	for _, point := range []string{"dispatch_send", "wal_flush"} {
		cost := greenplum.FaultSpec{Point: point, Seg: greenplum.AllSegments, Action: "sleep", Sleep: time.Millisecond}
		if err := db.InjectFault(cost); err != nil {
			log.Fatal(err)
		}
	}

	var orderSeq atomic.Int64
	var oltpOps, olapOps atomic.Int64
	deadline := time.Now().Add(3 * time.Second)
	var wg sync.WaitGroup

	// OLTP side: tellers inserting orders under the oltp_group.
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := db.Connect("teller")
			if err != nil {
				return
			}
			conn.UseResourceGroup(true, time.Millisecond)
			seed := uint64(c + 1)
			for time.Now().Before(deadline) {
				seed = seed*6364136223846793005 + 1
				id := orderSeq.Add(1)
				item := int64(seed>>33)%200 + 1
				qty := int64(seed>>20)%10 + 1
				_, err := conn.Exec(ctx,
					`INSERT INTO orders VALUES ($1, $2, $3, $4, $5)`,
					greenplum.Int(id), greenplum.Int(item), greenplum.Int(qty),
					greenplum.Float(float64(qty)*float64(1+item%50)),
					greenplum.Int(int64(seed>>40)%365))
				if err == nil {
					oltpOps.Add(1)
				}
			}
		}()
	}

	// OLAP side: analysts running aggregates/joins under the olap_group.
	queries := []string{
		`SELECT o_qty, count(*), sum(o_amount) FROM orders GROUP BY o_qty ORDER BY o_qty`,
		`SELECT i.i_price, sum(o.o_amount) FROM orders o JOIN item i ON o.o_item = i.i_id GROUP BY i.i_price ORDER BY 2 DESC LIMIT 5`,
		`SELECT count(*), avg(o_amount) FROM orders WHERE o_day BETWEEN 100 AND 200`,
	}
	for c := 0; c < 4; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := db.Connect("analyst")
			if err != nil {
				return
			}
			conn.UseResourceGroup(true, 10*time.Millisecond)
			if err := conn.SetOptimizer("orca"); err != nil {
				return
			}
			for i := 0; time.Now().Before(deadline); i++ {
				if _, err := conn.Exec(ctx, queries[(c+i)%len(queries)]); err == nil {
					olapOps.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	total, err := admin.QueryScalar(ctx, `SELECT count(*) FROM orders`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mixed run complete: %d OLTP inserts (%d visible), %d OLAP queries\n",
		oltpOps.Load(), total.Int(), olapOps.Load())
	fmt.Printf("commit protocols: 1PC=%d 2PC=%d read-only=%d aborts=%d\n",
		db.MetricValue("txn.commits_1pc"), db.MetricValue("txn.commits_2pc"),
		db.MetricValue("txn.commits_readonly"), db.MetricValue("txn.aborts"))
	if total.Int() != oltpOps.Load() {
		log.Fatalf("lost inserts: committed %d, visible %d", oltpOps.Load(), total.Int())
	}
	fmt.Println("invariant holds: every committed insert is visible")
}
