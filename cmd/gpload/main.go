// Command gpload bulk-loads benchmark datasets into a fresh cluster and
// reports storage statistics — a loader for kicking the tires on the
// storage engines and compression.
//
//	gpload -workload tpcb -scale 4
//	gpload -workload chbench -warehouses 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	greenplum "repro"
	"repro/internal/bench"
	"repro/internal/workload"
)

func main() {
	var (
		kind       = flag.String("workload", "tpcb", "tpcb or chbench")
		scale      = flag.Int("scale", 4, "TPC-B branches")
		warehouses = flag.Int("warehouses", 2, "CH-benCHmark warehouses")
		segments   = flag.Int("segments", 4, "segment count")
	)
	flag.Parse()

	db, err := greenplum.Open(greenplum.Options{Segments: *segments})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()
	conn, err := db.Connect("")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ctx := context.Background()
	wc := bench.SessionConn{S: conn.Session()}

	t0 := time.Now()
	var tables []string
	switch *kind {
	case "tpcb":
		w := &workload.TPCB{Branches: *scale}
		if err := conn.ExecScript(ctx, w.Schema()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.Load(ctx, wc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tables = []string{"pgbench_branches", "pgbench_tellers", "pgbench_accounts", "pgbench_history"}
	case "chbench":
		w := &workload.CHBench{Warehouses: *warehouses, Items: 1000, InitialOrders: 10}
		if err := conn.ExecScript(ctx, w.Schema()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.Load(ctx, wc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tables = []string{"warehouse", "district", "customer", "item", "stock", "orders", "order_line", "ch_history"}
	default:
		fmt.Fprintf(os.Stderr, "gpload: unknown workload %q\n", *kind)
		os.Exit(2)
	}
	fmt.Printf("loaded %s in %.2fs\n\n", *kind, time.Since(t0).Seconds())

	fmt.Printf("%-20s %12s %14s\n", "table", "rows", "per-seg rows")
	cl := db.Engine().Cluster()
	for _, name := range tables {
		total := cl.RowCount(name)
		fmt.Printf("%-20s %12d %14d\n", name, total, total/int64(*segments))
	}
}
