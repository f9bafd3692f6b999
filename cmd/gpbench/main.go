// Command gpbench regenerates the tables and figures of the paper's
// evaluation section on the simulated cluster.
//
// Usage:
//
//	gpbench                 # run every experiment with the full sweep
//	gpbench -exp fig12      # run one experiment
//	gpbench -quick          # fast smoke sweep
//	gpbench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (empty = all)")
		quick   = flag.Bool("quick", false, "fast smoke sweep")
		list    = flag.Bool("list", false, "list experiment ids")
		seconds = flag.Float64("duration", 0, "seconds per measured point (overrides preset)")
		metrics = flag.String("metrics", "", "dump a JSON observability-registry snapshot per engine to this file (- = stderr)")
	)
	flag.Parse()

	if *metrics != "" {
		if *metrics == "-" {
			experiments.MetricsOut = os.Stderr
		} else {
			f, err := os.Create(*metrics)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gpbench: -metrics: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			experiments.MetricsOut = f
		}
	}

	opts := experiments.Full()
	if *quick {
		opts = experiments.Quick()
	}
	if *seconds > 0 {
		opts.Duration = time.Duration(*seconds * float64(time.Second))
	}

	type runner func(experiments.Options) (*bench.Table, error)
	table := map[string]runner{
		"fig2":  experiments.Fig2Locking,
		"fig10": experiments.Fig10Commit,
		"fig12": experiments.Fig12TPCB,
		"fig13": experiments.Fig13Scale,
		"fig14": experiments.Fig14UpdateOnly,
		"fig15": experiments.Fig15InsertOnly,
		"fig16": experiments.Fig16OLAPUnderOLTP,
		"fig17": experiments.Fig17OLTPUnderOLAP,
		"fig18": experiments.Fig18ResourceGroups,
	}
	ids := make([]string, 0, len(table)+1)
	for id := range table {
		ids = append(ids, id)
	}
	ids = append(ids, "table1")
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	run := func(id string) {
		if id == "table1" {
			fmt.Print(experiments.Table1Conflicts())
			return
		}
		r, ok := table[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "gpbench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		t0 := time.Now()
		tbl, err := r(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tbl.Write(os.Stdout)
		fmt.Printf("(%s in %.1fs)\n", id, time.Since(t0).Seconds())
	}

	if *exp != "" {
		run(*exp)
		return
	}
	for _, id := range ids {
		run(id)
	}
}
