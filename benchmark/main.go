// Command benchmark is the repository's benchmark: four HTAP workloads, each
// set up from a seed, warmed with a fixed operation count, measured for a
// fixed window with tracing off, and checked by a correctness gate. A
// separate traced pass (-trace 1) attributes time to each engine module.
// See README.md in this directory.
//
//	go run ./benchmark -workload tpcb_wire -seed 1 -seconds 20 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

type options struct {
	seed   uint64
	scale  int // divisor on data sizes and warm-up counts (tests use 50)
	window time.Duration
	plant  bool
	outDir string // where the traced pass writes its trace file
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: tpcb_wire, point_1pc, scan_aocol, htap_ch, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass with per-layer metrics")
	scale := fs.Int("scale", 1, "divide data sizes and fixed operation counts by this (tests use 50)")
	plant := fs.Bool("plant", false, "tpcb_wire skips one history insert, to show the gate trips")
	outDir := fs.String("out", "benchmark/out", "directory the traced pass writes trace-<workload>.json to")
	stability := fs.Int("stability", 0, "run two interleaved sets of this many untraced runs per workload and compare their medians with the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *scale < 1 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	o := options{seed: *seed, scale: *scale, window: time.Duration(*seconds * float64(time.Second)), plant: *plant, outDir: *outDir}

	run := specs
	if *name != "all" {
		sp, err := findSpec(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		run = []*spec{sp}
	}
	if *stability > 0 {
		return stabilityRun(stdout, stderr, run, *stability, *seed, *seconds)
	}
	code := 0
	for _, sp := range run {
		var res *result
		var err error
		if *trace == 1 {
			res, err = traced(context.Background(), stdout, sp, o)
		} else {
			res, err = measure(context.Background(), stdout, sp, o)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if err := report(stdout, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if !res.correct {
			code = 1
		}
	}
	return code
}

// report prints every metric by name with its unit, then the result as one
// JSON object on the last line.
func report(out io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value, len(res.metrics))}
	for _, m := range res.metrics {
		fmt.Fprintf(out, "%s  %-36s %14.4f %s\n", res.workload, m.name, m.value, m.unit)
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(out, "%s  correct=%v attempted=%d failed=%d\n", res.workload, res.correct, res.attempted, res.failed)
	js, err := json.Marshal(line)
	if err != nil { // a NaN or Inf metric
		return fmt.Errorf("%s: encode result: %w", res.workload, err)
	}
	_, err = fmt.Fprintf(out, "%s\n", js)
	return err
}
