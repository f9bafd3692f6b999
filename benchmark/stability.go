package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// stabilityRun answers "do two sets of runs of the same code agree?": it
// runs this binary as a child process 2 × n times per workload, alternating
// set A and set B (run i of either set uses seed+i), and prints for every
// workload × end-to-end metric both medians, each set's quartile spread as a
// share of its median, the gap between the medians (positive when B is the
// worse one) and the bound. A and B are the same program, so the sign of a gap
// means nothing: the run fails when a gap's size exceeds half its bound, or a
// spread exceeds its bound.
func stabilityRun(stdout, stderr io.Writer, run []*spec, n int, seed uint64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// samples[workload/metric][set] holds one value per run.
	samples := map[string]*[2][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, sp := range run {
				vals, err := childRun(exe, sp.name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s run %d of set %c: %v\n", sp.name, i, 'A'+set, err)
					return 1
				}
				for name, v := range vals {
					key := sp.name + "/" + name
					if samples[key] == nil {
						samples[key] = new([2][]float64)
					}
					samples[key][set] = append(samples[key][set], v)
				}
				fmt.Fprintf(stderr, "set %c run %d %s:", 'A'+set, i, sp.name)
				for _, m := range endToEnd {
					fmt.Fprintf(stderr, " %s=%.4g", m.name, vals[m.name])
				}
				fmt.Fprintln(stderr)
			}
		}
	}
	fmt.Fprintf(stdout, "| workload | metric | median A | median B | spread A | spread B | gap | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	code := 0
	for _, sp := range run {
		for _, m := range endToEnd {
			s := samples[sp.name+"/"+m.name]
			a, b := median(s[0]), median(s[1])
			gap := (b - a) / a
			if m.higher {
				gap = (a - b) / a
			}
			spreadA, spreadB := spread(s[0]), spread(s[1])
			verdict := "ok"
			if spreadA > m.bound || spreadB > m.bound {
				verdict = "SPREAD"
				code = 1
			}
			if math.Abs(gap) > m.bound/2 {
				verdict = "GAP"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %.3f | %.3f | %+.3f | %.2f | %s |\n",
				sp.name, m.name, a, b, spreadA, spreadB, gap, m.bound, verdict)
		}
	}
	return code
}

// childRun runs one untraced measurement in a child process and returns its
// end-to-end metric values.
func childRun(exe, workload string, seed uint64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect results")
	}
	vals := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4) gives
// (the exclusive method), which is how the driver judges a benchmark.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
