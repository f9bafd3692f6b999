package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName mangles a dotted metric name into the Prometheus exposition
// charset: dots and dashes become underscores.
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as untyped samples, histograms
// as the standard _bucket/_sum/_count triple with cumulative le labels.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Values))
	for n := range s.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s %d\n", promName(n), s.Values[n]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Hists))
	for n := range s.Hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Hists[n]
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		cum := int64(0)
		for i, b := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, trimFloat(b), cum); err != nil {
				return err
			}
		}
		cum += h.Buckets[len(h.Bounds)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", pn, h.Sum.Seconds(), pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// trimFloat formats a bucket bound without trailing zeros (0.005, not 5e-03).
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", f), "0"), ".")
}

// WriteJSON dumps the snapshot as one JSON object: flat name→value pairs
// plus per-histogram count/sum/bucket arrays. The server's /metrics.json
// endpoint serves it.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	type histJSON struct {
		Count   int64     `json:"count"`
		SumSec  float64   `json:"sum_seconds"`
		Bounds  []float64 `json:"le"`
		Buckets []int64   `json:"buckets"`
	}
	out := struct {
		Metrics    map[string]int64    `json:"metrics"`
		Histograms map[string]histJSON `json:"histograms,omitempty"`
	}{Metrics: s.Values, Histograms: make(map[string]histJSON)}
	for n, h := range s.Hists {
		out.Histograms[n] = histJSON{Count: h.Count, SumSec: h.Sum.Seconds(), Bounds: h.Bounds, Buckets: h.Buckets}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
