package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// stream is one load-generator stream's outcome: a latency sample per
// completed operation (tagged with the workload's operation kind), and the
// attempted/failed counts. A failed operation has no latency sample.
type stream struct {
	lat       []time.Duration
	kind      []uint8
	attempted int
	failed    int
	firstErr  error
}

func newStream(capacity int) *stream {
	return &stream{lat: make([]time.Duration, 0, capacity), kind: make([]uint8, 0, capacity)}
}

func (s *stream) record(kind uint8, d time.Duration, err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.lat = append(s.lat, d)
	s.kind = append(s.kind, kind)
}

// ofKind returns the samples of one operation kind.
func (s *stream) ofKind(kind int) []time.Duration {
	var out []time.Duration
	for i, d := range s.lat {
		if int(s.kind[i]) == kind {
			out = append(out, d)
		}
	}
	return out
}

// merged folds the clients' streams into one.
func merged(parts []*stream) *stream {
	all := &stream{}
	for _, p := range parts {
		all.lat = append(all.lat, p.lat...)
		all.kind = append(all.kind, p.kind...)
		all.attempted += p.attempted
		all.failed += p.failed
		if all.firstErr == nil {
			all.firstErr = p.firstErr
		}
	}
	return all
}

// quantile is the nearest-rank q-quantile of samples, in the given unit.
func quantile(samples []time.Duration, q float64, unit time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / float64(unit)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// opFunc runs one operation on client id and reports its kind.
type opFunc func(id int) (kind uint8, err error)

// closedLoop runs n clients, each issuing its next operation as soon as the
// previous one completes, until the deadline; an operation in flight at the
// deadline is allowed to finish and counts. The clients' streams come back
// folded into one.
func closedLoop(n int, deadline time.Time, op opFunc) *stream {
	return runClients(n, op, func(int) bool { return time.Now().Before(deadline) })
}

// fixedOps runs exactly total operations split evenly over n closed-loop
// clients (the warm-up: a count, never a duration).
func fixedOps(n, total int, op opFunc) *stream {
	per := (total + n - 1) / n
	return runClients(n, op, func(done int) bool { return done < per })
}

func runClients(n int, op opFunc, more func(done int) bool) *stream {
	parts := make([]*stream, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		parts[id] = newStream(1 << 16)
		wg.Add(1)
		go func(id int, s *stream) {
			defer wg.Done()
			for more(s.attempted) {
				t0 := time.Now()
				kind, err := op(id)
				s.record(kind, time.Since(t0), err)
			}
		}(id, parts[id])
	}
	wg.Wait()
	return merged(parts)
}

// lateness describes how far behind its schedule an open-loop generator ran.
type lateness struct {
	max   time.Duration
	late  int // sends more than 1ms after their due time
	sends int
}

// openLoop issues operations on a fixed schedule of rate per second from
// start until the deadline, from one session: operation i is due at
// start + i/rate and is sent then, or as soon as the previous one returns if
// that is later. Each latency is measured from the due time, so a stall
// charges every operation it delayed.
func openLoop(start, deadline time.Time, rate int, op func() (uint8, error)) (*stream, lateness) {
	s := newStream(int(deadline.Sub(start).Seconds()+1) * rate)
	var l lateness
	period := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		behind := time.Since(due)
		if behind > l.max {
			l.max = behind
		}
		if behind > time.Millisecond {
			l.late++
		}
		l.sends++
		kind, err := op()
		s.record(kind, time.Since(due), err)
	}
	return s, l
}

// usage is a point-in-time reading of the process's CPU time and the Go
// heap's cumulative allocation.
type usage struct {
	cpu        time.Duration
	totalAlloc uint64
	numGC      uint32
}

// since is the usage accrued after an earlier reading.
func (u usage) since(u0 usage) usage {
	return usage{cpu: u.cpu - u0.cpu, totalAlloc: u.totalAlloc - u0.totalAlloc, numGC: u.numGC - u0.numGC}
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}
}

// liveHeap forces a full collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
