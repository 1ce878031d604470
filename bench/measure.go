package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// slices is how many equal parts the timed phase is cut into. Every
// end-to-end rate, cost and latency is computed per slice and the best decile
// over the slices is reported (the 90th percentile of rates, the 10th of costs
// and latencies). On a shared machine interference comes in bursts and only
// ever slows a slice down, so the quietest slices are the program's own speed,
// and they repeat from run to run where a whole-phase figure does not
// (README, "Steadiness").
const slices = 20

// quantile returns the q-quantile of vs by linear interpolation between
// ranks; vs is sorted in place. Zero for an empty input.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo >= len(vs)-1 {
		return vs[len(vs)-1]
	}
	frac := pos - float64(lo)
	return vs[lo]*(1-frac) + vs[lo+1]*frac
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// epoch anchors sample completion times (monotonic clock).
var epoch = time.Now()

// sample is one completed op: its latency, and when it completed (ns since
// epoch), which is what places it in a slice.
type sample struct{ lat, at float64 }

// latencies is one generator goroutine's private sample buffer.
type latencies struct{ s []sample }

// record notes an op that started (or, in an open loop, was due) at start and
// has just completed.
func (l *latencies) record(start time.Time) {
	now := time.Now()
	l.s = append(l.s, sample{float64(now.Sub(start)), float64(now.Sub(epoch))})
}

// take returns the samples and empties the buffer.
func (l *latencies) take() []sample {
	s := l.s
	l.s = nil
	return s
}

// lats is the samples' latencies (ns).
func lats(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// phaseStats is what the timed phase measured around the generators.
type phaseStats struct {
	elapsed      time.Duration
	ops          int64 // primary ops completed
	sliceSamples int   // median primary ops per slice
	opsPerS      float64
	cpuMsPerOp   float64
	p50Ms        float64
	p99Ms        float64
	allocsPerOp  float64
	allocKBPerOp float64
	liveHeapMB   float64
}

// boundary is the process's state at a slice boundary.
type boundary struct {
	at      float64 // ns since epoch
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func markBoundary() boundary {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return boundary{float64(time.Since(epoch)), cpuTime(), m.Mallocs, m.TotalAlloc}
}

// timedPhase runs the generators for the given time; each returns once stop()
// is true. primary hands over the primary-op samples once the generators
// stopped and lets go of every sample buffer the generators hold, so the live
// heap read afterwards is the program's, not the harness's.
func timedPhase(seconds float64, primary func() []sample, generators ...func(stop func() bool)) phaseStats {
	var stop atomic.Bool
	var wg sync.WaitGroup
	runtime.GC()
	start := time.Now()
	bounds := []boundary{markBoundary()}
	for _, g := range generators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g(stop.Load)
		}()
	}
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(seconds * float64(i) / slices * float64(time.Second)))))
		bounds = append(bounds, markBoundary())
	}
	stop.Store(true)
	wg.Wait()
	st := phaseStats{elapsed: time.Since(start)}

	if primary != nil {
		all := primary()
		st.ops = int64(len(all))
		sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
		var rates, cpus, p50s, p99s, allocs, kbs, counts []float64
		next := 0
		for i := 1; i < len(bounds); i++ {
			lo := next
			for next < len(all) && all[next].at < bounds[i].at {
				next++
			}
			n := float64(next - lo)
			if n == 0 {
				continue
			}
			a, b := bounds[i-1], bounds[i]
			lat := lats(all[lo:next])
			counts = append(counts, n)
			rates = append(rates, n/((b.at-a.at)/1e9))
			cpus = append(cpus, float64(b.cpu-a.cpu)/1e6/n)
			p50s = append(p50s, quantile(lat, 0.5)/1e6)
			p99s = append(p99s, quantile(lat, 0.99)/1e6)
			allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
			kbs = append(kbs, float64(b.bytes-a.bytes)/1024/n)
		}
		st.sliceSamples = int(median(counts))
		st.opsPerS = quantile(rates, 0.9)
		st.cpuMsPerOp = quantile(cpus, 0.1)
		st.p50Ms, st.p99Ms = quantile(p50s, 0.1), quantile(p99s, 0.1)
		st.allocsPerOp, st.allocKBPerOp = quantile(allocs, 0.1), quantile(kbs, 0.1)
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.liveHeapMB = float64(m.HeapAlloc) / (1 << 20)
	return st
}

// result is one workload pass: the end-to-end metrics (untraced passes), the
// per-layer metrics (traced passes) and the correctness account.
type result struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
}

func newResult(workload string) *result {
	return &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one correctness check; a failed one is reported on stderr and
// fails the process at exit.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// fullRunSeconds is the timed-phase length from which a slice must hold
// enough primary ops for its p99 to mean something; shorter (smoke, traced)
// passes only report it.
const (
	fullRunSeconds  = 10
	minSliceSamples = 50
)

// setPhase fills the end-to-end metrics every workload reports.
func (r *result) setPhase(seconds float64, setup []float64, st phaseStats) {
	r.e2e["setup_s"] = median(setup)
	r.e2e["ops_per_s"] = st.opsPerS
	r.e2e["op_p50_ms"] = st.p50Ms
	r.e2e["op_p99_ms"] = st.p99Ms
	r.e2e["cpu_ms_per_op"] = st.cpuMsPerOp
	r.e2e["allocs_per_op"] = st.allocsPerOp
	r.e2e["alloc_kb_per_op"] = st.allocKBPerOp
	r.e2e["live_heap_mb"] = st.liveHeapMB
	r.check(st.ops > 0, "%d primary ops completed", st.ops)
	if seconds >= fullRunSeconds {
		r.check(st.sliceSamples >= minSliceSamples, "op_p99_ms rests on %d samples a slice, want >= %d", st.sliceSamples, minSliceSamples)
	}
}
