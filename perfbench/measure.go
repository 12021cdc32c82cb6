package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// report collects one run's metrics, the human-readable notes printed
// before the result line, and the correctness tally.
type report struct {
	metrics   map[string]float64
	notes     []string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops counts n operations (specs simulated, jobs run) of which failed
// failed.
func (r *report) ops(n, failed int) {
	r.attempted += n
	r.failed += failed
}

// check counts one correctness check; a failed one is recorded with its
// reason.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkAll counts one check per entry of failures plus the passing ones:
// total checks were made and failures lists those that failed.
func (r *report) checkAll(total int, failures []string) {
	r.attempted += total
	r.failed += len(failures)
	r.failures = append(r.failures, failures...)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 < p < 1) and the
// number of samples that lie above it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// notePercentile records a latency percentile with its sample count, and
// flags it when fewer than ten samples lie beyond it.
func (r *report) notePercentile(name string, xs []float64, p float64) float64 {
	v, beyond := percentile(xs, p)
	warn := ""
	if beyond < 10 {
		warn = "  (fewer than 10 samples beyond: not resolved)"
	}
	r.note("%-28s %12.4f ms   p%g of n=%d, %d beyond%s", name, v, p*100, len(xs), beyond, warn)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak tracks the largest live Go heap of a run: the bytes a forced
// garbage collection finds reachable. Callers settle at the run's
// high-water points, after each set-up and at the end of each pass while
// the pass's results are still held. Those points give the same reading
// from run to run. A heap sampled at the GCs the program triggers itself
// would depend on how far a pass had got when each GC ran. The instantaneous
// heap would also count garbage awaiting collection.
type heapPeak struct{ peak uint64 }

// Settle forces a collection and records the live heap it finds.
func (h *heapPeak) Settle() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
		h.peak = s[0].Value.Uint64()
	}
}

// MB returns the peak in MB (10^6 bytes).
func (h *heapPeak) MB() float64 { return float64(h.peak) / 1e6 }

// clockOverhead estimates the cost of the time.Now pair that brackets a
// sampled call, so per-call timings can subtract it.
func clockOverhead() time.Duration {
	const n = 4096
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// passLoop runs pass until at least minPasses have run and the measuring
// window has elapsed; pass gets its index.
func passLoop(window time.Duration, minPasses int, pass func(i int) error) error {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < window; i++ {
		if err := pass(i); err != nil {
			return err
		}
	}
	return nil
}
