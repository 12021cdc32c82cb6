package harness

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// TestRecordingMatchesEmulator checks the compact recordings the trace
// cache replays: for every workload, the cursor's records equal the
// emulator's own stream field for field.
func TestRecordingMatchesEmulator(t *testing.T) {
	for _, w := range bench.All() {
		src, err := NewTraceCache().Source(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := trace.Collect(src, 0)
		m, err := emu.New(w.Build(1))
		if err != nil {
			t.Fatal(err)
		}
		want := trace.Collect(m, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: replayed %d records, emulator produced %d", w.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs\nemulator: %+v\nreplay:   %+v", w.Name, i, want[i], got[i])
			}
		}
	}
}

// TestRecordingFootprint pins what a recording holds: at the default scales
// each one costs at most a word per load on top of its empty recording (the
// per-program replay table and register file), and the eight together stay
// under 2.5 MB — recordings that stored source operands and results as well
// took 37 MB.
func TestRecordingFootprint(t *testing.T) {
	var total int64
	for _, w := range bench.All() {
		rec, err := record(w, w.DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		empty, err := trace.NewRecording(w.Build(w.DefaultScale).Code, &trace.SliceSource{})
		if err != nil {
			t.Fatal(err)
		}
		var mix trace.Mix
		c := rec.Cursor()
		for r, ok := c.NextRef(); ok; r, ok = c.NextRef() {
			mix.Observe(r)
		}
		loads := mix.ByClass[isa.ClassLoad]
		t.Logf("%s: %d records, %d loads, %d bytes", w.Name, rec.Len(), loads, rec.Bytes())
		if limit := 8*loads + empty.Bytes(); rec.Bytes() > limit {
			t.Errorf("%s: recording holds %d bytes, want at most %d (8 per load + %d fixed)", w.Name, rec.Bytes(), limit, empty.Bytes())
		}
		total += rec.Bytes()
	}
	const limit = 2_500_000
	if total > limit {
		t.Errorf("recordings hold %d bytes in total, want at most %d", total, limit)
	}
}

// TestTraceCacheConcurrentReplay has goroutines share one recording: they
// race to record the same key, then replay it through their own cursors,
// and every replay must be the whole stream.
func TestTraceCacheConcurrentReplay(t *testing.T) {
	w := bench.All()[0]
	m, err := emu.New(w.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	want := trace.Collect(m, 0)
	c := NewTraceCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := c.Source(w, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if got := trace.Collect(src, 0); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent replay gave %d records, want the %d recorded", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	if c.Misses() != 1 {
		t.Errorf("misses = %d, want one shared recording", c.Misses())
	}
}

// TestEmulatorFaultFailsSimulation checks that a program that jumps out of
// its code fails the simulation on both paths, instead of simulating the
// two instructions before the fault as a complete run.
func TestEmulatorFaultFailsSimulation(t *testing.T) {
	w := bench.Workload{
		Name:         "fault",
		DefaultScale: 1,
		Build:        func(int) *program.Program { return program.MustAssemble("ldi r1, 99\njr r1") },
	}
	spec := Spec{Workload: w, Config: cpu.Config4x24()}
	for name, cache := range map[string]*TraceCache{"execute-driven": nil, "replay": NewTraceCache()} {
		res, err := simulate(spec, cache)
		if err == nil || !strings.Contains(err.Error(), "pc 99 out of range") {
			t.Errorf("%s: simulate = %+v, %v; want the emulator fault", name, res.Stats, err)
		}
	}
}

// TestResultsDoNotPinPipelines checks that a kept Result holds its counters
// and nothing else of the simulation: after a GC, eight retained Results
// must cost less live heap than one FCM predictor table (1 MiB at the
// default 2^16 entries), so no Result keeps its pipeline reachable.
func TestResultsDoNotPinPipelines(t *testing.T) {
	w := bench.All()[0]
	cache := NewTraceCache()
	models := []core.Model{core.Super(), core.Great()}
	var specs []Spec
	for i := range models {
		for _, set := range PaperSettings() {
			specs = append(specs, Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &models[i], Setting: set})
		}
	}
	// Record the trace and settle lazily built state before the baseline.
	if _, err := simulate(specs[0], cache); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	results := make([]Result, len(specs))
	for i, s := range specs {
		res, err := simulate(s, cache)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	after := liveHeap()
	runtime.KeepAlive(results)
	const limit = 1 << 20
	perResult := (int64(after) - int64(before)) / int64(len(results))
	t.Logf("live heap grew %d bytes per kept Result", perResult)
	if perResult >= limit {
		t.Errorf("live heap grew %d bytes per kept Result, want < %d", perResult, limit)
	}
}

// liveHeap forces a collection and returns the live heap it found.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// BenchmarkTraceRecord measures one workload's share of a sweep's set-up:
// one op builds the gcc program at its default scale, emulates it to halt
// and records the trace (gated by cmd/benchcheck on ns/op and allocs/op).
func BenchmarkTraceRecord(b *testing.B) {
	w, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, err := record(w, w.DefaultScale)
		if err != nil {
			b.Fatal(err)
		}
		n = rec.Len()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkTraceReplay measures the replay cursor alone: one op decodes the
// whole recorded gcc trace at its default scale, with no simulation. It runs
// at 0 allocs/op (gated by cmd/benchcheck): the cursor rebuilds every record
// into its own buffer.
func BenchmarkTraceReplay(b *testing.B) {
	w, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	rec, err := record(w, w.DefaultScale)
	if err != nil {
		b.Fatal(err)
	}
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := rec.Cursor()
		for r, ok := c.NextRef(); ok; r, ok = c.NextRef() {
			sum += r.DstVal
		}
	}
	b.ReportMetric(float64(rec.Len())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
	replaySink = sum
}

// replaySink keeps the benchmark's decode loop from being optimized away.
var replaySink int64
