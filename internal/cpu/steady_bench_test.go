package cpu

import (
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/obs"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// cyclicSource replays a recorded stream forever, renumbering Seq so the
// concatenation is one coherent endless trace. It keeps the window full for
// as many cycles as a steady-state benchmark wants to run.
type cyclicSource struct {
	recs []trace.Record
	pos  int
	seq  int64
}

func (s *cyclicSource) Next() (trace.Record, bool) {
	r := s.recs[s.pos]
	s.pos++
	if s.pos == len(s.recs) {
		s.pos = 0
	}
	r.Seq = s.seq
	s.seq++
	return r, true
}

// BenchmarkPipelineSteadyState measures one simulated cycle of a warmed-up
// pipeline under the full Great model. The warmup drives every pool and ring
// to its high-water mark (wheel slots, wave sets, ready queue, replay deque,
// consumer lists); after it, the hot loop must run at 0 allocs/op — that
// budget is pinned in BENCH_BASELINE.json and enforced by cmd/benchcheck.
//
// The pipeline runs with a Metrics collector and a Telemetry interval
// sampler attached and an obs SharedRegistry adapter standing by, the
// configuration a live-served sweep uses: the per-cycle histogram hooks and
// the telemetry event-site latency observes are on the measured path, while
// neither sampling interval ever elapses and the shared merge happens only
// after the timed loop. The 0 allocs/op budget therefore also pins
// "attached-but-idle" live observability as allocation-free.
func BenchmarkPipelineSteadyState(b *testing.B) {
	recs := genRecordings(b, 20000)
	spec := &SpecOptions{
		Enabled:    true,
		Model:      core.Great(),
		Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
		Confidence: confidence.NewResetting(10, 2),
	}
	p, err := New(flatMemConfig(Config8x48()), spec, &cyclicSource{recs: trace.Collect(replay(recs), 0)})
	if err != nil {
		b.Fatal(err)
	}
	shared := obs.NewSharedRegistry()
	m := NewMetrics(1<<62, 0) // idle: the sampling interval never elapses
	p.SetMetrics(m)
	tl := NewTelemetry(1<<62, 256) // idle too; only event-site observes fire
	p.SetTelemetry(tl)
	for i := 0; i < 50000; i++ {
		p.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step()
	}
	b.StopTimer()
	shared.Merge(m.Registry) // the adapter a sweep runs at spec completion
	if shared.Snapshot().Histogram(MetricOccupancy).Count() == 0 {
		b.Fatal("idle metrics adapter recorded nothing")
	}
	if tl.VerifyLatency().Count() == 0 {
		b.Fatal("idle telemetry observed no verifications")
	}
	b.ReportMetric(float64(p.stats.Retired)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkIntervalSampler measures one Telemetry interval sample — counter
// deltas, bitset population counts and fourteen TimeSeries appends — on a
// warmed-up pipeline. The sampler runs at Runner.Step boundaries, never in
// the per-cycle loop, so this is the whole marginal cost of a sampling
// boundary; the 0 allocs/op budget pins sampling as allocation-free
// (TimeSeries decimate in place instead of growing).
func BenchmarkIntervalSampler(b *testing.B) {
	recs := genRecordings(b, 20000)
	spec := &SpecOptions{
		Enabled:    true,
		Model:      core.Great(),
		Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
		Confidence: confidence.NewResetting(10, 2),
	}
	p, err := New(flatMemConfig(Config8x48()), spec, &cyclicSource{recs: trace.Collect(replay(recs), 0)})
	if err != nil {
		b.Fatal(err)
	}
	const interval = 64
	tl := NewTelemetry(interval, 512)
	p.SetTelemetry(tl)
	for i := 0; i < 50000; i++ {
		p.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewind the boundary bookkeeping so every iteration takes a full
		// sample without re-simulating the interval.
		tl.prevCycle = p.cycle - interval
		tl.sample(p)
	}
	b.StopTimer()
	if tl.series[tsOccupancy].Appended() < int64(b.N) {
		b.Fatal("sampler skipped samples")
	}
}

// BenchmarkReplayRequeue compares the replay-queue representations on the
// squash pattern: n records pushed onto the front one at a time (a complete
// invalidation squashing the window, repeatedly), then drained. The ring
// deque is O(1) per operation; the slice representation the deque replaced
// re-allocated and copied the whole queue per prepend, so its per-op cost
// grows linearly with queue depth (quadratic per squash burst) — visible
// directly in the ns/op spread across sizes.
func BenchmarkReplayRequeue(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		rec := trace.Record{}
		b.Run(sizeName("deque", n), func(b *testing.B) {
			b.ReportAllocs()
			var d recDeque
			for i := 0; i < b.N; i++ {
				for j := 0; j < n; j++ {
					d.pushFront(rec)
				}
				for d.len() > 0 {
					d.popFront()
				}
			}
		})
		b.Run(sizeName("prepend", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var q []trace.Record
				for j := 0; j < n; j++ {
					q = append([]trace.Record{rec}, q...)
				}
				for len(q) > 0 {
					q = q[1:]
				}
			}
		})
	}
}

func sizeName(kind string, n int) string {
	switch n {
	case 1024:
		return kind + "-1k"
	case 8192:
		return kind + "-8k"
	}
	return kind
}

// BenchmarkReadyQueueWide stresses selection on a window far wider than the
// paper's largest configuration (16-wide, 512 entries), where the per-cycle
// full-window scan is most expensive. "bitset" is the shipped bitset
// occupancy/ready words; "queue" is the previous tombstoned ready queue;
// "scan" is the reference full-window scan. benchcheck gates all three side
// by side.
func BenchmarkReadyQueueWide(b *testing.B) {
	recs := genRecordings(b, 20000)
	cfg := flatMemConfig(Config{IssueWidth: 16, WindowSize: 512})
	for _, mode := range wakeupModes {
		b.Run(mode.name, func(b *testing.B) {
			var retired int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := &SpecOptions{
					Enabled:    true,
					Model:      core.Great(),
					Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
					Confidence: confidence.NewResetting(10, 2),
				}
				p, err := New(cfg, spec, replay(recs))
				if err != nil {
					b.Fatal(err)
				}
				p.queueWakeup, p.scanWakeup = mode.queue, mode.scan
				st, err := p.Run()
				if err != nil {
					b.Fatal(err)
				}
				retired += st.Retired
			}
			b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkBitsetSelect isolates the per-cycle cost of the wakeup/selection
// and sweep structures on a warmed-up wide window (16-wide, 512 entries):
// the same steady-state loop as BenchmarkPipelineSteadyState, run once per
// wakeup mode so the bitset words, the tombstoned queue and the full scan
// are compared cycle for cycle on identical machine state.
func BenchmarkBitsetSelect(b *testing.B) {
	recs := genRecordings(b, 20000)
	cfg := flatMemConfig(Config{IssueWidth: 16, WindowSize: 512})
	for _, mode := range wakeupModes {
		b.Run(mode.name, func(b *testing.B) {
			spec := &SpecOptions{
				Enabled:    true,
				Model:      core.Great(),
				Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
				Confidence: confidence.NewResetting(10, 2),
			}
			p, err := New(cfg, spec, &cyclicSource{recs: trace.Collect(replay(recs), 0)})
			if err != nil {
				b.Fatal(err)
			}
			p.queueWakeup, p.scanWakeup = mode.queue, mode.scan
			for i := 0; i < 50000; i++ {
				p.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.step()
			}
			b.ReportMetric(float64(p.stats.Retired)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}
