package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"valuespec/internal/confidence"
	"valuespec/internal/core"
	"valuespec/internal/emu"
	"valuespec/internal/trace"
	"valuespec/internal/vpred"
)

// wakeupMode selects one of the three wakeup/selection implementations: the
// shipped bitset path (default), the tombstoned ready queue (queueWakeup) or
// the reference full-window scan (scanWakeup).
type wakeupMode struct {
	name  string
	queue bool
	scan  bool
}

var wakeupModes = []wakeupMode{
	{name: "bitset"},
	{name: "queue", queue: true},
	{name: "scan", scan: true},
}

// runWakeup simulates recs under one wakeup mode, capturing the complete
// event stream.
func runWakeup(t *testing.T, cfg Config, mk func() *SpecOptions, recs []trace.Record, mode wakeupMode) (*Stats, *EventLog) {
	t.Helper()
	p, err := New(cfg, mk(), &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	p.queueWakeup, p.scanWakeup = mode.queue, mode.scan
	log := &EventLog{}
	p.SetObserver(log)
	st, err := p.Run()
	if err != nil {
		t.Fatalf("Run (%s): %v\nstats: %s", mode.name, err, p.Stats())
	}
	return st, log
}

// TestEventWakeupMatchesScan is the equivalence property behind the
// event-driven wakeup conversions: on random dependence DAGs, under every
// model preset and under the ablations that stress nullification the
// hardest, the bitset and ready-queue implementations must produce exactly
// the same event stream — same entries woken, issued, invalidated and
// retired in the same cycles, in the same order — and byte-identical
// statistics as the original full-window scan.
func TestEventWakeupMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(1337))
	configs := []Config{flatMemConfig(Config4x24()), Config8x48()}

	variants := []func() *SpecOptions{
		func() *SpecOptions { return nil }, // base
	}
	for _, preset := range core.Presets() {
		preset := preset
		variants = append(variants, func() *SpecOptions {
			return &SpecOptions{
				Enabled:    true,
				Model:      preset,
				Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
				Confidence: confidence.NewResetting(10, 2),
			}
		})
	}
	// Always-speculate ablations maximize invalidation-wave traffic, the
	// path where the consumer-list walk replaces the window scan.
	ablations := []func(m *core.Model){
		func(m *core.Model) {},
		func(m *core.Model) { m.Invalidation = core.InvalidateHierarchical },
		func(m *core.Model) { m.Invalidation = core.InvalidateComplete },
		func(m *core.Model) { m.Wakeup = core.WakeupLimited },
		func(m *core.Model) { m.Selection = core.SelectOldestFirst },
		func(m *core.Model) {
			m.Invalidation = core.InvalidateHierarchical
			m.BranchResolution = core.ResolveSpeculative
			m.MemResolution = core.ResolveSpeculative
			m.Lat.InvalidateReissue = 3
		},
	}
	for _, ab := range ablations {
		ab := ab
		variants = append(variants, func() *SpecOptions {
			m := core.Great()
			ab(&m)
			return &SpecOptions{
				Enabled:    true,
				Model:      m,
				Predictor:  vpred.NewFCM(vpred.FCMConfig{HistoryBits: 10, PredictionBits: 10, HistoryDepth: 4}),
				Confidence: confidence.Always{},
			}
		})
	}

	for trial := 0; trial < 6; trial++ {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(2500))
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(m, 0)
		for vi, mk := range variants {
			for ci, cfg := range configs {
				stB, logB := runWakeup(t, cfg, mk, recs, wakeupModes[0])
				for _, mode := range wakeupModes[1:] {
					st, log := runWakeup(t, cfg, mk, recs, mode)
					if !reflect.DeepEqual(stB, st) {
						t.Fatalf("trial %d variant %d cfg %d: stats diverged\nbitset: %s\n%s: %s",
							trial, vi, ci, stB, mode.name, st)
					}
					if !reflect.DeepEqual(logB.Events, log.Events) {
						for i := range logB.Events {
							if i >= len(log.Events) || logB.Events[i] != log.Events[i] {
								t.Fatalf("trial %d variant %d cfg %d: event %d diverged: bitset %+v %s %+v",
									trial, vi, ci, i, logB.Events[i], mode.name, log.Events[i])
							}
						}
						t.Fatalf("trial %d variant %d cfg %d: event streams differ in length (bitset %d vs %s %d)",
							trial, vi, ci, len(logB.Events), mode.name, len(log.Events))
					}
				}
			}
		}
	}
}

// genRecordings builds a window-saturating instruction stream: random
// programs (long dependence chains interleaved with independent work, so
// the window stays full and the wakeup logic has many entries to consider
// each cycle), each recorded as a compact trace.Recording, until the
// recordings total n records. Replay them with replay.
func genRecordings(tb testing.TB, n int) []*trace.Recording {
	tb.Helper()
	r := rand.New(rand.NewSource(99))
	var recs []*trace.Recording
	for total := int64(0); total < int64(n); {
		prog := genProgram(r)
		m, err := emu.New(prog, emu.WithBudget(int64(n)-total))
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := trace.NewRecording(prog.Code, m)
		if err == nil {
			err = m.Err()
		}
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, rec)
		total += rec.Len()
	}
	return recs
}

// chainSource replays recordings back to back through a cursor's NextRef,
// the path a cached trace takes into the pipeline, renumbering Seq so the
// concatenation is one coherent trace. It reuses one cursor for every
// recording, so a replay allocates only the chainSource itself.
type chainSource struct {
	next []*trace.Recording // recordings after the current one
	cur  trace.Cursor
	seq  int64
}

// replay returns a fresh stream over recs.
func replay(recs []*trace.Recording) *chainSource {
	return &chainSource{next: recs[1:], cur: *recs[0].Cursor()}
}

func (s *chainSource) NextRef() (*trace.Record, bool) {
	for {
		if r, ok := s.cur.NextRef(); ok {
			r.Seq = s.seq
			s.seq++
			return r, true
		}
		if len(s.next) == 0 {
			return nil, false
		}
		s.cur = *s.next[0].Cursor()
		s.next = s.next[1:]
	}
}

func (s *chainSource) Next() (trace.Record, bool) {
	r, ok := s.NextRef()
	if !ok {
		return trace.Record{}, false
	}
	return *r, true
}

// BenchmarkWakeup compares the three wakeup implementations on the
// 16-wide/96-entry configuration, where the per-cycle scans are largest. The
// "bitset" result is the shipped path.
func BenchmarkWakeup(b *testing.B) {
	recs := genRecordings(b, 20000)
	cfg := flatMemConfig(Config16x96())
	for _, mode := range wakeupModes {
		b.Run(mode.name, func(b *testing.B) {
			var retired int64
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
