package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/confidence"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/harness"
	"valuespec/internal/vpred"
)

// The probes below measure layers from outside the program: wrappers handed
// in through harness.Spec's factory fields, the phase profile the pipeline
// already offers, and bulk-timed calls into public functions. They are
// switched on only in traced runs.

// sampleMask times one predictor call in 64. Timing every call would cost
// more than the call itself (two clock reads against a few tens of ns).
const sampleMask = 63

// callCounts is what one wrapper counted. One wrapper serves one pipeline,
// so the counts need no synchronization; they are read after the batch
// returns. The probe keeps only the counts, not the wrappers, so each
// predictor's tables are freed with its pipeline.
type callCounts struct {
	calls, sampled, sampledNS int64
}

// countingPredictor forwards to the paper's FCM, counting every call and
// timing a sample.
type countingPredictor struct {
	inner vpred.Predictor
	*callCounts
}

func (p *countingPredictor) sampling() bool {
	p.calls++
	return p.calls&sampleMask == 0
}

func (p *countingPredictor) took(t0 time.Time) {
	p.sampled++
	p.sampledNS += int64(time.Since(t0))
}

func (p *countingPredictor) Lookup(pc int) (int64, uint64) {
	if !p.sampling() {
		return p.inner.Lookup(pc)
	}
	t0 := time.Now()
	v, c := p.inner.Lookup(pc)
	p.took(t0)
	return v, c
}

func (p *countingPredictor) TrainImmediate(pc int, cookie uint64, actual int64) {
	if !p.sampling() {
		p.inner.TrainImmediate(pc, cookie, actual)
		return
	}
	t0 := time.Now()
	p.inner.TrainImmediate(pc, cookie, actual)
	p.took(t0)
}

func (p *countingPredictor) SpeculateHistory(pc int, pred int64) {
	if !p.sampling() {
		p.inner.SpeculateHistory(pc, pred)
		return
	}
	t0 := time.Now()
	p.inner.SpeculateHistory(pc, pred)
	p.took(t0)
}

func (p *countingPredictor) TrainDelayed(pc int, cookie uint64, pred, actual int64) {
	if !p.sampling() {
		p.inner.TrainDelayed(pc, cookie, pred, actual)
		return
	}
	t0 := time.Now()
	p.inner.TrainDelayed(pc, cookie, pred, actual)
	p.took(t0)
}

func (p *countingPredictor) Reset() { p.inner.Reset() }

// countingConfidence forwards to the estimator the spec's setting selects,
// counting calls.
type countingConfidence struct {
	inner confidence.Estimator
	*callCounts
}

func (c *countingConfidence) Confident(pc int, willBeCorrect bool) bool {
	c.calls++
	return c.inner.Confident(pc, willBeCorrect)
}

func (c *countingConfidence) Update(pc int, correct bool) {
	c.calls++
	c.inner.Update(pc, correct)
}

func (c *countingConfidence) Reset() { c.inner.Reset() }

// layerProbe equips specs with the counting wrappers and the phase profile,
// and folds the results of the traced passes into per-layer totals.
type layerProbe struct {
	mu    sync.Mutex
	preds []*callCounts
	confs []*callCounts

	// Totals folded from the wrappers of finished passes.
	calls, sampled, sampledNS, confCalls int64

	phases map[string]time.Duration
	// stats sums the traced passes' counters. A Result's Stats points into
	// its pipeline, so results are not kept: that would keep every
	// pipeline alive.
	stats cpu.Stats
}

func newLayerProbe() *layerProbe {
	return &layerProbe{phases: make(map[string]time.Duration)}
}

// instrument returns a copy of spec that runs under the probes. The
// factories rebuild exactly what harness would have chosen without them:
// the default FCM, and the setting's confidence estimator.
func (lp *layerProbe) instrument(spec harness.Spec) harness.Spec {
	oracle := spec.Setting.Oracle
	spec.Phases = true
	spec.NewPredictor = func() vpred.Predictor {
		p := &countingPredictor{inner: vpred.NewFCM(vpred.DefaultFCMConfig()), callCounts: new(callCounts)}
		lp.mu.Lock()
		lp.preds = append(lp.preds, p.callCounts)
		lp.mu.Unlock()
		return p
	}
	spec.NewConfidence = func() confidence.Estimator {
		var inner confidence.Estimator = confidence.Default()
		if oracle {
			inner = confidence.Oracle{}
		}
		c := &countingConfidence{inner: inner, callCounts: new(callCounts)}
		lp.mu.Lock()
		lp.confs = append(lp.confs, c.callCounts)
		lp.mu.Unlock()
		return c
	}
	return spec
}

// add folds one finished traced pass: its results and the counts of the
// wrappers its specs created.
func (lp *layerProbe) add(results []harness.Result) {
	for _, res := range results {
		for _, ph := range res.Phases {
			lp.phases[ph.Name] += ph.Total
		}
	}
	addStats(&lp.stats, results)
	lp.mu.Lock()
	defer lp.mu.Unlock()
	for _, p := range lp.preds {
		lp.calls += p.calls
		lp.sampled += p.sampled
		lp.sampledNS += p.sampledNS
	}
	for _, c := range lp.confs {
		lp.confCalls += c.calls
	}
	lp.preds, lp.confs = nil, nil
}

// addStats adds the counters of results that the probes read into t.
func addStats(t *cpu.Stats, results []harness.Result) {
	for _, r := range results {
		if r.Stats == nil {
			continue
		}
		s := r.Stats
		t.Cycles += s.Cycles
		t.Retired += s.Retired
		t.CondBranches += s.CondBranches
		t.BranchMispredicts += s.BranchMispredicts
		t.Predictions += s.Predictions
		t.CH += s.CH
		t.CL += s.CL
		t.IH += s.IH
		t.IL += s.IL
		t.Reissues += s.Reissues
		t.Issues += s.Issues
	}
}

// publish sets the cpu, vpred, confidence and bpred layer metrics from the
// traced passes. clock is the cost of the clock-read pair around a sampled
// predictor call.
func (lp *layerProbe) publish(r *report, clock time.Duration) {
	st := lp.stats
	kinstr := float64(st.Retired) / 1000

	var total time.Duration
	for _, d := range lp.phases {
		total += d
	}
	for _, name := range []string{"fetch", "sweep", "issue", "writeback", "events", "retire", "mem"} {
		r.set("cpu."+name+"_frac", ratio(float64(lp.phases[name]), float64(total)))
	}
	r.set("cpu.reissue_ratio", ratio(float64(st.Reissues), float64(st.Issues)))

	calls, sampled := lp.calls, lp.sampled
	r.set("vpred.calls_per_kinstr", ratio(float64(calls), kinstr))
	perCall := ratio(float64(lp.sampledNS), float64(sampled)) - float64(clock)
	if sampled == 0 || perCall < 0 {
		perCall = 0
	}
	r.set("vpred.ns_per_call", perCall)
	r.set("vpred.accuracy", ratio(float64(st.CH+st.CL), float64(st.Predictions)))
	r.note("vpred: %d calls, %d timed (1 in %d), clock pair %v subtracted", calls, sampled, sampleMask+1, clock)

	r.set("confidence.calls_per_kinstr", ratio(float64(lp.confCalls), kinstr))
	r.set("confidence.used_correct_ratio", ratio(float64(st.CH), float64(st.CH+st.IH)))
	r.set("bpred.accuracy", 1-ratio(float64(st.BranchMispredicts), float64(st.CondBranches)))
}

// resetTraceCache empties the process-wide trace cache, so a repeated
// set-up records every trace again instead of inheriting them.
func resetTraceCache() {
	c := harness.DefaultTraceCache()
	c.SetByteBudget(1)
	c.SetByteBudget(0)
	runtime.GC()
}

// recordTraces first-touches the cached trace of every workload at scale
// (0: the workload default) over GOMAXPROCS goroutines, as SimulateAll's
// worker pool would.
func recordTraces(ws []bench.Workload, scale func(bench.Workload) int) error {
	var next atomic.Int64
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ws) {
					return
				}
				_, errs[i] = harness.DefaultTraceCache().Source(ws[i], scale(ws[i]))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// emuRun bulk-times the functional emulator on w at scale, from a fresh
// machine to halt, and returns the instructions it ran.
func emuRun(w bench.Workload, scale int) (int64, time.Duration, error) {
	t0 := time.Now()
	m, err := emu.New(w.Build(scale))
	if err != nil {
		return 0, 0, err
	}
	n, err := m.Run(0)
	if err != nil {
		return 0, 0, fmt.Errorf("emulating %s: %w", w.Name, err)
	}
	return n, time.Since(t0), nil
}

// emuAll emulates every workload at its default scale to halt, calling
// each with its instruction count and time, and returns the totals.
func emuAll(each func(w bench.Workload, n int64, d time.Duration)) (int64, time.Duration, error) {
	var instr int64
	var took time.Duration
	for _, w := range bench.All() {
		n, d, err := emuRun(w, w.DefaultScale)
		if err != nil {
			return 0, 0, err
		}
		if each != nil {
			each(w, n, d)
		}
		instr += n
		took += d
	}
	return instr, took, nil
}

// emuProbe times the emulator over every workload at its default scale,
// three times, and sets emu.minstr_per_s from the median. base-exec needs
// no probe: its set-up is this same work.
func emuProbe(r *report) error {
	var rates []float64
	for rep := 0; rep < 3; rep++ {
		instr, took, err := emuAll(nil)
		if err != nil {
			return err
		}
		rates = append(rates, float64(instr)/took.Seconds()/1e6)
	}
	r.set("emu.minstr_per_s", median(rates))
	return nil
}

// memProbe builds base pipelines directly, so the modelled memory hierarchy
// can be read after the run, and sets mem.l1d_miss_ratio over every
// workload at the 8/48 configuration.
func memProbe(r *report, scale func(bench.Workload) int) error {
	var acc, miss int64
	for _, w := range bench.All() {
		m, err := emu.New(w.Build(scale(w)))
		if err != nil {
			return err
		}
		p, err := cpu.New(cpu.Config8x48(), nil, m)
		if err != nil {
			return err
		}
		if _, err := p.Run(); err != nil {
			return err
		}
		l1d := p.Hierarchy().L1D()
		acc += l1d.Accesses
		miss += l1d.Misses
	}
	r.set("mem.l1d_miss_ratio", ratio(float64(miss), float64(acc)))
	return nil
}

// phaseProbeOverhead runs spec with the phase profile off and on, reps
// times each in alternation, through run, and sets
// cpu.phase_probe_overhead_frac from the medians.
func phaseProbeOverhead(r *report, spec harness.Spec, reps int, run func(harness.Spec) error) error {
	var off, on []float64
	for i := 0; i < reps; i++ {
		for _, phases := range []bool{false, true} {
			s := spec
			s.Phases = phases
			t0 := time.Now()
			if err := run(s); err != nil {
				return err
			}
			d := time.Since(t0).Seconds()
			if phases {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	r.set("cpu.phase_probe_overhead_frac", median(on)/median(off)-1)
	r.note("phase probe: %s, %d runs each way, median %.4f s off, %.4f s on", spec.Label(), reps, median(off), median(on))
	return nil
}
