package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
)

// fig3Expected is the 8/48 block of Fig. 3 as EXPERIMENTS.md quotes it:
// harmonic-mean speedup by setting and model.
var fig3Expected = map[string]float64{
	"D/R super": 1.077, "D/R great": 1.045, "D/R good": 1.002,
	"I/R super": 1.173, "I/R great": 1.124, "I/R good": 1.059,
	"D/O super": 1.247, "D/O great": 1.169, "D/O good": 1.058,
	"I/O super": 1.299, "I/O great": 1.194, "I/O good": 1.078,
}

// table1Retired is each workload's dynamic instruction count at its default
// scale, the "Ours: dyn instr" column of Table 1 in EXPERIMENTS.md. Every
// simulation of a workload must retire exactly this many instructions.
var table1Retired = map[string]int64{
	"compress": 272188, "gcc": 317863, "go": 278963, "ijpeg": 278346,
	"m88ksim": 279846, "perl": 274098, "vortex": 279836, "xlisp": 246323,
}

// setupReps is how many times each workload repeats its set-up; set-up
// time is reported as the median.
const setupReps = 5

// fig3Specs is the 8/48 Fig. 3 plan: 8 base specs then 96 speculative ones.
func fig3Specs() (base, runs []harness.Spec) {
	return harness.Fig3Specs([]cpu.Config{cpu.Config8x48()}, core.Presets(), harness.PaperSettings(), bench.All(), 0)
}

// checkFig3 compares one sweep's results against the expected cells (to 3
// decimals) and every spec's retired count against Table 1. It returns the
// number of checks made and the failures.
func checkFig3(base, runs []harness.Result, expected map[string]float64) (int, []string) {
	var fails []string
	checks := 0
	for _, res := range append(append([]harness.Result(nil), base...), runs...) {
		checks++
		want := table1Retired[res.Spec.Workload.Name]
		if res.Stats == nil || res.Stats.Retired != want {
			got := int64(-1)
			if res.Stats != nil {
				got = res.Stats.Retired
			}
			fails = append(fails, fmt.Sprintf("fig3-quick: %s retired %d, Table 1 says %d", res.Spec.Label(), got, want))
		}
	}
	cells, err := harness.Fig3FromResults(base, runs)
	if err != nil {
		return checks + 1, append(fails, fmt.Sprintf("fig3-quick: aggregating cells: %v", err))
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		key := c.Setting + " " + c.Model
		seen[key] = true
		checks++
		want, ok := expected[key]
		if !ok || math.Round(c.Speedup*1000) != math.Round(want*1000) {
			fails = append(fails, fmt.Sprintf("fig3-quick: cell 8/48 %s speedup %.3f, EXPERIMENTS.md says %.3f", key, c.Speedup, want))
		}
	}
	for key := range expected {
		if !seen[key] {
			checks++
			fails = append(fails, fmt.Sprintf("fig3-quick: cell 8/48 %s missing", key))
		}
	}
	return checks, fails
}

// fig3Pass runs the 104 specs once, in the seeded order, through
// SimulateAll, and returns the results split back into plan order. heap,
// when non-nil, settles while every result is still held.
func fig3Pass(specs []harness.Spec, perm []int, nBase int, heap *heapPeak) (base, runs []harness.Result, took time.Duration, err error) {
	ordered := make([]harness.Spec, len(specs))
	for i, j := range perm {
		ordered[i] = specs[j]
	}
	t0 := time.Now()
	res, err := harness.SimulateAll(ordered)
	took = time.Since(t0)
	if err != nil {
		return nil, nil, took, err
	}
	if heap != nil {
		heap.Settle()
	}
	plan := make([]harness.Result, len(specs))
	for i, j := range perm {
		plan[j] = res[i]
	}
	return plan[:nBase], plan[nBase:], took, nil
}

// runFig3Quick is the paper's unit of work: the 8/48 Fig. 3 sweep, replayed
// from the trace cache. Set-up records the eight traces; the timed phase
// repeats the sweep.
func runFig3Quick(cfg runConfig, r *report) error {
	heap := &heapPeak{}
	baseSpecs, runSpecs := fig3Specs()
	specs := append(append([]harness.Spec(nil), baseSpecs...), runSpecs...)
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(len(specs))

	var setups []float64
	for i := 0; i < setupReps; i++ {
		resetTraceCache()
		t0 := time.Now()
		if err := recordTraces(bench.All(), func(bench.Workload) int { return 0 }); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heap.Settle()
	}
	cache := harness.DefaultTraceCache()
	r.set("setup_s", median(setups))
	r.set("harness.trace_record_s", median(setups))
	r.set("harness.trace_mb", float64(cache.CachedBytes())/1e6)
	r.note("set-up: recorded 8 traces %d times, %.4g..%.4g s", setupReps, minOf(setups), maxOf(setups))

	probe := newLayerProbe()
	tracedSpecs := make([]harness.Spec, len(specs))
	for i, s := range specs {
		tracedSpecs[i] = probe.instrument(s)
	}
	hits0, misses0 := cache.Hits(), cache.Misses()
	var plainWall, tracedWall []float64
	var retired, cycles int64
	err := passLoop(cfg.window, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 1
		use := specs
		if traced {
			use = tracedSpecs
		}
		base, runs, took, err := fig3Pass(use, perm, len(baseSpecs), heap)
		r.ops(len(specs), 0)
		if err != nil {
			return err
		}
		r.checkAll(checkFig3(base, runs, fig3Expected))
		all := append(append([]harness.Result(nil), base...), runs...)
		if traced {
			tracedWall = append(tracedWall, took.Seconds())
			probe.add(all)
			return nil
		}
		var st cpu.Stats
		addStats(&st, all)
		plainWall = append(plainWall, took.Seconds())
		retired += st.Retired
		cycles += st.Cycles
		return nil
	})
	if err != nil {
		return err
	}
	hits, misses := cache.Hits()-hits0, cache.Misses()-misses0
	r.set("heap_peak_mb", heap.MB())

	wall := median(plainWall)
	r.set("wall_s", wall)
	perPass := float64(len(plainWall))
	r.set("sim_minstr_per_s", float64(retired)/perPass/wall/1e6)
	r.set("jobs_per_s", float64(len(specs))/wall)
	r.note("timed: %d untraced sweeps of %d specs (%d instr each), wall %v", len(plainWall), len(specs), retired/int64(len(plainWall)), plainWall)
	if !cfg.traced {
		return nil
	}

	workers := float64(runtime.GOMAXPROCS(0))
	r.set("cpu.ns_per_cycle", wall*1e9*workers/(float64(cycles)/perPass))
	r.set("cpu.ns_per_instr", wall*1e9*workers/(float64(retired)/perPass))
	r.set("harness.trace_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("trace_overhead_frac", median(tracedWall)/wall-1)
	r.note("traced: %d sweeps with probes on, wall %v", len(tracedWall), tracedWall)
	probe.publish(r, clockOverhead())
	if err := emuProbe(r); err != nil {
		return err
	}
	if err := memProbe(r, func(w bench.Workload) int { return w.DefaultScale }); err != nil {
		return err
	}
	return phaseProbeOverhead(r, runSpecs[len(runSpecs)/2], 3, func(s harness.Spec) error {
		_, err := harness.SimulateAll([]harness.Spec{s})
		return err
	})
}

// passesFor is the fewest timed passes a run makes: one, or one of each
// kind when the run alternates untraced and traced passes.
func passesFor(cfg runConfig) int {
	if cfg.traced {
		return 2
	}
	return 1
}
