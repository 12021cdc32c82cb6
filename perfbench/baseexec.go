package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
)

// baseExecDigestJSON holds every Stats counter of every base-exec spec, as
// the simulator produced them when the benchmark was defined. Regenerate it
// with `go test -run TestBaseExecDigest -update` after a change that is
// meant to alter simulated results.
//
//go:embed testdata/base_exec_digest.json
var baseExecDigestJSON []byte

// statsDigest is one spec's counters by name (cpu.Stats.Counters).
type statsDigest map[string]int64

func digestOf(st *cpu.Stats) statsDigest {
	d := make(statsDigest)
	for _, c := range st.Counters() {
		d[c.Name] = c.Value
	}
	return d
}

func loadBaseExecDigest() (map[string]statsDigest, error) {
	var d map[string]statsDigest
	if err := json.Unmarshal(baseExecDigestJSON, &d); err != nil {
		return nil, fmt.Errorf("base-exec digest: %w", err)
	}
	return d, nil
}

// baseExecSpecs is the base processor on every workload at every paper
// configuration, execute-driven.
func baseExecSpecs() []harness.Spec {
	var specs []harness.Spec
	for _, w := range bench.All() {
		for _, c := range cpu.PaperConfigs() {
			specs = append(specs, harness.Spec{Workload: w, Config: c})
		}
	}
	return specs
}

// checkBaseExec compares one spec's counters against the digest. It is one
// check: it returns "" when every counter matches, and otherwise one message
// naming each counter that differs.
func checkBaseExec(res harness.Result, digest map[string]statsDigest) string {
	label := res.Spec.Label()
	want, ok := digest[label]
	if !ok {
		return fmt.Sprintf("base-exec: %s has no digest entry", label)
	}
	got := digestOf(res.Stats)
	var diffs []string
	for _, c := range res.Stats.Counters() {
		if w, ok := want[c.Name]; !ok || w != c.Value {
			diffs = append(diffs, fmt.Sprintf("%s = %d, digest says %d", c.Name, c.Value, w))
		}
	}
	if len(want) != len(got) {
		diffs = append(diffs, fmt.Sprintf("digest has %d counters, Stats %d", len(want), len(got)))
	}
	if len(diffs) == 0 {
		return ""
	}
	return fmt.Sprintf("base-exec: %s: %s", label, strings.Join(diffs, "; "))
}

// runBaseExec is the single-simulation user path (vsim, harness.Simulate):
// the base processor, execute-driven with the emulator inline and no trace
// cache, one spec at a time. Set-up emulates every workload to halt and
// checks its instruction count against Table 1.
func runBaseExec(cfg runConfig, r *report) error {
	heap := &heapPeak{}
	digest, err := loadBaseExecDigest()
	if err != nil {
		return err
	}
	specs := baseExecSpecs()
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// Set-up is the emulator alone, so it also gives emu.minstr_per_s.
	var setups, emuRates []float64
	emuTimes := make(map[string][]float64)
	for i := 0; i < setupReps; i++ {
		instr, took, err := emuAll(func(w bench.Workload, n int64, d time.Duration) {
			r.check(n == table1Retired[w.Name], "base-exec: %s emulated %d instructions, Table 1 says %d", w.Name, n, table1Retired[w.Name])
			emuTimes[w.Name] = append(emuTimes[w.Name], d.Seconds())
		})
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		emuRates = append(emuRates, float64(instr)/took.Seconds()/1e6)
	}
	r.set("setup_s", median(setups))
	r.note("set-up: emulated 8 workloads to halt %d times, %.4g..%.4g s", setupReps, minOf(setups), maxOf(setups))

	probe := newLayerProbe()
	var plainWall, tracedWall, specMS []float64
	var plainTotal, emuInPlain time.Duration
	var retired, cycles int64
	err = passLoop(cfg.window, passesFor(cfg), func(i int) error {
		traced := cfg.traced && i%2 == 1
		results := make([]harness.Result, 0, len(specs))
		var took time.Duration
		for _, spec := range specs {
			if traced {
				spec = probe.instrument(spec)
			}
			t0 := time.Now()
			res, err := harness.Simulate(spec)
			d := time.Since(t0)
			r.ops(1, 0)
			if err != nil {
				return err
			}
			took += d
			results = append(results, res)
			msg := checkBaseExec(res, digest)
			r.check(msg == "", "%s", msg)
			if !traced {
				specMS = append(specMS, ms(d))
				emuInPlain += time.Duration(median(emuTimes[spec.Workload.Name]) * float64(time.Second))
			}
		}
		heap.Settle()
		if traced {
			tracedWall = append(tracedWall, took.Seconds())
			probe.add(results)
			return nil
		}
		var st cpu.Stats
		addStats(&st, results)
		plainWall = append(plainWall, took.Seconds())
		plainTotal += took
		retired += st.Retired
		cycles += st.Cycles
		return nil
	})
	if err != nil {
		return err
	}
	r.set("heap_peak_mb", heap.MB())

	wall := median(plainWall)
	r.set("wall_s", wall)
	perPass := float64(len(plainWall))
	r.set("sim_minstr_per_s", float64(retired)/perPass/wall/1e6)
	r.set("jobs_per_s", float64(len(specs))/wall)
	r.note("timed: %d untraced passes of %d specs, wall %v", len(plainWall), len(specs), plainWall)
	r.notePercentile("spec latency p50", specMS, 0.50)
	if !cfg.traced {
		return nil
	}

	r.set("cpu.ns_per_cycle", float64(plainTotal)/float64(cycles))
	r.set("cpu.ns_per_instr", float64(plainTotal)/float64(retired))
	r.set("emu.share", ratio(float64(emuInPlain), float64(plainTotal)))
	r.set("trace_overhead_frac", median(tracedWall)/wall-1)
	r.note("traced: %d passes with probes on, wall %v", len(tracedWall), tracedWall)
	probe.publish(r, clockOverhead())
	r.set("emu.minstr_per_s", median(emuRates))
	if err := memProbe(r, func(w bench.Workload) int { return w.DefaultScale }); err != nil {
		return err
	}
	return phaseProbeOverhead(r, specs[0], 3, func(s harness.Spec) error {
		_, err := harness.Simulate(s)
		return err
	})
}
