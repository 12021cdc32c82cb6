// Command benchcheck is the benchmark regression gate: it runs the pinned
// benchmarks with -benchmem, takes the minimum ns/op and allocs/op over
// -count repetitions (the least noisy point estimates), and compares against
// the checked-in baseline. Any benchmark more than -tolerance slower than its
// baseline ns/op, or allocating beyond its allocs/op budget, fails the gate;
// -update reruns the suite and rewrites the baseline instead.
//
// Allocation budgets make the zero-allocation steady state enforceable: a
// budget of 0 (e.g. BenchmarkPipelineSteadyState) fails on the first heap
// allocation that creeps into the hot loop, regardless of timing noise.
//
// Usage:
//
//	benchcheck                  # compare against BENCH_BASELINE.json
//	benchcheck -update          # re-measure and rewrite the baseline
//	benchcheck -tolerance 0.30  # loosen the gate (e.g. noisy CI hosts)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// targets pins which benchmarks are gated. Patterns are anchored so new
// benchmarks don't silently join the gate without a baseline entry.
var targets = []struct{ pkg, pattern string }{
	{"./internal/cpu", "^(BenchmarkEmitNilObserver|BenchmarkWakeup|BenchmarkPipelineSteadyState|BenchmarkReplayRequeue|BenchmarkReadyQueueWide|BenchmarkBitsetSelect|BenchmarkIntervalSampler)$"},
	// BenchmarkTraceReplay gates the trace-cache replay cursor alone at 0
	// allocs/op: it rebuilds every record into its own buffer.
	// BenchmarkTraceRecord gates recording one workload's trace, a sweep's
	// per-workload set-up.
	{"./internal/harness", "^(BenchmarkSimulateAllCached|BenchmarkTraceRecord|BenchmarkTraceReplay)$"},
	// The jobs benchmarks are disk-bound (atomic file writes), so their
	// checked-in ns/op baselines are hand-slackened above any observed run —
	// a gross-regression gate; their allocation budgets are the tight gate.
	// BenchmarkJournalGroupCommit gates the batched journal's concurrent
	// submit path; BenchmarkJournalPerJobFsync pins the one-file-per-
	// transition baseline it replaced, keeping the comparison honest.
	{"./internal/jobs", "^(BenchmarkJobStorePutGet|BenchmarkQueueSubmitDrain|BenchmarkJournalGroupCommit|BenchmarkJournalPerJobFsync)$"},
	// BenchmarkLoadRecorder gates the soak harness's concurrent latency
	// histogram: one lock-free Observe per recorded sample, zero allocations.
	{"./internal/load", "^BenchmarkLoadRecorder$"},
	// BenchmarkSpanEmitDisabled gates the tracing-off fast path at 0
	// allocs/op, the same contract as BenchmarkEmitNilObserver.
	{"./internal/obs", "^(BenchmarkSharedRegistrySnapshot|BenchmarkPromExposition|BenchmarkSpanEmitDisabled|BenchmarkSpanEmitEnabled|BenchmarkTraceExport)$"},
}

// baseline is the BENCH_BASELINE.json schema. AllocsPerOp entries are
// budgets: a run may allocate less, never more (beyond tolerance; a budget
// of 0 admits no tolerance).
type baseline struct {
	Note        string             `json:"note"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op"`
}

// measurement is one benchmark's folded (minimum) results.
type measurement struct {
	ns     float64
	allocs float64
}

// benchLine matches "BenchmarkName/sub-8   123   4567 ns/op ... 8 allocs/op"
// and strips the GOMAXPROCS suffix so baselines are stable across machines.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*?\s([0-9]+) allocs/op)?`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcheck: ")
	var (
		update    = flag.Bool("update", false, "rewrite the baseline from fresh measurements")
		path      = flag.String("baseline", "BENCH_BASELINE.json", "baseline file")
		count     = flag.Int("count", 3, "benchmark repetitions; the minimum per metric is kept")
		tolerance = flag.Float64("tolerance", 0.15, "allowed slowdown before failing (0.15 = +15%)")
	)
	flag.Parse()

	got := make(map[string]measurement)
	for _, t := range targets {
		if err := runBench(t.pkg, t.pattern, *count, got); err != nil {
			log.Fatal(err)
		}
	}
	if len(got) == 0 {
		log.Fatal("no benchmark results parsed")
	}

	if *update {
		b := baseline{
			Note:        "minimum ns/op and allocs/op budgets over repeated runs; regenerate with `go run ./cmd/benchcheck -update`",
			NsPerOp:     make(map[string]float64, len(got)),
			AllocsPerOp: make(map[string]float64, len(got)),
		}
		for name, m := range got {
			b.NsPerOp[name] = m.ns
			b.AllocsPerOp[name] = m.allocs
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*path, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *path, len(got))
		return
	}

	data, err := os.ReadFile(*path)
	if err != nil {
		log.Fatalf("%v (run `go run ./cmd/benchcheck -update` to create the baseline)", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("parsing %s: %v", *path, err)
	}

	names := make([]string, 0, len(base.NsPerOp))
	for name := range base.NsPerOp {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.NsPerOp[name]
		have, ok := got[name]
		if !ok {
			fmt.Printf("FAIL %-45s missing from this run\n", name)
			failed = true
			continue
		}
		ratio := have.ns / want
		status := "ok  "
		if ratio > 1+*tolerance {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-45s %12.0f ns/op  baseline %12.0f  (%+.1f%%)\n",
			status, name, have.ns, want, 100*(ratio-1))
		if budget, ok := base.AllocsPerOp[name]; ok {
			if have.allocs > budget*(1+*tolerance) {
				fmt.Printf("FAIL %-45s %12.0f allocs/op exceeds budget %.0f\n",
					name, have.allocs, budget)
				failed = true
			} else if have.allocs > budget {
				fmt.Printf("note %-45s %12.0f allocs/op above budget %.0f (within tolerance)\n",
					name, have.allocs, budget)
			}
		}
	}
	for name := range got {
		if _, ok := base.NsPerOp[name]; !ok {
			fmt.Printf("note %-45s not in baseline; add with -update\n", name)
		}
	}
	if failed {
		log.Fatalf("benchmark regression beyond %.0f%%", 100**tolerance)
	}
	fmt.Println("benchcheck: all pinned benchmarks within tolerance and allocation budgets")
}

// runBench executes one `go test -bench` invocation and folds the minimum
// ns/op and allocs/op per benchmark into out.
func runBench(pkg, pattern string, count int, out map[string]measurement) error {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-count", strconv.Itoa(count), "-benchmem", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Printf("running %s -bench %s (count=%d)\n", pkg, pattern, count)
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w\n%s", pkg, err, buf.String())
	}
	matched := false
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("%s: parsing %q: %w", pkg, sc.Text(), err)
		}
		allocs := 0.0
		if m[3] != "" {
			if allocs, err = strconv.ParseFloat(m[3], 64); err != nil {
				return fmt.Errorf("%s: parsing %q: %w", pkg, sc.Text(), err)
			}
		}
		prev, ok := out[m[1]]
		if !ok {
			out[m[1]] = measurement{ns: ns, allocs: allocs}
		} else {
			if ns < prev.ns {
				prev.ns = ns
			}
			if allocs < prev.allocs {
				prev.allocs = allocs
			}
			out[m[1]] = prev
		}
		matched = true
	}
	if !matched {
		return fmt.Errorf("%s: no benchmarks matched %q", pkg, pattern)
	}
	return sc.Err()
}
