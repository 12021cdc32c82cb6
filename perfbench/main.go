// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator or the job service, checks that its outputs are
// correct, and prints its metrics; see README.md for the workloads and the
// metrics. Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fig3-quick --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, measured with every probe off; with --trace 1
// they are the per-layer ones, measured in a separate run that switches the
// probes on. A failed correctness check makes the exit code 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	window  time.Duration // how long the timed phase measures
	traced  bool
	workdir string // scratch space for the service's data directories
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"fig3-quick": runFig3Quick,
	"base-exec":  runBaseExec,
	"jobs-mixed": runJobsMixed,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the service sees;
// every workload reports each of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"heap_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"harness.trace_record_s", "s"},
	{"harness.trace_mb", "MB"},
	{"harness.trace_cache_hit_ratio", "ratio"},
	{"emu.minstr_per_s", "Minstr/s"},
	{"emu.share", "ratio"},
	{"cpu.ns_per_cycle", "ns"},
	{"cpu.ns_per_instr", "ns"},
	{"cpu.fetch_frac", "ratio"},
	{"cpu.sweep_frac", "ratio"},
	{"cpu.issue_frac", "ratio"},
	{"cpu.writeback_frac", "ratio"},
	{"cpu.events_frac", "ratio"},
	{"cpu.retire_frac", "ratio"},
	{"cpu.mem_frac", "ratio"},
	{"cpu.reissue_ratio", "ratio"},
	{"vpred.calls_per_kinstr", "1/kinstr"},
	{"vpred.ns_per_call", "ns"},
	{"vpred.accuracy", "ratio"},
	{"confidence.calls_per_kinstr", "1/kinstr"},
	{"confidence.used_correct_ratio", "ratio"},
	{"bpred.accuracy", "ratio"},
	{"mem.l1d_miss_ratio", "ratio"},
	{"jobs.hit_ms_p50", "ms"},
	{"jobs.hit_ms_p99", "ms"},
	{"jobs.miss_ms_p50", "ms"},
	{"jobs.miss_ms_p90", "ms"},
	{"jobs.submit_ms_p50", "ms"},
	{"jobs.result_ms_p50", "ms"},
	{"jobs.polls_per_job", "count"},
	{"jobs.http_overhead_ms_p50", "ms"},
	{"jobs.poll_handler_share", "ratio"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.store_ms_p50", "ms"},
	{"jobs.journal_commits_per_job", "count"},
	{"jobs.dedup_ratio", "ratio"},
	{"jobs.store_mb", "MB"},
	{"trace_overhead_frac", "ratio"},
	{"cpu.phase_probe_overhead_frac", "ratio"},
	{"fail_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: fig3-quick, base-exec or jobs-mixed")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fl.Int("seconds", 20, "how long the timed phase measures, in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics with probes off; 1: per-layer metrics with probes on")
	workdir := fl.String("workdir", ".bench_build", "directory for the job service's scratch data")
	commit := fl.String("commit", "unknown", "commit being measured, for the host record")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload fig3-quick|base-exec|jobs-mixed, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: *workdir,
	}

	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	fmt.Fprintf(stdout, "# commit=%s source_sha256=%s\n", *commit, sourceDigest())

	r := newReport()
	refStart := hostReference()
	err := runWorkload(cfg, r)
	fmt.Fprintf(stdout, "# host reference loop: %.1f ms at start, %.1f ms at end\n", ms(refStart), ms(hostReference()))
	if err != nil {
		// An operation that could not complete is a failure, not a result.
		for _, n := range r.notes {
			fmt.Fprintln(stdout, n)
		}
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)))

	for _, n := range r.notes {
		fmt.Fprintln(stdout, n)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	printTable(stdout, defs, r)
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "FAILED CHECK: %s\n", f)
	}
	fmt.Fprintf(stdout, "# checks and operations: %d attempted, %d failed\n", r.attempted, r.failed)

	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, defs []metricDef, r *report) {
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		mark := ""
		if !ok {
			mark = "  (not measured on this workload)"
		}
		fmt.Fprintf(w, "%-32s %14.6g %-9s%s\n", d.name, v, d.unit, mark)
	}
}

// refSink keeps the reference loop's result alive.
var refSink uint64

// hostReference times a fixed integer loop. The host's speed drifts from
// minute to minute with its neighbours' load, and a reading at the start and
// end of a run shows how fast the host was while the run measured.
func hostReference() time.Duration {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	refSink = x
	return time.Since(t0)
}

// cpuModel reads the processor's model name, for the host record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, which identifies the code measured where no commit is known.
func sourceDigest() string {
	var paths []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
