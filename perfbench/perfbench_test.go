package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/base_exec_digest.json from the simulator")

// heldOutSeed was not used while the benchmark was written; the checks must
// pass on it as on the seeds they were tuned with.
const heldOutSeed = 7919

// TestBaseExecDigest checks the embedded digest against a fresh run of
// every base-exec spec; with -update it rewrites the digest instead.
func TestBaseExecDigest(t *testing.T) {
	digest := make(map[string]statsDigest)
	var results []harness.Result
	for _, spec := range baseExecSpecs() {
		res, err := harness.Simulate(spec)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		digest[spec.Label()] = digestOf(res.Stats)
	}
	if *update {
		data, err := json.MarshalIndent(digest, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/base_exec_digest.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadBaseExecDigest()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if msg := checkBaseExec(res, want); msg != "" {
			t.Errorf("unperturbed digest fails: %s", msg)
		}
	}

	// A single perturbed counter must be caught.
	label := results[0].Spec.Label()
	perturbed := make(map[string]statsDigest, len(want))
	for k, v := range want {
		perturbed[k] = v
	}
	d := make(statsDigest)
	for k, v := range want[label] {
		d[k] = v
	}
	d["branch_mispredicts"]++
	perturbed[label] = d
	if msg := checkBaseExec(results[0], perturbed); !strings.Contains(msg, "branch_mispredicts") {
		t.Errorf("perturbed digest: got %q, want a failure naming branch_mispredicts", msg)
	}
}

// TestFig3CheckCatchesPerturbedCell runs the sweep once and shows the check
// passes on the quoted cells and fails when one cell or one retired count
// is off.
func TestFig3CheckCatchesPerturbedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 104-spec sweep")
	}
	baseSpecs, runSpecs := fig3Specs()
	specs := append(append([]harness.Spec(nil), baseSpecs...), runSpecs...)
	perm := make([]int, len(specs))
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	base, runs, _, err := fig3Pass(specs, perm, len(baseSpecs), nil)
	if err != nil {
		t.Fatal(err)
	}
	checks, fails := checkFig3(base, runs, fig3Expected)
	if len(fails) != 0 || checks != len(specs)+len(fig3Expected) {
		t.Fatalf("unperturbed: %d checks, failures %v", checks, fails)
	}

	perturbed := make(map[string]float64, len(fig3Expected))
	for k, v := range fig3Expected {
		perturbed[k] = v
	}
	perturbed["I/R great"] += 0.001
	if _, fails := checkFig3(base, runs, perturbed); len(fails) != 1 || !strings.Contains(fails[0], "I/R great") {
		t.Errorf("perturbed cell: failures %v, want one naming I/R great", fails)
	}

	st := *runs[5].Stats
	st.Retired++
	runs[5].Stats = &st
	if _, fails := checkFig3(base, runs, fig3Expected); len(fails) == 0 || !strings.Contains(fails[0], "retired") {
		t.Errorf("perturbed retired count: failures %v, want a retired-count failure", fails)
	}
}

// TestJobsCheckCatchesLostJob runs one batch of the mix and shows the
// check passes, then fails on a job the service lost, on a result that
// differs from direct simulation and on a dedup the plan did not call for.
func TestJobsCheckCatchesLostJob(t *testing.T) {
	cfg := runConfig{seed: heldOutSeed, window: time.Nanosecond, workdir: t.TempDir()}
	jr, err := startJobsRun(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.close()
	jr.timedPhase(cfg, nil)
	recs := append(append([]jobRecord(nil), jr.plain.pool...), jr.plainRecs...)
	listed := jr.plain.svc.Jobs()
	ref := &refStats{memo: make(map[string]*cpu.Stats)}
	if _, fails := checkJobs(recs, listed, ref); len(fails) != 0 {
		t.Fatalf("unperturbed: %v", fails)
	}

	lost := listed[:len(listed)-1]
	if _, fails := checkJobs(recs, lost, ref); len(fails) == 0 {
		t.Error("a job missing from the service's listing was not reported")
	}

	bad := append([]jobRecord(nil), recs...)
	i := len(bad) - 1
	st := *bad[i].stats
	st.Cycles++
	bad[i].stats = &st
	if _, fails := checkJobs(bad, listed, ref); len(fails) != 1 {
		t.Errorf("altered result: failures %v, want exactly one", fails)
	}

	bad = append([]jobRecord(nil), recs...)
	bad[i].hit = !bad[i].hit
	if _, fails := checkJobs(bad, listed, ref); len(fails) != 2 {
		t.Errorf("unplanned dedup: failures %v, want the job and the ratio", fails)
	}
}

// TestHeldOutSeedPasses runs every workload end to end, through the
// command's own entry point, on a seed not used while building it.
func TestHeldOutSeedPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			args := []string{"--workload", name, "--seed", strconv.Itoa(heldOutSeed), "--seconds", "1", "--trace", "0", "--workdir", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d\n%s\n%s", code, out.String(), errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v", res)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("metric %s = %+v", d.name, m)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and
// workloads in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the command", w.Name)
		}
	}
}
