package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// testFleet is one coordinator over a real (Workers:0) job service, mounted
// on an httptest server.
type testFleet struct {
	svc   *jobs.Service
	coord *Coordinator
	srv   *httptest.Server
	reg   *obs.SharedRegistry
	dir   string
	scale int
}

func newTestFleet(t *testing.T, ttl time.Duration) *testFleet {
	return newTestFleetConfig(t, ttl, jobs.Config{})
}

// newTestFleetConfig is newTestFleet over a service opened with cfg, its
// data directory, worker count and metrics filled in.
func newTestFleetConfig(t *testing.T, ttl time.Duration, cfg jobs.Config) *testFleet {
	t.Helper()
	reg := obs.NewSharedRegistry()
	cfg.DataDir, cfg.Workers, cfg.Metrics = t.TempDir(), 0, reg
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{
		Service:    svc,
		Metrics:    reg,
		LeaseTTL:   ttl,
		Heartbeat:  ttl / 4,
		ExpiryScan: ttl / 4,
	})
	coord.Start()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
		svc.Close()
	})
	return &testFleet{svc: svc, coord: coord, srv: srv, reg: reg, dir: cfg.DataDir}
}

func (f *testFleet) submit(t *testing.T, name string, specs int) jobs.Job {
	t.Helper()
	req := jobs.Request{Name: name, Specs: make([]jobs.SimSpec, specs)}
	for i := range req.Specs {
		// Distinct scales keep each job's spec hash unique.
		req.Specs[i] = jobs.SimSpec{Workload: "compress", Scale: f.scale + i}
	}
	f.scale += specs
	job, _, err := f.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fakeSimulate returns deterministic stats instantly.
func fakeSimulate(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
	p.BatchStart(len(specs))
	out := make([]harness.Result, len(specs))
	for i := range specs {
		p.SpecStart()
		st := &cpu.Stats{Cycles: 100, Retired: 80}
		out[i] = harness.Result{Spec: specs[i], Stats: st}
		p.SpecDone(st, nil, time.Millisecond)
	}
	return out, nil
}

func newTestWorker(t *testing.T, f *testFleet, id string, sim jobs.SimulateFunc) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: f.srv.URL,
		ID:          id,
		Capacity:    2,
		Poll:        20 * time.Millisecond,
		Simulate:    sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func waitState(t *testing.T, f *testFleet, id string, want jobs.State, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if job, ok := f.svc.Job(id); ok && job.State == want {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	job, _ := f.svc.Job(id)
	t.Fatalf("job %s stuck in %s, want %s", id, job.State, want)
	return jobs.Job{}
}

// TestFleetEndToEnd drives two workers over a live coordinator: every job
// completes exactly once, results land in the store, and the merged
// telemetry shows fleet-wide counters. It then checks executor parity: a
// worker built with no telemetry settings, leasing from a coordinator that
// stores telemetry, stores the same bytes as an in-process service.
func TestFleetEndToEnd(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	var submitted []jobs.Job
	for i := 0; i < 6; i++ {
		submitted = append(submitted, f.submit(t, fmt.Sprintf("job%d", i), 2))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := newTestWorker(t, f, "w1", fakeSimulate)
	w2 := newTestWorker(t, f, "w2", fakeSimulate)
	go w1.Run(ctx)
	go w2.Run(ctx)

	for _, job := range submitted {
		done := waitState(t, f, job.ID, jobs.StateDone, 10*time.Second)
		if done.Worker != "" || done.LeaseToken != "" {
			t.Errorf("job %s carries lease residue after done: %+v", done.ID, done)
		}
		rs, err := f.svc.Result(done.ID)
		if err != nil {
			t.Fatalf("result for %s: %v", done.ID, err)
		}
		if len(rs.Results) != 2 {
			t.Errorf("job %s stored %d results, want 2", done.ID, len(rs.Results))
		}
		for _, r := range rs.Results {
			if r.Stats == nil || r.Stats.Cycles != 100 {
				t.Errorf("job %s stored bad stats: %+v", done.ID, r.Stats)
			}
		}
	}
	cancel()

	// The workers' final heartbeat pushes the last delta; poll briefly for
	// the merged totals.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.reg.Snapshot().Counter(MetricWorkerJobsDone).Value() == 6 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	snap := f.reg.Snapshot()
	if c := snap.Counter(MetricWorkerJobsDone).Value(); c != 6 {
		t.Errorf("merged %s = %d, want 6", MetricWorkerJobsDone, c)
	}
	if c := snap.Counter(MetricWorkerSpecsDone).Value(); c != 12 {
		t.Errorf("merged %s = %d, want 12", MetricWorkerSpecsDone, c)
	}
	if c := snap.Counter(MetricWorkerCycles).Value(); c != 1200 {
		t.Errorf("merged %s = %d, want 1200", MetricWorkerCycles, c)
	}
	if c := snap.Counter(MetricRemoteCompletes).Value(); c != 6 {
		t.Errorf("%s = %d, want 6", MetricRemoteCompletes, c)
	}

	view := f.coord.Snapshot()
	if len(view.Workers) != 2 {
		t.Errorf("fleet view has %d workers, want 2", len(view.Workers))
	}

	// Executor parity, over the real simulator.
	great := core.Great()
	req := jobs.Request{Name: "parity", Specs: []jobs.SimSpec{
		{Workload: "compress", Scale: 1},
		{Workload: "compress", Scale: 1, Model: &great},
	}}
	telem := jobs.Config{Telemetry: true, TelemetryInterval: 256}
	localDir, hash := runInProcess(t, telem, req)
	local := storedResult(t, localDir, hash)

	pf := newTestFleetConfig(t, 5*time.Second, telem)
	pjob, _, err := pf.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	pctx, pcancel := context.WithCancel(context.Background())
	defer pcancel()
	go newTestWorker(t, pf, "plain", nil).Run(pctx)
	waitState(t, pf, pjob.ID, jobs.StateDone, 30*time.Second)
	remote := storedResult(t, pf.dir, pjob.SpecHash)
	if !bytes.Contains(local, []byte(`"telemetry"`)) {
		t.Fatal("in-process result carries no telemetry snapshot")
	}
	if !bytes.Equal(remote, local) {
		i := 0
		for i < len(remote) && i < len(local) && remote[i] == local[i] {
			i++
		}
		t.Errorf("worker-stored result (%d bytes) differs from the in-process one (%d bytes) at byte %d:\nworker:     %.200s\nin-process: %.200s",
			len(remote), len(local), i, remote[i:], local[i:])
	}
}

// runInProcess runs req to completion on an in-process service opened with
// cfg and returns its data directory and the request's spec hash.
func runInProcess(t *testing.T, cfg jobs.Config, req jobs.Request) (string, string) {
	t.Helper()
	cfg.DataDir, cfg.Workers = t.TempDir(), 1
	svc, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Close()
	job, _, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := svc.Job(job.ID); j.State.Terminal() {
			if j.State != jobs.StateDone {
				t.Fatalf("in-process job finished %s (%s)", j.State, j.Error)
			}
			return cfg.DataDir, j.SpecHash
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("in-process job %s did not finish", job.ID)
	return "", ""
}

// storedResult reads the result set a service stored for hash, as the bytes
// on disk.
func storedResult(t *testing.T, dataDir, hash string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "results", hash+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetWorkerDeath kills a worker mid-job (its Simulate never returns
// and its heartbeats stop): the lease lapses, the coordinator requeues, a
// healthy worker finishes, and the dead worker's late complete is a 409.
func TestFleetWorkerDeath(t *testing.T) {
	f := newTestFleet(t, 300*time.Millisecond)
	job := f.submit(t, "victim", 1)

	// "Kill" a worker by leasing directly and never heartbeating.
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "dead", Capacity: 1}, &lease)
	if len(lease.Jobs) != 1 || lease.Jobs[0].ID != job.ID {
		t.Fatalf("lease got %+v", lease.Jobs)
	}
	deadToken := lease.Jobs[0].LeaseToken

	// A healthy worker picks it up after expiry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newTestWorker(t, f, "alive", fakeSimulate)
	go w.Run(ctx)

	done := waitState(t, f, job.ID, jobs.StateDone, 10*time.Second)
	if done.Attempts != 1 {
		t.Errorf("job finished with attempts=%d, want 1 (expiry hands the attempt back)", done.Attempts)
	}

	// The zombie reports in: stale.
	var errResp struct {
		Error string `json:"error"`
	}
	status := postJSONStatus(t, f.srv.URL+"/complete", CompleteRequest{
		Worker: "dead", Job: job.ID, Token: deadToken,
		Results: []jobs.SpecResult{{Spec: job.Request.Specs[0], Stats: &cpu.Stats{}}},
	}, &errResp)
	if status != http.StatusConflict {
		t.Errorf("zombie complete got %d, want 409 (%s)", status, errResp.Error)
	}

	snap := f.reg.Snapshot()
	if c := snap.Counter(MetricLeaseExpirations).Value(); c < 1 {
		t.Errorf("%s = %d, want >= 1", MetricLeaseExpirations, c)
	}
	if c := snap.Counter(MetricStaleCompletes).Value(); c != 1 {
		t.Errorf("%s = %d, want 1", MetricStaleCompletes, c)
	}
}

// TestFleetHeartbeatAfterExpiry: the HTTP-level twin of the queue test —
// a heartbeat arriving after expiry reports the lease as lost.
func TestFleetHeartbeatAfterExpiry(t *testing.T) {
	f := newTestFleet(t, 200*time.Millisecond)
	job := f.submit(t, "hb", 1)
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "slow", Capacity: 1}, &lease)
	if len(lease.Jobs) != 1 {
		t.Fatalf("leased %d jobs, want 1", len(lease.Jobs))
	}

	// Wait out the TTL plus a scan.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := f.svc.Job(job.ID); j.State == jobs.StateQueued {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var hb HeartbeatResponse
	postJSON(t, f.srv.URL+"/heartbeat", HeartbeatRequest{Worker: "slow", Jobs: []string{job.ID}}, &hb)
	if len(hb.Renewed) != 0 {
		t.Errorf("renewed %v after expiry", hb.Renewed)
	}
	if len(hb.Lost) != 1 || hb.Lost[0] != job.ID {
		t.Errorf("lost %v, want [%s]", hb.Lost, job.ID)
	}
}

// TestFleetWorkerFailure routes a worker-reported failure through the
// service's retry machinery: a job that fails remotely retries and then
// fails for good once the budget is spent.
func TestFleetWorkerFailure(t *testing.T) {
	reg := obs.NewSharedRegistry()
	svc, err := jobs.Open(jobs.Config{
		DataDir: t.TempDir(), Workers: 0, Metrics: reg,
		MaxRetries: 1, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Service: svc, Metrics: reg, LeaseTTL: 5 * time.Second})
	coord.Start()
	srv := httptest.NewServer(coord.Handler())
	defer func() { srv.Close(); coord.Close(); svc.Close() }()

	req := jobs.Request{Name: "flaky", Specs: []jobs.SimSpec{{Workload: "compress"}}}
	job, _, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	var attempts atomic.Int64
	failing := func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
		attempts.Add(1)
		return nil, errors.New("scripted failure")
	}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "flaky-w", Poll: 20 * time.Millisecond, Simulate: failing})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	deadline := time.Now().Add(10 * time.Second)
	var final jobs.Job
	for time.Now().Before(deadline) {
		if j, ok := svc.Job(job.ID); ok && j.State == jobs.StateFailed {
			final = j
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != jobs.StateFailed {
		j, _ := svc.Job(job.ID)
		t.Fatalf("job never failed for good; state %s after %d attempts", j.State, attempts.Load())
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("worker ran %d attempts, want 2 (initial + one retry)", got)
	}
	if !strings.Contains(final.Error, "scripted failure") {
		t.Errorf("final error %q lost the worker's cause", final.Error)
	}
}

// TestFleetViewProgress: heartbeats carry per-job progress and the /fleet
// snapshot serves it.
func TestFleetViewProgress(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	job := f.submit(t, "view", 1)
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "viewer", Capacity: 1}, &lease)

	var hb HeartbeatResponse
	postJSON(t, f.srv.URL+"/heartbeat", HeartbeatRequest{
		Worker: "viewer",
		Jobs:   []string{job.ID},
		Progress: []JobProgress{{
			Job:      job.ID,
			Snapshot: harness.ProgressSnapshot{SpecsTotal: 1, SpecsInFlight: 1},
		}},
	}, &hb)
	if len(hb.Renewed) != 1 {
		t.Fatalf("renewed %v", hb.Renewed)
	}

	resp, err := http.Get(f.srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Leased != 1 {
		t.Errorf("fleet snapshot leased = %d, want 1", view.Leased)
	}
	if len(view.Workers) != 1 || view.Workers[0].ID != "viewer" || !view.Workers[0].Live {
		t.Fatalf("workers = %+v", view.Workers)
	}
	wv := view.Workers[0]
	if len(wv.Leased) != 1 || wv.Leased[0] != job.ID {
		t.Errorf("worker leased = %v", wv.Leased)
	}
	if len(wv.Progress) != 1 || wv.Progress[0].Snapshot.SpecsTotal != 1 {
		t.Errorf("worker progress = %+v", wv.Progress)
	}
}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	if status := postJSONStatus(t, url, body, out); status/100 != 2 {
		t.Fatalf("POST %s: status %d", url, status)
	}
}

func postJSONStatus(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}
