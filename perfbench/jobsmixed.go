package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// The jobs-mixed traffic: a closed loop of clients, each with one HTTP
// connection, that submit a single-spec job, wait for it to finish and
// fetch its result. Half of each client's jobs are hits, which repeat a
// spec the store already holds; the other half are misses, specs never
// submitted before. The seed picks which jobs are hits and which spec each
// job carries; the hit share is fixed, so throughput compares across seeds.
//
// A client polls a job with exponential backoff: the first poll 1 ms after
// the submit, each later one after twice the previous sleep, up to 250 ms,
// the fixed interval of the repository's own polling client (vsweep
// -submit). That client's jobs are whole sweeps lasting seconds; a fixed
// 250 ms here would measure the sleep, not the service, for misses that
// simulate in milliseconds. Backoff sees a job done within about twice its
// time with a handful of polls, where a fixed 1 ms interval would send one
// poll per millisecond of every miss. The traced run reports the share of
// handler time the polls take (jobs.poll_handler_share).
const (
	jobsClients   = 2   // closed-loop clients, capped at nproc
	jobsPerBatch  = 100 // jobs per client per timed batch
	hitPoolSize   = 16  // distinct stored specs the hits draw from
	jobsScale     = 1   // small scale: a miss simulates in milliseconds
	pollFirst     = time.Millisecond
	pollMax       = 250 * time.Millisecond
	tracerSpans   = 1 << 16
	reqIDHeader   = "X-Perfbench-Request"
	nonceBase     = int64(1) << 40 // the simulator's default MaxCycles
	clientNonceSz = int64(1) << 30
)

// jobsWorkloads are the workloads misses and hits draw from. xlisp is left
// out: its smallest scale runs 123k instructions, ten times the others, and
// its misses alone would set the tail.
func jobsWorkloads() []bench.Workload {
	var ws []bench.Workload
	for _, w := range bench.All() {
		if w.Name != "xlisp" {
			ws = append(ws, w)
		}
	}
	return ws
}

// randomSpec draws one small-scale spec: workload, paper configuration, and
// either the base processor or a model under a paper setting.
func randomSpec(rng *rand.Rand) jobs.SimSpec {
	ws := jobsWorkloads()
	cfgs := cpu.PaperConfigs()
	s := jobs.SimSpec{
		Workload: ws[rng.Intn(len(ws))].Name,
		Scale:    jobsScale,
		Config:   cfgs[rng.Intn(len(cfgs))],
	}
	models := core.Presets()
	if k := rng.Intn(len(models) + 1); k < len(models) {
		m := models[k]
		s.Model = &m
		set := harness.PaperSettings()[rng.Intn(4)]
		s.Update = set.Update.String()
		s.Oracle = set.Oracle
	}
	return s
}

// jobPlan is one client's seeded job sequence.
type jobPlan struct {
	rng    *rand.Rand
	pool   []jobs.SimSpec
	client int64
	nonce  int64
}

// batch returns the next n jobs: exactly half hits, in seeded positions.
// A miss gets a fresh MaxCycles nonce: MaxCycles enters the spec's hash but,
// far above any real cycle count, not its result, so every miss is a new
// spec that simulates exactly like its un-nonced form.
func (p *jobPlan) batch(n int) []plannedJob {
	out := make([]plannedJob, n)
	for i := range out {
		out[i].hit = i < n/2
	}
	p.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		if out[i].hit {
			out[i].spec = p.pool[p.rng.Intn(len(p.pool))]
			continue
		}
		p.nonce++
		out[i].spec = randomSpec(p.rng)
		out[i].spec.Config.MaxCycles = nonceBase + p.client*clientNonceSz + p.nonce
	}
	return out
}

type plannedJob struct {
	hit  bool
	spec jobs.SimSpec
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	plannedJob
	id       string
	state    jobs.State
	deduped  bool
	stats    *cpu.Stats // the fetched result
	err      error
	totalMS  float64
	submitMS float64
	resultMS float64
	polls    int
	overhead []float64 // per request: round trip minus handler time, ms
	// Handler time of all the job's requests and of its polls alone, ms;
	// set only on a timed server.
	handlerMS, pollHandlerMS float64
}

// timedHandler wraps the service's handler to time each request it
// serves, keyed by the client's request ID, so the client can subtract the
// handler's share from its round trip.
type timedHandler struct {
	next http.Handler
	mu   sync.Mutex
	took map[string]time.Duration
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	h.next.ServeHTTP(w, req)
	d := time.Since(t0)
	if id := req.Header.Get(reqIDHeader); id != "" {
		h.mu.Lock()
		h.took[id] = d
		h.mu.Unlock()
	}
}

func (h *timedHandler) take(id string) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.took[id]
	delete(h.took, id)
	return d, ok
}

// jobServer is one in-process service behind a local HTTP server.
type jobServer struct {
	dir    string
	svc    *jobs.Service
	srv    *httptest.Server
	tracer *obs.Tracer
	timed  *timedHandler // nil unless traced
	pool   []jobRecord   // the jobs that stored the hit pool
}

// openJobServer opens a service in a fresh data directory and serves it.
// A traced server records the service's spans and times its handler.
func openJobServer(workdir string, traced bool) (*jobServer, error) {
	dir, err := os.MkdirTemp(workdir, "jobs-")
	if err != nil {
		return nil, err
	}
	js := &jobServer{dir: dir}
	if traced {
		js.tracer = obs.NewTracer(tracerSpans)
	}
	js.svc, err = jobs.Open(jobs.Config{
		DataDir: dir,
		Workers: runtime.GOMAXPROCS(0),
		Tracer:  js.tracer,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	js.svc.Start()
	var h http.Handler = js.svc.Handler()
	if traced {
		js.timed = &timedHandler{next: h, took: make(map[string]time.Duration)}
		h = js.timed
	}
	js.srv = httptest.NewServer(h)
	return js, nil
}

func (js *jobServer) close() {
	js.srv.Close()
	js.svc.Close()
	os.RemoveAll(js.dir)
}

// storePool submits each pool spec once and waits for it, so later hits
// find it in the store.
func (js *jobServer) storePool(pool []jobs.SimSpec) error {
	c := newJobClient(-1)
	defer c.close()
	for _, s := range pool {
		rec := c.run(js, plannedJob{spec: s})
		if rec.err != nil {
			return fmt.Errorf("storing the hit pool: %w", rec.err)
		}
		js.pool = append(js.pool, rec)
	}
	return nil
}

// jobClient is one closed-loop client with a single connection.
type jobClient struct {
	id   int
	http *http.Client
	seq  int
}

func newJobClient(id int) *jobClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &jobClient{id: id, http: &http.Client{Transport: tr}}
}

func (c *jobClient) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole reply. It returns the round
// trip and, when the server times its handler, the handler's time (-1
// otherwise).
func (c *jobClient) do(js *jobServer, method, path string, body []byte) ([]byte, time.Duration, time.Duration, error) {
	req, err := http.NewRequest(method, js.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, -1, err
	}
	c.seq++
	id := strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
	if js.timed != nil {
		req.Header.Set(reqIDHeader, id)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, -1, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return nil, rt, -1, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, rt, -1, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	handler := time.Duration(-1)
	if js.timed != nil {
		if d, ok := js.timed.take(id); ok {
			handler = d
		}
	}
	return data, rt, handler, nil
}

// run submits one job, polls it to a terminal state and fetches its
// result, timing each step.
func (c *jobClient) run(js *jobServer, pj plannedJob) (rec jobRecord) {
	rec.plannedJob = pj
	body, err := json.Marshal(jobs.Request{Specs: []jobs.SimSpec{pj.spec}})
	if err != nil {
		rec.err = err
		return rec
	}
	account := func(rt, handler time.Duration, poll bool) {
		if handler < 0 {
			return
		}
		rec.overhead = append(rec.overhead, ms(rt-handler))
		rec.handlerMS += ms(handler)
		if poll {
			rec.pollHandlerMS += ms(handler)
		}
	}
	t0 := time.Now()
	data, rt, h, err := c.do(js, http.MethodPost, "/jobs", body)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.submitMS = ms(rt)
	account(rt, h, false)
	var view jobs.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		rec.err = err
		return rec
	}
	rec.id, rec.state, rec.deduped = view.ID, view.State, view.Deduped
	for sleep := pollFirst; !rec.state.Terminal(); sleep = min(2*sleep, pollMax) {
		time.Sleep(sleep)
		data, rt, h, err := c.do(js, http.MethodGet, "/jobs/"+rec.id, nil)
		if err != nil {
			rec.err = err
			return rec
		}
		account(rt, h, true)
		rec.polls++
		if err := json.Unmarshal(data, &view); err != nil {
			rec.err = err
			return rec
		}
		rec.state = view.State
	}
	if rec.state != jobs.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", rec.id, rec.state, view.Error)
		return rec
	}
	data, rt, h, err = c.do(js, http.MethodGet, "/jobs/"+rec.id+"/result", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.resultMS = ms(rt)
	account(rt, h, false)
	rec.totalMS = ms(time.Since(t0))
	var rs jobs.ResultSet
	if err := json.Unmarshal(data, &rs); err != nil || len(rs.Results) != 1 || rs.Results[0].Stats == nil {
		rec.err = fmt.Errorf("job %s: unreadable result (%v)", rec.id, err)
		return rec
	}
	rec.stats = rs.Results[0].Stats
	return rec
}

// runBatch runs one batch on js: every client works through its next
// jobsPerBatch jobs, concurrently with the others.
func runBatch(js *jobServer, clients []*jobClient, plans []*jobPlan) ([]jobRecord, time.Duration) {
	out := make([][]jobRecord, len(clients))
	batches := make([][]plannedJob, len(clients))
	for i, p := range plans {
		batches[i] = p.batch(jobsPerBatch)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *jobClient) {
			defer wg.Done()
			for _, pj := range batches[i] {
				out[i] = append(out[i], c.run(js, pj))
			}
		}(i, c)
	}
	wg.Wait()
	took := time.Since(t0)
	var all []jobRecord
	for _, recs := range out {
		all = append(all, recs...)
	}
	return all, took
}

// refStats simulates specs directly through harness.Simulate (execute
// driven, no service, no trace cache), memoized by the spec without its
// MaxCycles nonce, which does not change what is simulated.
type refStats struct {
	memo map[string]*cpu.Stats
}

func (rs *refStats) get(s jobs.SimSpec) (*cpu.Stats, error) {
	key := s
	key.Config.MaxCycles = 0
	k, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	if st, ok := rs.memo[string(k)]; ok {
		return st, nil
	}
	hs, err := s.ToHarness()
	if err != nil {
		return nil, err
	}
	res, err := harness.Simulate(hs)
	if err != nil {
		return nil, err
	}
	st := *res.Stats // a copy, so the memo does not keep the pipeline alive
	rs.memo[string(k)] = &st
	return &st, nil
}

// checkJobs checks what the clients saw against the service's own job
// listing and against direct simulation: every job ended done, nothing was
// lost or invented, each job was a dedup hit exactly when planned, and each
// fetched result equals a direct harness.Simulate of its spec. It returns
// the number of checks made and the failures.
func checkJobs(recs []jobRecord, listed []jobs.Job, ref *refStats) (int, []string) {
	var fails []string
	checks := 0
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf("jobs-mixed: "+format, args...)) }

	byID := make(map[string]jobs.Job, len(listed))
	for _, j := range listed {
		byID[j.ID] = j
	}
	checks++
	if len(listed) != len(recs) {
		fail("service lists %d jobs, clients submitted %d", len(listed), len(recs))
	}
	planned, deduped := 0, 0
	for _, rec := range recs {
		checks += 4
		if rec.err != nil {
			fail("job %q (%s): %v", rec.id, rec.spec.Label(), rec.err)
			continue
		}
		if j, ok := byID[rec.id]; !ok {
			fail("job %s is missing from the service's listing", rec.id)
		} else if j.State != jobs.StateDone {
			fail("job %s is listed %s", rec.id, j.State)
		}
		if rec.hit {
			planned++
		}
		if rec.deduped {
			deduped++
		}
		if rec.deduped != rec.hit {
			fail("job %s deduped=%v, planned hit=%v", rec.id, rec.deduped, rec.hit)
		}
		want, err := ref.get(rec.spec)
		if err != nil {
			fail("job %s: direct simulation: %v", rec.id, err)
			continue
		}
		if !reflect.DeepEqual(*rec.stats, *want) {
			fail("job %s (%s): result differs from direct simulation", rec.id, rec.spec.Label())
		}
	}
	checks++
	if planned != deduped {
		fail("dedup ratio %d/%d observed, %d/%d planned", deduped, len(recs), planned, len(recs))
	}
	return checks, fails
}

// missRetired sums the instructions the misses among recs simulated.
func missRetired(recs []jobRecord) int64 {
	var n int64
	for _, rec := range recs {
		if !rec.hit && rec.err == nil {
			n += rec.stats.Retired
		}
	}
	return n
}

// jobsSetup opens a service, warms the trace cache for every small-scale
// workload and stores the hit pool: the state of a long-lived daemon.
// Unless warm is set the trace cache starts empty, as in a fresh process.
// It returns the set-up time and the part of it spent recording traces.
func jobsSetup(workdir string, traced, warm bool, pool []jobs.SimSpec) (*jobServer, time.Duration, time.Duration, error) {
	if !warm {
		resetTraceCache()
	}
	t0 := time.Now()
	js, err := openJobServer(workdir, traced)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	err = recordTraces(jobsWorkloads(), func(bench.Workload) int { return jobsScale })
	record := time.Since(t1)
	if err == nil {
		err = js.storePool(pool)
	}
	if err != nil {
		js.close()
		return nil, 0, 0, err
	}
	return js, time.Since(t0), record, nil
}

// hitPool draws the distinct specs hits repeat.
func hitPool(rng *rand.Rand) []jobs.SimSpec {
	var pool []jobs.SimSpec
	seen := make(map[string]bool)
	for len(pool) < hitPoolSize {
		s := randomSpec(rng)
		k, _ := json.Marshal(s)
		if !seen[string(k)] {
			seen[string(k)] = true
			pool = append(pool, s)
		}
	}
	return pool
}

// jobsRun is the state of one jobs-mixed run: its servers, clients and
// everything the clients saw.
type jobsRun struct {
	plain, traced *jobServer
	clients       []*jobClient
	plans         []*jobPlan
	plainRecs     []jobRecord
	tracedRecs    []jobRecord
	plainWall     []float64 // per batch, s
	plainMinstr   []float64 // per batch, M simulated instr per s
	tracedWall    []float64
	setups        []float64
	traceRecord   float64
	heapMB        float64
}

func (jr *jobsRun) close() {
	for _, c := range jr.clients {
		c.close()
	}
	if jr.plain != nil {
		jr.plain.close()
	}
	if jr.traced != nil {
		jr.traced.close()
	}
}

// startJobsRun performs the set-up, setupReps times over, keeping the last
// service, plus a traced service when the run is traced.
func startJobsRun(cfg runConfig, heap *heapPeak) (*jobsRun, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := hitPool(rng)
	jr := &jobsRun{}
	var records []float64
	for i := 0; i < setupReps; i++ {
		if jr.plain != nil {
			jr.plain.close()
			jr.plain = nil
		}
		js, took, record, err := jobsSetup(cfg.workdir, false, false, pool)
		if err != nil {
			return nil, err
		}
		jr.plain = js
		jr.setups = append(jr.setups, took.Seconds())
		if heap != nil {
			heap.Settle()
		}
		records = append(records, record.Seconds())
	}
	jr.traceRecord = median(records)
	if cfg.traced {
		js, _, _, err := jobsSetup(cfg.workdir, true, true, pool)
		if err != nil {
			jr.close()
			return nil, err
		}
		jr.traced = js
	}
	for c := 0; c < min(jobsClients, runtime.NumCPU()); c++ {
		jr.clients = append(jr.clients, newJobClient(c))
		jr.plans = append(jr.plans, &jobPlan{
			rng:    rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(c) + 1)),
			pool:   pool,
			client: int64(c),
		})
	}
	return jr, nil
}

// heapWindowBatches bounds the heap measurement. The service keeps every
// job it has accepted in memory, so its heap grows with the jobs served;
// the peak is taken over set-up and this many untraced batches, a fixed
// amount of work, so that it compares across runs whatever their
// throughput.
const heapWindowBatches = 8

// timedPhase runs batches for the measuring window, alternating with the
// traced server when there is one. heap, when non-nil, is stopped after
// heapWindowBatches untraced batches, or at the end.
func (jr *jobsRun) timedPhase(cfg runConfig, heap *heapPeak) {
	stopHeap := func() {
		if heap != nil {
			heap.Settle()
			jr.heapMB = heap.MB()
			heap = nil
		}
	}
	defer stopHeap()
	_ = passLoop(cfg.window, passesFor(cfg), func(i int) error {
		if jr.traced != nil && i%2 == 1 {
			recs, took := runBatch(jr.traced, jr.clients, jr.plans)
			jr.tracedRecs = append(jr.tracedRecs, recs...)
			jr.tracedWall = append(jr.tracedWall, took.Seconds())
			return nil
		}
		recs, took := runBatch(jr.plain, jr.clients, jr.plans)
		jr.plainRecs = append(jr.plainRecs, recs...)
		jr.plainWall = append(jr.plainWall, took.Seconds())
		jr.plainMinstr = append(jr.plainMinstr, float64(missRetired(recs))/took.Seconds()/1e6)
		if len(jr.plainWall) == heapWindowBatches {
			stopHeap()
		} else if heap != nil {
			heap.Settle()
		}
		return nil
	})
}

// check runs checkJobs over each server's jobs, the hit pool included.
func (jr *jobsRun) check(r *report) {
	ref := &refStats{memo: make(map[string]*cpu.Stats)}
	for _, side := range []struct {
		js   *jobServer
		recs []jobRecord
	}{{jr.plain, jr.plainRecs}, {jr.traced, jr.tracedRecs}} {
		if side.js == nil {
			continue
		}
		recs := append(append([]jobRecord(nil), side.js.pool...), side.recs...)
		r.checkAll(checkJobs(recs, side.js.svc.Jobs(), ref))
	}
}

// runJobsMixed drives the job service over HTTP with the closed-loop mix.
func runJobsMixed(cfg runConfig, r *report) error {
	heap := &heapPeak{}
	jr, err := startJobsRun(cfg, heap)
	if err != nil {
		return err
	}
	defer jr.close()
	r.set("setup_s", median(jr.setups))
	r.set("harness.trace_record_s", jr.traceRecord)
	r.note("set-up: opened the service, warmed %d traces and stored %d hit specs, %d times, %.4g..%.4g s",
		len(jobsWorkloads()), hitPoolSize, setupReps, minOf(jr.setups), maxOf(jr.setups))

	cache := harness.DefaultTraceCache()
	hits0, misses0 := cache.Hits(), cache.Misses()
	commits0 := jr.plain.svc.Snapshot().JournalCommits
	jr.timedPhase(cfg, heap)
	snap := jr.plain.svc.Snapshot()
	hits, misses := cache.Hits()-hits0, cache.Misses()-misses0
	r.set("heap_peak_mb", jr.heapMB)

	failedOps := 0
	for _, rec := range append(append([]jobRecord(nil), jr.plainRecs...), jr.tracedRecs...) {
		if rec.err != nil {
			failedOps++
		}
	}
	r.ops(len(jr.plainRecs)+len(jr.tracedRecs), failedOps)
	jr.check(r)

	n := float64(len(jr.plainRecs))
	wall := median(jr.plainWall)
	r.set("wall_s", wall)
	r.set("jobs_per_s", float64(len(jr.clients)*jobsPerBatch)/wall)
	r.set("sim_minstr_per_s", median(jr.plainMinstr))
	r.note("timed: %d untraced batches of %d jobs (%d clients), wall %.4g..%.4g s; heap over set-up and the first %d",
		len(jr.plainWall), len(jr.clients)*jobsPerBatch, len(jr.clients), minOf(jr.plainWall), maxOf(jr.plainWall), heapWindowBatches)

	var hitMS, missMS, submitMS, resultMS []float64
	var polls, deduped int
	for _, rec := range jr.plainRecs {
		if rec.err != nil {
			continue
		}
		if rec.hit {
			hitMS = append(hitMS, rec.totalMS)
		} else {
			missMS = append(missMS, rec.totalMS)
		}
		submitMS = append(submitMS, rec.submitMS)
		resultMS = append(resultMS, rec.resultMS)
		polls += rec.polls
		if rec.deduped {
			deduped++
		}
	}
	r.set("jobs.hit_ms_p50", r.notePercentile("job_hit_ms_p50", hitMS, 0.50))
	r.set("jobs.hit_ms_p99", r.notePercentile("job_hit_ms_p99", hitMS, 0.99))
	r.set("jobs.miss_ms_p50", r.notePercentile("job_miss_ms_p50", missMS, 0.50))
	r.set("jobs.miss_ms_p90", r.notePercentile("job_miss_ms_p90", missMS, 0.90))
	if !cfg.traced {
		return nil
	}

	r.set("jobs.submit_ms_p50", r.notePercentile("jobs.submit_ms_p50", submitMS, 0.50))
	r.set("jobs.result_ms_p50", r.notePercentile("jobs.result_ms_p50", resultMS, 0.50))
	r.set("jobs.polls_per_job", ratio(float64(polls), n))
	r.set("jobs.dedup_ratio", ratio(float64(deduped), n))
	r.set("jobs.journal_commits_per_job", ratio(float64(snap.JournalCommits-commits0), n))
	r.set("jobs.store_mb", float64(snap.StoreBytes)/1e6)
	r.set("harness.trace_mb", float64(cache.CachedBytes())/1e6)
	r.set("harness.trace_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("trace_overhead_frac", median(jr.tracedWall)/median(jr.plainWall)-1)
	r.note("traced: %d batches on the traced service, wall %.4g..%.4g s", len(jr.tracedWall), minOf(jr.tracedWall), maxOf(jr.tracedWall))

	var overhead []float64
	var handlerMS, pollHandlerMS float64
	var tracedPolls int
	for _, rec := range jr.tracedRecs {
		overhead = append(overhead, rec.overhead...)
		handlerMS += rec.handlerMS
		pollHandlerMS += rec.pollHandlerMS
		tracedPolls += rec.polls
	}
	r.set("jobs.http_overhead_ms_p50", r.notePercentile("jobs.http_overhead_ms_p50", overhead, 0.50))
	r.set("jobs.poll_handler_share", ratio(pollHandlerMS, handlerMS))
	r.note("polls: %d on the traced service, %.1f/s, %.4g of %.4g handler ms",
		tracedPolls, float64(tracedPolls)/sum(jr.tracedWall), pollHandlerMS, handlerMS)
	spans := make(map[string][]float64)
	for _, sp := range jr.traced.tracer.Spans("") {
		spans[sp.Name] = append(spans[sp.Name], ms(sp.Duration()))
	}
	r.note("tracer: %d spans kept, %d dropped", jr.traced.tracer.Len(), jr.traced.tracer.Dropped())
	r.set("jobs.queue_wait_ms_p50", r.notePercentile("jobs.queue_wait_ms_p50", spans[jobs.SpanQueueWait], 0.50))
	r.set("jobs.run_ms_p50", r.notePercentile("jobs.run_ms_p50", spans[jobs.SpanRun], 0.50))
	r.set("jobs.store_ms_p50", r.notePercentile("jobs.store_ms_p50", spans[jobs.SpanStore], 0.50))

	// The simulator layers, on the spec kinds the misses carry.
	probe := newLayerProbe()
	prng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < 4*hitPoolSize; i++ {
		hs, err := randomSpec(prng).ToHarness()
		if err != nil {
			return err
		}
		res, err := harness.SimulateAll([]harness.Spec{probe.instrument(hs)})
		if err != nil {
			return err
		}
		probe.add(res)
	}
	probe.publish(r, clockOverhead())
	if err := emuProbe(r); err != nil {
		return err
	}
	if err := memProbe(r, func(bench.Workload) int { return jobsScale }); err != nil {
		return err
	}
	hs, err := jr.plain.pool[0].spec.ToHarness()
	if err != nil {
		return err
	}
	return phaseProbeOverhead(r, hs, 20, func(s harness.Spec) error {
		_, err := harness.SimulateAll([]harness.Spec{s})
		return err
	})
}
