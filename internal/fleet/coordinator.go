package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// Default protocol timings when CoordinatorConfig leaves them zero. The
// lease TTL is deliberately several heartbeats long: one dropped heartbeat
// must not requeue work a healthy worker is mid-way through.
const (
	DefaultLeaseTTL  = 15 * time.Second
	DefaultHeartbeat = 2 * time.Second
)

// CoordinatorConfig wires a Coordinator to the job service it fronts.
type CoordinatorConfig struct {
	// Service owns the durable queue and result store. Required.
	Service *jobs.Service
	// Metrics receives the fleet.* counters/gauges and every worker's
	// heartbeat delta; nil disables both.
	Metrics *obs.SharedRegistry
	// LeaseTTL is how long a lease lives between renewals; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Heartbeat is the renewal cadence advertised to workers; 0 means
	// DefaultHeartbeat. It should be several times shorter than LeaseTTL.
	Heartbeat time.Duration
	// ExpiryScan is how often the coordinator sweeps for lapsed leases; 0
	// means LeaseTTL/4.
	ExpiryScan time.Duration
	// WorkerTimeout is how long after its last heartbeat a worker still
	// counts as live in /fleet; 0 means 2×LeaseTTL.
	WorkerTimeout time.Duration
	// Logger receives fleet lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// workerState is the coordinator's volatile view of one worker.
type workerState struct {
	lastSeen time.Time
	leased   map[string]bool
	progress map[string]harness.ProgressSnapshot
}

// Coordinator serves the lease protocol over the job service. Create with
// NewCoordinator, mount Handler, Start the expiry scanner, Close to stop.
type Coordinator struct {
	cfg CoordinatorConfig
	mux *http.ServeMux

	mu      sync.Mutex
	workers map[string]*workerState

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator over cfg.Service.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.ExpiryScan <= 0 {
		cfg.ExpiryScan = cfg.LeaseTTL / 4
	}
	if cfg.WorkerTimeout <= 0 {
		cfg.WorkerTimeout = 2 * cfg.LeaseTTL
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		workers: make(map[string]*workerState),
		stop:    make(chan struct{}),
	}
	c.mux.HandleFunc("POST /lease", c.handleLease)
	c.mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /complete", c.handleComplete)
	c.mux.HandleFunc("POST /fail", c.handleFail)
	c.mux.HandleFunc("GET /fleet", c.handleFleet)
	if cfg.Metrics != nil {
		// Register the full fleet metric set up front so the exposition
		// carries it (at zero) from the first scrape.
		cfg.Metrics.Do(func(r *obs.Registry) {
			r.Gauge(MetricWorkersLive)
			r.Gauge(MetricLeasesActive)
			for _, name := range []string{
				MetricLeasesGranted, MetricHeartbeats, MetricLeaseExpirations,
				MetricStaleCompletes, MetricRemoteCompletes, MetricRemoteFailures,
				MetricDeltaMerges,
			} {
				r.Counter(name)
			}
		})
	}
	return c
}

// Handler returns the protocol routes (/lease, /heartbeat, /complete,
// /fail, /fleet), rooted and ready to mount.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Start launches the lease-expiry scanner.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ExpiryScan)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.scanExpiry()
			}
		}
	}()
}

// Close stops the scanner. The mounted handler keeps answering (returning
// errors for leases) until the owning HTTP server shuts down.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// scanExpiry requeues lapsed leases and forgets workers that have been
// silent past the liveness window.
func (c *Coordinator) scanExpiry() {
	requeued := c.cfg.Service.ExpireLeases(time.Now().UTC())
	c.mu.Lock()
	for _, j := range requeued {
		for _, w := range c.workers {
			delete(w.leased, j.ID)
			delete(w.progress, j.ID)
		}
	}
	cutoff := time.Now().Add(-c.cfg.WorkerTimeout)
	for id, w := range c.workers {
		if w.lastSeen.Before(cutoff) && len(w.leased) == 0 {
			delete(c.workers, id)
		}
	}
	c.mu.Unlock()
	if n := len(requeued); n > 0 {
		c.count(MetricLeaseExpirations, int64(n))
	}
	c.publishGauges()
}

// touch records a worker heartbeat/contact and returns its state.
// Caller holds c.mu.
func (c *Coordinator) touchLocked(worker string) *workerState {
	w := c.workers[worker]
	if w == nil {
		w = &workerState{
			leased:   make(map[string]bool),
			progress: make(map[string]harness.ProgressSnapshot),
		}
		c.workers[worker] = w
	}
	w.lastSeen = time.Now()
	return w
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding lease request: %w", err))
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, errors.New("lease request has no worker id"))
		return
	}
	if req.Capacity <= 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("lease capacity %d", req.Capacity))
		return
	}
	leased, err := c.cfg.Service.LeaseJobs(req.Worker, req.Capacity, c.cfg.LeaseTTL)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	c.mu.Lock()
	ws := c.touchLocked(req.Worker)
	for _, j := range leased {
		ws.leased[j.ID] = true
	}
	c.mu.Unlock()
	if n := len(leased); n > 0 {
		c.count(MetricLeasesGranted, int64(n))
	}
	c.publishGauges()
	writeJSON(w, http.StatusOK, LeaseResponse{
		Jobs:              leased,
		TTLMillis:         c.cfg.LeaseTTL.Milliseconds(),
		HeartbeatMillis:   c.cfg.Heartbeat.Milliseconds(),
		TelemetryInterval: c.cfg.Service.TelemetryInterval(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding heartbeat: %w", err))
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, errors.New("heartbeat has no worker id"))
		return
	}
	renewed := c.cfg.Service.RenewLeases(req.Worker, req.Jobs, c.cfg.LeaseTTL)
	kept := make(map[string]bool, len(renewed))
	for _, id := range renewed {
		kept[id] = true
	}
	var lost []string
	for _, id := range req.Jobs {
		if !kept[id] {
			lost = append(lost, id)
		}
	}
	c.mu.Lock()
	ws := c.touchLocked(req.Worker)
	for _, id := range lost {
		delete(ws.leased, id)
		delete(ws.progress, id)
	}
	for _, p := range req.Progress {
		if kept[p.Job] {
			ws.progress[p.Job] = p.Snapshot
		}
	}
	c.mu.Unlock()
	c.count(MetricHeartbeats, 1)
	if c.cfg.Metrics != nil && !req.Delta.Empty() {
		c.cfg.Metrics.Apply(req.Delta)
		c.count(MetricDeltaMerges, 1)
	}
	c.publishGauges()
	writeJSON(w, http.StatusOK, HeartbeatResponse{Renewed: renewed, Lost: lost})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding complete: %w", err))
		return
	}
	job, err := c.cfg.Service.CompleteLeased(req.Job, req.Token, req.Results)
	if err != nil {
		c.settleError(w, "complete", req.Worker, req.Job, err)
		return
	}
	c.forget(req.Worker, req.Job)
	c.count(MetricRemoteCompletes, 1)
	if req.RunMillis > 0 && c.cfg.Metrics != nil {
		c.cfg.Metrics.Observe(jobs.MetricRunMS, req.RunMillis)
	}
	c.publishGauges()
	writeJSON(w, http.StatusOK, job)
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	var req FailRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding fail: %w", err))
		return
	}
	job, err := c.cfg.Service.FailLeased(req.Job, req.Token, errors.New(req.Error))
	if err != nil {
		c.settleError(w, "fail", req.Worker, req.Job, err)
		return
	}
	c.forget(req.Worker, req.Job)
	c.count(MetricRemoteFailures, 1)
	c.publishGauges()
	writeJSON(w, http.StatusOK, job)
}

// settleError maps a completion-path error to its status: a stale lease is
// the fence doing its job (409, counted), anything else a server error.
func (c *Coordinator) settleError(w http.ResponseWriter, op, worker, job string, err error) {
	if errors.Is(err, jobs.ErrStaleLease) {
		c.count(MetricStaleCompletes, 1)
		c.cfg.Logger.Warn("stale lease rejected",
			"op", op, "worker", worker, "job", job, "err", err)
		httpError(w, http.StatusConflict, err)
		return
	}
	httpError(w, http.StatusInternalServerError, err)
}

// forget drops a settled job from its worker's live view.
func (c *Coordinator) forget(worker, job string) {
	c.mu.Lock()
	if ws := c.workers[worker]; ws != nil {
		delete(ws.leased, job)
		delete(ws.progress, job)
		ws.lastSeen = time.Now()
	}
	c.mu.Unlock()
}

// WorkerView is one worker's row in the /fleet snapshot.
type WorkerView struct {
	ID            string        `json:"id"`
	LastSeenMSAgo int64         `json:"last_seen_ms_ago"`
	Live          bool          `json:"live"`
	Leased        []string      `json:"leased,omitempty"`
	Progress      []JobProgress `json:"progress,omitempty"`
}

// FleetSnapshot is the fleet-wide live picture: the service snapshot plus
// one row per known worker.
type FleetSnapshot struct {
	jobs.Snapshot
	Workers []WorkerView `json:"workers"`
}

// Snapshot returns the current fleet view; obsweb's /progress can serve it
// directly.
func (c *Coordinator) Snapshot() FleetSnapshot {
	snap := FleetSnapshot{Snapshot: c.cfg.Service.Snapshot()}
	now := time.Now()
	cutoff := now.Add(-c.cfg.WorkerTimeout)
	c.mu.Lock()
	for id, ws := range c.workers {
		wv := WorkerView{
			ID:            id,
			LastSeenMSAgo: now.Sub(ws.lastSeen).Milliseconds(),
			Live:          ws.lastSeen.After(cutoff),
		}
		for jid := range ws.leased {
			wv.Leased = append(wv.Leased, jid)
		}
		sort.Strings(wv.Leased)
		for _, jid := range wv.Leased {
			if p, ok := ws.progress[jid]; ok {
				wv.Progress = append(wv.Progress, JobProgress{Job: jid, Snapshot: p})
			}
		}
		snap.Workers = append(snap.Workers, wv)
	}
	c.mu.Unlock()
	sort.Slice(snap.Workers, func(i, k int) bool { return snap.Workers[i].ID < snap.Workers[k].ID })
	return snap
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Snapshot())
}

func (c *Coordinator) count(name string, n int64) {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Add(name, n)
	}
}

// publishGauges refreshes the fleet gauges from live state.
func (c *Coordinator) publishGauges() {
	if c.cfg.Metrics == nil {
		return
	}
	cutoff := time.Now().Add(-c.cfg.WorkerTimeout)
	live := 0
	c.mu.Lock()
	for _, ws := range c.workers {
		if ws.lastSeen.After(cutoff) {
			live++
		}
	}
	c.mu.Unlock()
	c.cfg.Metrics.SetGauge(MetricWorkersLive, float64(live))
	c.cfg.Metrics.SetGauge(MetricLeasesActive, float64(c.cfg.Service.Leased()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}
