// Package fleet distributes the simulation job service across processes: a
// coordinator that owns the durable queue and result store and leases jobs
// out over HTTP, and a stateless worker runtime that leases, simulates, and
// streams results back.
//
// The protocol is four POSTs and one GET:
//
//	POST /lease      worker asks for up to Capacity jobs; each comes fenced
//	                 by a lease token and a TTL
//	POST /heartbeat  worker renews its leases and pushes an algebraic delta
//	                 of its local metrics registry plus per-job progress
//	POST /complete   worker returns a finished job's results, fenced by the
//	                 lease token
//	POST /fail       worker reports a failed attempt, fenced by the token
//	GET  /fleet      fleet-wide snapshot: queue state plus per-worker view
//
// Each lease response also carries the coordinator's lease TTL, heartbeat
// cadence and telemetry interval (LeaseResponse), so a worker needs no
// settings of its own that could make its results differ from the
// coordinator's: one executor, jobs.Execute, runs every job on both sides.
//
// Crash semantics reuse the queue's Park/Release machinery: a worker that
// stops heartbeating loses its leases, the coordinator requeues the jobs
// (without charging the retry budget), and the next lease hands them out
// under a fresh token. A zombie worker's late POST /complete carries the
// rotated-away token and is rejected with 409; because the store is
// content-addressed and the simulator deterministic, even a raced duplicate
// write is byte-identical and harmless.
//
// Telemetry flows worker -> coordinator as obs.WireRegistry deltas: every
// heartbeat carries the counters/histograms accumulated since the previous
// one, and the coordinator folds them into its own shared registry, so the
// usual /metrics, /series and /dash endpoints show fleet-wide state with no
// extra scrape infrastructure.
package fleet

import (
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// Metric names the coordinator publishes (fleet.*) and the workers push
// through their heartbeat deltas (fleet.worker_*). All land in the same
// exposition with the usual valuespec_ prefix.
const (
	MetricWorkersLive      = "fleet.workers_live"      // gauge: workers heartbeating within the liveness window
	MetricLeasesActive     = "fleet.leases_active"     // gauge: jobs currently leased out
	MetricLeasesGranted    = "fleet.leases_granted"    // counter: jobs handed to workers
	MetricHeartbeats       = "fleet.heartbeats"        // counter: heartbeat POSTs accepted
	MetricLeaseExpirations = "fleet.lease_expirations" // counter: leases lapsed and requeued
	MetricStaleCompletes   = "fleet.stale_completes"   // counter: zombie completes/fails rejected
	MetricRemoteCompletes  = "fleet.remote_completes"  // counter: jobs completed by workers
	MetricRemoteFailures   = "fleet.remote_failures"   // counter: worker-reported attempt failures
	MetricDeltaMerges      = "fleet.delta_merges"      // counter: heartbeat registry deltas merged

	MetricWorkerJobsDone   = "fleet.worker_jobs_done"   // counter: jobs a worker finished (pushed)
	MetricWorkerJobsFailed = "fleet.worker_jobs_failed" // counter: attempts a worker failed (pushed)
	MetricWorkerSpecsDone  = "fleet.worker_specs_done"  // counter: specs a worker simulated (pushed)
	MetricWorkerCycles     = "fleet.worker_cycles"      // counter: simulated cycles across a worker's jobs (pushed)
	MetricWorkerRunMS      = "fleet.worker_run_ms"      // histogram: per-job wall time on a worker (pushed)
)

// LeaseRequest asks the coordinator for work.
type LeaseRequest struct {
	// Worker identifies the caller; lease fencing and the /fleet view key
	// on it. Required.
	Worker string `json:"worker"`
	// Capacity caps how many jobs this call may return (the worker's free
	// run slots).
	Capacity int `json:"capacity"`
}

// LeaseResponse hands out leased jobs. Each job carries its full Request
// (the specs to run), its lease token, and its expiry; TTLMillis and
// HeartbeatMillis tell the worker the coordinator's lease length and the
// cadence it must renew at. TelemetryInterval is the coordinator's
// telemetry sampling interval in simulated cycles (0 = off): the worker
// samples the leased jobs at exactly that interval, so the results it
// returns are the bytes the coordinator would have stored itself.
type LeaseResponse struct {
	Jobs              []jobs.Job `json:"jobs"`
	TTLMillis         int64      `json:"ttl_ms"`
	HeartbeatMillis   int64      `json:"heartbeat_ms"`
	TelemetryInterval int64      `json:"telemetry_interval,omitempty"`
}

// JobProgress is one job's live progress snapshot, pushed with heartbeats.
type JobProgress struct {
	Job      string                   `json:"job"`
	Snapshot harness.ProgressSnapshot `json:"snapshot"`
}

// HeartbeatRequest renews a worker's leases and pushes its telemetry.
type HeartbeatRequest struct {
	Worker string   `json:"worker"`
	Jobs   []string `json:"jobs,omitempty"`
	// Delta is the worker's registry movement since its previous heartbeat
	// (counters and histogram buckets as differences, gauges raw); the
	// coordinator folds it into its shared registry.
	Delta obs.WireRegistry `json:"delta,omitempty"`
	// Progress carries a live snapshot per running job for the /fleet view.
	Progress []JobProgress `json:"progress,omitempty"`
}

// HeartbeatResponse tells the worker which leases were renewed. Lost lists
// the ids that were NOT renewed — expired and requeued, finished through
// another path, or cancelled — and the worker must abandon those runs.
type HeartbeatResponse struct {
	Renewed []string `json:"renewed,omitempty"`
	Lost    []string `json:"lost,omitempty"`
}

// CompleteRequest returns a finished job's results.
type CompleteRequest struct {
	Worker  string            `json:"worker"`
	Job     string            `json:"job"`
	Token   string            `json:"token"`
	Results []jobs.SpecResult `json:"results"`
	// RunMillis is the worker-measured wall time of the run, for the
	// coordinator's jobs.run_ms histogram.
	RunMillis int64 `json:"run_ms,omitempty"`
}

// FailRequest reports a failed attempt.
type FailRequest struct {
	Worker    string `json:"worker"`
	Job       string `json:"job"`
	Token     string `json:"token"`
	Error     string `json:"error"`
	RunMillis int64  `json:"run_ms,omitempty"`
}

// errorBody is the JSON error envelope, matching the jobs HTTP API.
type errorBody struct {
	Error string `json:"error"`
}
