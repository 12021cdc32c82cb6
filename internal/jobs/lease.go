package jobs

import (
	"errors"
	"fmt"
	"time"

	"valuespec/internal/obs"
)

// Service-level lease orchestration: the coordinator side of the fleet
// protocol (internal/fleet wraps these in HTTP). The queue owns the lease
// state machine; the service adds the same metrics, spans and logs the local
// worker path gets, so a job's timeline reads identically whether it ran in
// process or on a remote worker.

// LeaseJobs leases up to max pending jobs to worker for ttl, charging one
// attempt each — the remote analogue of Pop.
func (s *Service) LeaseJobs(worker string, max int, ttl time.Duration) ([]Job, error) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return nil, errors.New("jobs: service is shutting down")
	}
	leased, err := s.queue.Lease(worker, max, ttl)
	if err != nil {
		return leased, err
	}
	for _, job := range leased {
		if job.Attempts == 1 {
			s.observe(MetricQueueWaitMS, job.StartedAt.Sub(job.SubmittedAt).Milliseconds())
			s.cfg.Tracer.Emit(job.ID, SpanQueueWait, job.SubmittedAt, job.StartedAt,
				obs.SpanAttr{Key: "spec_hash", Value: job.SpecHash})
		}
		s.cfg.Logger.Info("job leased",
			"job", job.ID, "spec_hash", job.SpecHash,
			"worker", worker, "attempt", job.Attempts, "expires", job.LeaseExpiry)
	}
	if len(leased) > 0 {
		s.publish()
	}
	return leased, nil
}

// RenewLeases extends worker's leases on ids by ttl and returns the subset
// actually renewed; the rest are lost (expired and requeued, finished, or
// cancelled) and the worker should abandon them.
func (s *Service) RenewLeases(worker string, ids []string, ttl time.Duration) []string {
	return s.queue.Heartbeat(worker, ids, ttl)
}

// ExpireLeases requeues every lease that lapsed before now and returns the
// requeued jobs; the coordinator's scanner calls it periodically.
func (s *Service) ExpireLeases(now time.Time) []Job {
	requeued := s.queue.ExpireLeases(now)
	for _, job := range requeued {
		s.cfg.Logger.Warn("lease expired, job requeued",
			"job", job.ID, "spec_hash", job.SpecHash, "err", job.Error)
	}
	if len(requeued) > 0 {
		s.publish()
	}
	return requeued
}

// Leased counts jobs currently out under a worker lease.
func (s *Service) Leased() int { return s.queue.Leased() }

// ValidateLease cheaply checks that token still fences id, without mutating
// anything; completion paths use it to reject obvious zombies before doing
// any work. The authoritative check is the atomic one inside CompleteLeased
// and FailLeased.
func (s *Service) ValidateLease(id, token string) error {
	return s.queue.ValidateLease(id, token)
}

// CompleteLeased stores the worker-computed results and marks the job done,
// fenced by the lease token: a stale token (the lease expired and the job
// was requeued, or was completed through another path) returns ErrStaleLease
// and the results are discarded. The store write happens first — it is
// content-addressed and the simulator deterministic, so even a raced write
// is byte-identical and idempotent.
func (s *Service) CompleteLeased(id, token string, results []SpecResult) (Job, error) {
	job, ok := s.queue.Get(id)
	if !ok {
		return Job{}, fmt.Errorf("jobs: unknown job %q", id)
	}
	if err := s.queue.ValidateLease(id, token); err != nil {
		return job, err
	}
	if len(results) != len(job.Request.Specs) {
		return job, fmt.Errorf("jobs: worker returned %d results for %d specs", len(results), len(job.Request.Specs))
	}
	rs := &ResultSet{SpecHash: job.SpecHash, Results: results}
	st := s.cfg.Tracer.Start(job.ID, SpanStore)
	st.Attr("spec_hash", job.SpecHash)
	err := s.store.Put(rs)
	st.End()
	if err != nil {
		return job, err
	}
	// Count before the job turns terminal, as the in-process path does,
	// and withdraw the count if the lease was lost in the meantime.
	s.count(MetricCompleted, 1)
	done, err := s.queue.CompleteLease(id, token)
	if err != nil {
		s.count(MetricCompleted, -1)
		return done, err
	}
	s.publish()
	s.finishJob(done, "done")
	s.cfg.Logger.Info("job done",
		"job", done.ID, "spec_hash", done.SpecHash,
		"attempt", done.Attempts, "remote", true)
	return done, nil
}

// FailLeased records a worker-reported failure, fenced by the lease token,
// and routes the job through the service's usual retry machinery: park +
// backoff while the retry budget lasts, failed for good after.
func (s *Service) FailLeased(id, token string, cause error) (Job, error) {
	if cause == nil {
		cause = errors.New("jobs: worker reported failure")
	}
	job, err := s.queue.ParkLease(id, token, cause)
	if err != nil {
		return job, err
	}
	s.count(MetricAttemptErrors, 1)
	s.settleFailure(job, cause)
	settled, _ := s.queue.Get(id)
	return settled, nil
}
