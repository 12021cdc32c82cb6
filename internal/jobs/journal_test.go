package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestJournalGroupCommit pins the Θ(commits) coalescing claim: N concurrent
// durable submissions must complete in far fewer fsync batches than N,
// because every record staged during a commit interval (or an in-flight
// fsync) rides the same batch. An explicit interval makes the staging
// window deterministic — with interval 0 the coalescing degree depends on
// fsync latency vs goroutine scheduling and can legitimately hit 1 on a
// single-CPU machine with a fast disk.
func TestJournalGroupCommit(t *testing.T) {
	q, err := OpenQueueCommit(t.TempDir(), 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := testRequest(fmt.Sprintf("j%d", i), 0)
			if _, err := q.Submit(req, hashFor(t, req)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	commits := q.Commits()
	if commits == 0 {
		t.Fatal("no group commits ran")
	}
	if commits >= n {
		t.Errorf("%d submissions took %d commits; group commit should coalesce", n, commits)
	}
	t.Logf("%d durable submissions in %d group commits", n, commits)
}

// TestJournalTornTail: a crash mid-append leaves a partial last line; the
// next open must replay every complete record, truncate the torn tail, and
// keep appending cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	reqA, reqB := testRequest("a", 0), testRequest("b", 0)
	ja, _ := q.Submit(reqA, hashFor(t, reqA))
	jb, _ := q.Submit(reqB, hashFor(t, reqB))
	q.Close()

	// Tear the tail: append half a record.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"j9999`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, _ := os.Stat(path)

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if _, ok := q2.Get(ja.ID); !ok {
		t.Errorf("job %s lost to the torn tail", ja.ID)
	}
	if _, ok := q2.Get(jb.ID); !ok {
		t.Errorf("job %s lost to the torn tail", jb.ID)
	}
	if q2.Len() != 2 {
		t.Errorf("recovered %d jobs, want 2", q2.Len())
	}
	// The torn bytes are gone and a new submission appends a valid record.
	req := testRequest("c", 0)
	jc, err := q2.Submit(req, hashFor(t, req))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := os.Stat(path)
	if clean.Size() >= torn.Size() && q2.Len() != 3 {
		t.Errorf("torn tail not truncated (size %d -> %d)", torn.Size(), clean.Size())
	}
	q2.Close()

	q3, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if _, ok := q3.Get(jc.ID); !ok {
		t.Errorf("post-truncation record %s did not survive a reopen", jc.ID)
	}
}

// TestJournalCompaction: once the journal outgrows the live job set, the
// committer rewrites it to one record per job, and the compacted journal
// replays to the identical state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Each job here costs 5 records (submit, pop, park, pop, complete),
	// so the journal outgrows the live set by more than compactFactor and
	// crosses compactMinRecords with ~compactMinRecords/5 jobs.
	const jobsN = compactMinRecords/5 + 16
	for i := 0; i < jobsN; i++ {
		req := testRequest(fmt.Sprintf("c%d", i), 0)
		j, err := q.Submit(req, hashFor(t, req))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
		if _, err := q.Park(j.ID, fmt.Errorf("churn")); err != nil {
			t.Fatal(err)
		}
		q.Release(j.ID)
		if _, ok := q.Pop(); !ok {
			t.Fatal("pop failed")
		}
		if _, err := q.Complete(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Compaction runs on the committer; give it a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for q.journal.Records() > uint64(2*jobsN) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	records := q.journal.Records()
	if records > uint64(2*jobsN) {
		t.Errorf("journal holds %d records for %d jobs; compaction never ran", records, jobsN)
	}
	before := q.List()
	q.Close()

	q2, err := OpenQueue(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	after := q2.List()
	if len(after) != len(before) {
		t.Fatalf("compacted journal replayed %d jobs, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].ID != after[i].ID || before[i].State != after[i].State || before[i].Attempts != after[i].Attempts {
			t.Errorf("job %s diverged across compaction+replay: %+v != %+v", before[i].ID, before[i], after[i])
		}
	}
}
