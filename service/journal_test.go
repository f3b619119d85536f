package service_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"patch"
	"patch/service"
)

// journalResult is a replica result with every field of a real one
// set, its traffic map included.
func journalResult(i int) *patch.Result {
	return &patch.Result{
		Cycles: uint64(1000 + i), Misses: 17, BytesPerMiss: 72.5, AvgMissLatency: 211.25,
		TrafficByClass:        map[string]uint64{"Data": 4096, "Ack": 512, "Direct": uint64(i)},
		DroppedDirectRequests: 3, SharingMisses: 9, MemoryMisses: 8, TenureTimeouts: 1,
	}
}

// savedJob persists a one-replica job spec under id, so Load reads its
// journal back.
func savedJob(t *testing.T, st *service.JobStore, id string, seq int) {
	t.Helper()
	m := patch.Matrix{Base: patch.Config{Cores: 8, Workload: "micro", OpsPerCore: 10, SkipChecks: true}}
	if err := st.SaveSpec(id, seq, "", service.JobSpec{Matrix: m}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalLineFormat pins the journal's line format: one line per
// record, "sha256:<hex of payload> <payload>\n", where payload is the
// JSON of the ReplicaResult.
func TestJournalLineFormat(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	savedJob(t, st, "job-1", 1)
	var want []byte
	for _, i := range []int{2, 0, 1} {
		r := journalResult(i)
		if err := st.AppendResult("job-1", i, r); err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(service.ReplicaResult{Index: i, Result: r})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		want = append(want, "sha256:"+hex.EncodeToString(sum[:])+" "+string(payload)+"\n"...)
	}
	got, err := os.ReadFile(filepath.Join(dir, "jobs", "job-1", "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("journal bytes:\n got: %q\nwant: %q", got, want)
	}
}

// TestJournalUnbuffered: every append is on disk when AppendResult
// returns, while the store still holds the journal open, so a second
// store on the same directory reads back exactly the records appended
// so far.
func TestJournalUnbuffered(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	savedJob(t, st, "job-1", 1)
	for k := 1; k <= 5; k++ {
		if err := st.AppendResult("job-1", k-1, journalResult(k)); err != nil {
			t.Fatal(err)
		}
		if n := service.OpenJournals(st); n != 1 {
			t.Fatalf("store holds %d open journals, want 1", n)
		}
		recs, err := openStore(t, dir).Load()
		if err != nil || len(recs) != 1 {
			t.Fatalf("second store loaded %d jobs (err %v), want 1", len(recs), err)
		}
		if got := len(recs[0].Results); got != k {
			t.Fatalf("after %d appends a second store reads %d records", k, got)
		}
	}
}

// TestFailedAppendReopens: a write that fails is counted, releases the
// journal, and the next append opens it again and succeeds. The first
// write goes to /dev/full through a symlink standing in for the
// journal, so it fails with ENOSPC as a full disk would fail it.
func TestFailedAppendReopens(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	savedJob(t, st, "job-1", 1)
	journal := filepath.Join(dir, "jobs", "job-1", "results.jsonl")
	if err := os.Symlink("/dev/full", journal); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendResult("job-1", 0, journalResult(0)); err == nil {
		t.Fatal("append to a full device succeeded")
	}
	if s := st.Stats(); s.WriteErrors != 1 || s.Records != 0 {
		t.Errorf("after a failed append: %+v, want 1 write error and 0 records", s)
	}
	if n := service.OpenJournals(st); n != 0 {
		t.Errorf("failed append left %d journals open", n)
	}
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := st.AppendResult("job-1", i, journalResult(i)); err != nil {
			t.Fatalf("append %d after the failed one: %v", i, err)
		}
	}
	recs, err := openStore(t, dir).Load()
	if err != nil || len(recs) != 1 || len(recs[0].Results) != 2 {
		t.Fatalf("reload after recovery: %+v, %v; want one job with 2 records", recs, err)
	}
}

// scriptedRunner simulates every replica but two seeds: failSeed fails
// at once, and holdSeed waits until its job is cancelled.
type scriptedRunner struct {
	patch.Runner
	ctx                context.Context
	failSeed, holdSeed int64
}

func (r *scriptedRunner) RunReplica(cfg patch.Config) (*patch.Result, error) {
	switch cfg.Seed {
	case r.failSeed:
		return nil, errors.New("injected replica failure")
	case r.holdSeed:
		<-r.ctx.Done()
		return nil, r.ctx.Err()
	}
	return r.Runner.RunReplica(cfg)
}

// TestJournalsReleased: a job's journal is open while it runs and
// released once its sweep returns, whether it ends done, failed or
// cancelled, so after Drain the store holds none. Each job journals
// its first replica before it ends.
func TestJournalsReleased(t *testing.T) {
	store := openStore(t, t.TempDir())
	srv := service.New(service.Config{MaxJobs: 3, Workers: 1, Cache: memCache(t), Store: store})
	service.SetRunnerFactory(srv, func(ctx context.Context) patch.Runner {
		return &scriptedRunner{Runner: patch.NewRunner(), ctx: ctx, failSeed: 101, holdSeed: 201}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()
	spec := func(seed int64) service.JobSpec {
		m := smokeMatrix()
		m.Base.Seed = seed
		return service.JobSpec{Matrix: m}
	}

	if st := runJob(t, c, spec(1)); st.State != service.StateDone {
		t.Fatalf("job ended %s, want done", st.State)
	}
	failed, err := c.Submit(ctx, spec(100))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitForState(t, c, failed.ID, service.StateFailed); st.Done != 1 {
		t.Fatalf("failed job has %d done, want 1", st.Done)
	}
	held, err := c.Submit(ctx, spec(200))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, c, held.ID, "1 replica done", func(st service.JobStatus) bool { return st.Done == 1 })
	if n := service.OpenJournals(store); n < 1 {
		t.Errorf("running job's journal is not open (%d open)", n)
	}
	if err := c.Cancel(ctx, held.ID); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if n := service.OpenJournals(store); n != 0 {
		t.Errorf("after drain the store holds %d open journals, want 0", n)
	}
	if s := store.Stats(); s.Records != 4+1+1 || s.WriteErrors != 0 {
		t.Errorf("store stats %+v, want 6 records and no write errors", s)
	}
}

// TestDeleteReleasesJournal: deleting a job whose journal is open
// closes it along with removing the job's directory.
func TestDeleteReleasesJournal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	savedJob(t, st, "job-1", 1)
	if err := st.AppendResult("job-1", 0, journalResult(0)); err != nil {
		t.Fatal(err)
	}
	if n := service.OpenJournals(st); n != 1 {
		t.Fatalf("%d journals open after an append, want 1", n)
	}
	if err := st.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if n := service.OpenJournals(st); n != 0 {
		t.Errorf("%d journals open after Delete, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "job-1")); !os.IsNotExist(err) {
		t.Errorf("deleted job's directory still present (err %v)", err)
	}
}

// countedRunner simulates one replica per token it takes from tokens,
// or fails the replica once its job is cancelled.
type countedRunner struct {
	patch.Runner
	ctx    context.Context
	tokens chan struct{}
}

func (r *countedRunner) RunReplica(cfg patch.Config) (*patch.Result, error) {
	select {
	case <-r.tokens:
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	}
	return r.Runner.RunReplica(cfg)
}

// TestProgressStreamKeepsUp: a streaming client sees each event as it
// lands, not when the stream ends: a job held after k replicas has
// delivered the snapshot and k replica events while it is still held.
func TestProgressStreamKeepsUp(t *testing.T) {
	const k = 3
	m := smokeMatrix()
	m.Seeds = 3
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumReplicas() <= k {
		t.Fatalf("job of %d replicas cannot be held after %d", plan.NumReplicas(), k)
	}
	tokens := make(chan struct{}, plan.NumReplicas())
	srv := service.New(service.Config{Workers: 1, Cache: memCache(t)})
	service.SetRunnerFactory(srv, func(ctx context.Context) patch.Runner {
		return &countedRunner{Runner: patch.NewRunner(), ctx: ctx, tokens: tokens}
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}

	// On a failure, the stream and the held job end before ts.Close
	// waits for the stream's handler.
	sctx, stopStream := context.WithCancel(ctx)
	defer func() {
		stopStream()
		_ = c.Cancel(ctx, st.ID)
	}()
	events := make(chan service.ProgressEvent, st.Total+2)
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Progress(sctx, st.ID, func(ev service.ProgressEvent) bool {
			events <- ev
			return true
		})
	}()
	next := func(what string) service.ProgressEvent {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("no %s reached the streaming client", what)
		}
		return service.ProgressEvent{}
	}
	if ev := next("snapshot"); ev.State != service.StateRunning || ev.Done != 0 {
		t.Fatalf("snapshot = %+v", ev)
	}
	for i := 1; i <= k; i++ {
		tokens <- struct{}{}
		if ev := next("replica event"); ev.Done != i || ev.State != "" {
			t.Fatalf("replica event %d = %+v", i, ev)
		}
	}
	if now, err := c.Status(ctx, st.ID); err != nil || now.Done != k || now.State != service.StateRunning {
		t.Fatalf("held job: %+v, %v; want running with %d done", now, err, k)
	}

	for i := k; i < st.Total; i++ {
		tokens <- struct{}{}
	}
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}
	close(events)
	var last service.ProgressEvent
	n := 0
	for ev := range events {
		last = ev
		n++
	}
	if n != st.Total-k+1 || last.State != service.StateDone || last.Done != st.Total {
		t.Errorf("after release: %d more events ending %+v; want %d ending done", n, last, st.Total-k+1)
	}
}
