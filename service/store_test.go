package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"patch"
	"patch/service"
)

// memCache returns a fresh memory-only cache, so restart tests can't
// accidentally pass by serving replicas out of a shared disk cache
// instead of the job store.
func memCache(t *testing.T) *service.ResultCache {
	t.Helper()
	c, err := service.NewResultCache("")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func openStore(t *testing.T, dir string) *service.JobStore {
	t.Helper()
	st, err := service.OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitForState polls until job id reaches state (or t fails). Used
// where a transition rides on a server goroutine (admission handoff,
// restored jobs finishing).
func waitForState(t *testing.T, c *service.Client, id string, state service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State == state {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, st.State, state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postClaimed runs a claimed batch and posts the results, returning
// the claimed indices.
func postClaimed(t *testing.T, c *service.Client, runner patch.Runner, batch service.ClaimBatch) []int {
	t.Helper()
	results := make([]service.ReplicaResult, 0, len(batch.Replicas))
	indices := make([]int, 0, len(batch.Replicas))
	for _, cl := range batch.Replicas {
		r, err := runner.RunReplica(cl.Config)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, service.ReplicaResult{Index: cl.Index, Result: r})
		indices = append(indices, cl.Index)
	}
	if err := c.PostResults(context.Background(), batch.Job, results); err != nil {
		t.Fatal(err)
	}
	return indices
}

// TestRestartResumesPersistedJob is the durability acceptance gate: a
// job interrupted mid-flight (server abandoned without drain, exactly
// like a crash) is reloaded from the job store by a brand-new server
// on the same data dir, resumes from the last journaled replica — the
// already-posted replicas are NOT re-claimed — and the final download
// is byte-identical to an uninterrupted local sweep.
func TestRestartResumesPersistedJob(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()
	ctx := context.Background()

	ts1 := httptest.NewServer(service.New(service.Config{
		MaxJobs: 2, Cache: memCache(t), Store: openStore(t, dir), Lease: time.Minute,
	}))
	c1 := &service.Client{Base: ts1.URL}

	st, err := c1.Submit(ctx, service.JobSpec{Matrix: m, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total < 3 {
		t.Fatalf("matrix too small for a mid-flight crash: %d replicas", st.Total)
	}

	runner := patch.NewRunner()
	defer runner.Close()
	batch, ok, err := c1.Claim(ctx, 2)
	if err != nil || !ok || len(batch.Replicas) != 2 {
		t.Fatalf("claim: %v %v %+v", ok, err, batch)
	}
	donePre := postClaimed(t, c1, runner, batch)

	// Abandon server 1 without draining: from the store's point of
	// view this is a crash with 2 of Total replicas journaled.
	ts1.Close()

	srv2 := service.New(service.Config{
		MaxJobs: 2, Cache: memCache(t), Store: openStore(t, dir), Lease: time.Minute,
	})
	n, err := srv2.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d jobs, want 1", n)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}

	st2, err := c2.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("restored job not found: %v", err)
	}
	if st2.Done != 2 || st2.Total != st.Total {
		t.Fatalf("restored job done %d/%d, want 2/%d", st2.Done, st2.Total, st.Total)
	}
	if st2.Principal != "anonymous" {
		t.Errorf("restored principal = %q", st2.Principal)
	}

	// The crashed worker's claims died with server 1: everything not
	// journaled — and nothing that was — is immediately claimable.
	batch2, ok, err := c2.Claim(ctx, st.Total)
	if err != nil || !ok {
		t.Fatalf("post-restart claim: %v %v", ok, err)
	}
	if len(batch2.Replicas) != st.Total-2 {
		t.Fatalf("post-restart claim got %d replicas, want %d", len(batch2.Replicas), st.Total-2)
	}
	for _, cl := range batch2.Replicas {
		for _, d := range donePre {
			if cl.Index == d {
				t.Fatalf("journaled replica %d was re-issued after restart", d)
			}
		}
	}
	postClaimed(t, c2, runner, batch2)

	fin := waitForState(t, c2, st.ID, service.StateDone)
	if fin.Done != fin.Total {
		t.Fatalf("resumed job done %d/%d", fin.Done, fin.Total)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("resumed CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}
}

// TestRestartRestoresTerminalJobs: a finished job survives a restart
// fully downloadable (its results come back from the journal), and a
// cancelled job comes back cancelled rather than resuming.
func TestRestartRestoresTerminalJobs(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()
	ctx := context.Background()

	ts1 := httptest.NewServer(service.New(service.Config{
		MaxJobs: 2, Workers: 2, Cache: memCache(t), Store: openStore(t, dir),
	}))
	c1 := &service.Client{Base: ts1.URL}

	done := runJob(t, c1, service.JobSpec{Matrix: m})
	if done.State != service.StateDone {
		t.Fatalf("job state %s: %s", done.State, done.Error)
	}
	// A different base seed keeps job 2 out of job 1's cache, so it
	// stays cancellable instead of completing instantly from prefill.
	m2 := m
	m2.Base.Seed = 99
	cancelled, err := c1.Submit(ctx, service.JobSpec{Matrix: m2, RemoteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Cancel(ctx, cancelled.ID); err != nil {
		t.Fatal(err)
	}
	waitForState(t, c1, cancelled.ID, service.StateCancelled)
	ts1.Close()

	store2 := openStore(t, dir)
	srv2 := service.New(service.Config{
		MaxJobs: 2, Workers: 2, Cache: memCache(t), Store: store2,
	})
	if n, err := srv2.Restore(); err != nil || n != 2 {
		t.Fatalf("restored %d jobs (err %v), want 2", n, err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}

	st, err := c2.Status(ctx, done.ID)
	if err != nil || st.State != service.StateDone || st.Done != st.Total {
		t.Fatalf("restored done job: %+v, %v", st, err)
	}
	if got := download(t, c2, done.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("restored CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}
	if st, err = c2.Status(ctx, cancelled.ID); err != nil || st.State != service.StateCancelled {
		t.Fatalf("restored cancelled job: %+v, %v", st, err)
	}

	// Deleting the finished job removes its persisted directory too.
	req, _ := http.NewRequest(http.MethodDelete, ts2.URL+"/jobs/"+done.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete finished job: %d", resp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", done.ID)); !os.IsNotExist(err) {
		t.Errorf("deleted job's store directory still present (err %v)", err)
	}
}

// TestTornJournalHeals: a journal whose final record was torn by a
// crash mid-append loses exactly that record — the job resumes, the
// replica re-runs, and the output is still byte-identical.
func TestTornJournalHeals(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()

	ts1 := httptest.NewServer(service.New(service.Config{
		MaxJobs: 2, Workers: 2, Cache: memCache(t), Store: openStore(t, dir),
	}))
	c1 := &service.Client{Base: ts1.URL}
	done := runJob(t, c1, service.JobSpec{Matrix: m})
	if done.State != service.StateDone {
		t.Fatalf("job state %s: %s", done.State, done.Error)
	}
	ts1.Close()

	// Tear the tail of the journal, as a crash mid-append would.
	journal := filepath.Join(dir, "jobs", done.ID, "results.jsonl")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	store2 := openStore(t, dir)
	srv2 := service.New(service.Config{
		MaxJobs: 2, Workers: 2, Cache: memCache(t), Store: store2,
	})
	if n, err := srv2.Restore(); err != nil || n != 1 {
		t.Fatalf("restored %d jobs (err %v), want 1", n, err)
	}
	if st := store2.Stats(); st.Dropped == 0 {
		t.Errorf("torn journal record not counted as dropped: %+v", st)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}

	// The one torn replica re-runs on the restored server's local pool;
	// everything journaled is kept.
	fin := waitForState(t, c2, done.ID, service.StateDone)
	if fin.Done != fin.Total {
		t.Fatalf("healed job done %d/%d", fin.Done, fin.Total)
	}
	if got := download(t, c2, done.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("healed CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}

	// The journal itself was truncated back to its valid prefix and
	// then re-appended; a second restore replays cleanly.
	store3 := openStore(t, dir)
	recs, err := store3.Load()
	if err != nil || len(recs) != 1 {
		t.Fatalf("reload: %d jobs, %v", len(recs), err)
	}
	if st := store3.Stats(); st.Dropped != 0 {
		t.Errorf("healed journal still drops records: %+v", st)
	}
}

// TestFIFOAdmission: with one running slot, queued jobs run in
// submission order whoever submitted them, a queued job cancelled
// before its turn is skipped, and /healthz counts only the jobs still
// waiting.
func TestFIFOAdmission(t *testing.T) {
	srv := service.New(service.Config{MaxJobs: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	spec := service.JobSpec{Matrix: smokeMatrix(), RemoteOnly: true}
	cAlice := &service.Client{Base: ts.URL, Principal: "alice"}
	cBob := &service.Client{Base: ts.URL, Principal: "bob"}

	submit := func(c *service.Client) service.JobStatus {
		st, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	queued := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Queued int `json:"queued"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Queued
	}
	cancel := func(c *service.Client, id string) {
		if err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	wantQueued := func(c *service.Client, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if st, err := c.Status(ctx, id); err != nil || st.State != service.StateQueued {
				t.Fatalf("job %s: %+v, %v; want queued", id, st, err)
			}
		}
	}

	a1 := submit(cAlice)
	gone := submit(cBob)
	a2, a3 := submit(cAlice), submit(cAlice)
	b1 := submit(cBob)
	if st := waitForState(t, cAlice, a1.ID, service.StateRunning); st.Principal != "alice" {
		t.Fatalf("a1 principal %q", st.Principal)
	}
	if n := queued(); n != 4 {
		t.Fatalf("healthz queued = %d, want 4", n)
	}
	cancel(cBob, gone.ID)
	if n := queued(); n != 3 {
		t.Fatalf("healthz queued after cancelling a queued job = %d, want 3", n)
	}

	// Fair share would run b1 before a3; FIFO runs a1, a2, a3, b1.
	cancel(cAlice, a1.ID)
	waitForState(t, cAlice, a2.ID, service.StateRunning)
	wantQueued(cAlice, a3.ID, b1.ID)
	if st, err := cBob.Status(ctx, gone.ID); err != nil || st.State != service.StateCancelled {
		t.Fatalf("cancelled queued job: %+v, %v", st, err)
	}
	cancel(cAlice, a2.ID)
	waitForState(t, cAlice, a3.ID, service.StateRunning)
	wantQueued(cBob, b1.ID)
	cancel(cAlice, a3.ID)
	if st := waitForState(t, cBob, b1.ID, service.StateRunning); st.Principal != "bob" {
		t.Fatalf("b1 principal %q", st.Principal)
	}
	if n := queued(); n != 0 {
		t.Fatalf("healthz queued with nothing waiting = %d", n)
	}
}

// TestRestoreNeverReusesSkippedIDs: Restore skips a persisted job whose
// spec no longer expands, and one whose spec.json fails its checksum,
// but the id sequence still passes both directories. A new job under
// either id would append to the old journal and, after the next
// restart, serve the old job's replicas.
func TestRestoreNeverReusesSkippedIDs(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()
	start := func(wantRestored int) *service.Client {
		t.Helper()
		srv := service.New(service.Config{Workers: 2, Cache: memCache(t), Store: openStore(t, dir)})
		if n, err := srv.Restore(); err != nil || n != wantRestored {
			t.Fatalf("restored %d jobs (err %v), want %d", n, err, wantRestored)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return &service.Client{Base: ts.URL}
	}

	// Two finished jobs of another matrix leave full journals behind.
	other := m
	other.Base.Seed = 99
	c1 := start(0)
	skipped := []string{
		runJob(t, c1, service.JobSpec{Matrix: other}).ID,
		runJob(t, c1, service.JobSpec{Matrix: other}).ID,
	}

	// The first spec names an adjust transform this build does not
	// register, under a valid checksum; the second fails its checksum.
	specPath := func(id string) string { return filepath.Join(dir, "jobs", id, "spec.json") }
	raw, err := os.ReadFile(specPath(skipped[0]))
	if err != nil {
		t.Fatal(err)
	}
	_, payload, _ := strings.Cut(string(raw), "\n")
	payload = strings.Replace(payload, `"matrix":{`, `"matrix":{"adjust":"no-such",`, 1)
	sum := sha256.Sum256([]byte(payload))
	if err := os.WriteFile(specPath(skipped[0]), []byte("sha256:"+hex.EncodeToString(sum[:])+"\n"+payload), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(specPath(skipped[1]))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01
	if err := os.WriteFile(specPath(skipped[1]), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := start(0)
	var fresh []string
	for range skipped {
		id := runJob(t, c2, service.JobSpec{Matrix: m}).ID
		if slices.Contains(skipped, id) {
			t.Errorf("new job took the skipped id %s", id)
		}
		fresh = append(fresh, id)
	}

	c3 := start(len(fresh))
	for _, id := range fresh {
		if got := download(t, c3, id, "csv"); !bytes.Equal(got, want) {
			t.Errorf("job %s after restart differs from local sweep:\n got: %q\nwant: %q", id, got, want)
		}
	}
	// Re-admitted jobs keep their ids too.
	if id := runJob(t, c3, service.JobSpec{Matrix: m}).ID; slices.Contains(slices.Concat(skipped, fresh), id) {
		t.Errorf("new job took the persisted id %s", id)
	}
}

// TestTokenAuth: with Config.Token set, the mutating endpoints demand
// the bearer token (401 without), while reads and health stay open.
func TestTokenAuth(t *testing.T) {
	const token = "farm-secret"
	srv := service.New(service.Config{MaxJobs: 1, Workers: 2, Token: token, Cache: memCache(t)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	m := smokeMatrix()

	status := func(method, path, tok string) int {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusUnauthorized {
			if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
				t.Errorf("%s %s: 401 without WWW-Authenticate (got %q)", method, path, got)
			}
		}
		return resp.StatusCode
	}

	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/jobs"},
		{http.MethodPost, "/claim"},
		{http.MethodPost, "/jobs/job-1/results"},
		{http.MethodPost, "/jobs/job-1/heartbeat"},
		{http.MethodDelete, "/jobs/job-1"},
	} {
		if got := status(tc.method, tc.path, ""); got != http.StatusUnauthorized {
			t.Errorf("%s %s without token: %d, want 401", tc.method, tc.path, got)
		}
		if got := status(tc.method, tc.path, "wrong-"+token); got != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token: %d, want 401", tc.method, tc.path, got)
		}
	}
	// Reads and health never require the token.
	for _, path := range []string{"/jobs", "/healthz"} {
		if got := status(http.MethodGet, path, ""); got != http.StatusOK {
			t.Errorf("GET %s without token: %d, want 200", path, got)
		}
	}

	// An authenticated client works end to end, and the result stays
	// readable without credentials.
	c := &service.Client{Base: ts.URL, Token: token, Principal: "alice"}
	st := runJob(t, c, service.JobSpec{Matrix: m})
	if st.State != service.StateDone {
		t.Fatalf("authed job state %s: %s", st.State, st.Error)
	}
	if st.Principal != "alice" {
		t.Errorf("authed job principal %q", st.Principal)
	}
	want := localCSV(t, m)
	if got := download(t, &service.Client{Base: ts.URL}, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("served CSV differs from local sweep")
	}
}
