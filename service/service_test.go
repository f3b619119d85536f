package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patch"
	"patch/service"
)

// smokeMatrix is the shared end-to-end workload: 2 cells x 2 seeds of
// real (small) simulations, so byte-identity checks exercise the full
// simulate-summarise-emit pipeline.
func smokeMatrix() patch.Matrix {
	return patch.Matrix{
		Base: patch.Config{
			Cores: 8, Workload: "micro", OpsPerCore: 60, WarmupOps: 40,
			Seed: 1, SkipChecks: true,
		},
		Protocols: []patch.ProtoVariant{
			{Protocol: patch.Directory},
			{Protocol: patch.PATCH, Variant: patch.VariantAll},
		},
		Seeds: 2,
	}
}

// localCSV is the reference output: the same matrix through an
// in-process Sweep with a CSV emitter. Every served download must be
// byte-identical to this.
func localCSV(t *testing.T, m patch.Matrix) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := patch.Sweep(context.Background(), m, patch.EmitTo(&patch.CSVEmitter{W: &buf})); err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	return buf.Bytes()
}

func runJob(t *testing.T, c *service.Client, spec service.JobSpec) service.JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

// fakeClock is the injected time source for eviction tests: access
// order is driven by Advance, never by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func download(t *testing.T, c *service.Client, id, format string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Result(context.Background(), id, format, &buf); err != nil {
		t.Fatalf("download %s: %v", format, err)
	}
	return buf.Bytes()
}

// followStream follows job id's progress stream on its own goroutine
// and returns once the stream is live (its snapshot event arrived).
// final waits for the stream to end and returns its last event.
func followStream(t *testing.T, c *service.Client, id string) (final func() service.ProgressEvent) {
	t.Helper()
	var ev service.ProgressEvent
	started := make(chan struct{})
	done := make(chan error, 1)
	var once sync.Once
	go func() {
		done <- c.Progress(context.Background(), id, func(e service.ProgressEvent) bool {
			ev = e
			once.Do(func() { close(started) })
			return true
		})
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("progress stream of %s ended before its first event: %v", id, err)
	}
	return func() service.ProgressEvent {
		t.Helper()
		if err := <-done; err != nil {
			t.Fatalf("progress stream of %s: %v", id, err)
		}
		return ev
	}
}

// gate holds jobs mid-run. Installed on a server by hold, it lets the
// first pass replicas that reach the simulator through and holds each
// later one until release is closed, or until the replica's job is
// cancelled, which fails the replica unless finish is set: then it
// runs to its result, as a simulation already under way would. sims
// counts the replicas simulated.
type gate struct {
	pass    int64
	finish  bool
	release chan struct{}
	arrived atomic.Int64
	sims    atomic.Int64
}

// hold installs a gate on srv; call it before srv runs any job.
func hold(srv *service.Server, pass int) *gate {
	g := &gate{pass: int64(pass), release: make(chan struct{})}
	service.SetRunnerFactory(srv, func(ctx context.Context) patch.Runner {
		return &heldRunner{Runner: patch.NewRunner(), g: g, ctx: ctx}
	})
	return g
}

// heldRunner is a real simulator behind a gate; ctx is its job's.
type heldRunner struct {
	patch.Runner
	g   *gate
	ctx context.Context
}

func (r *heldRunner) RunReplica(cfg patch.Config) (*patch.Result, error) {
	if r.g.arrived.Add(1) > r.g.pass {
		select {
		case <-r.g.release:
		case <-r.ctx.Done():
			if !r.g.finish {
				return nil, r.ctx.Err()
			}
		}
	}
	r.g.sims.Add(1)
	return r.Runner.RunReplica(cfg)
}

// TestServedSweepMatchesLocal is the acceptance gate: the CSV served
// by the service is byte-identical to a local Sweep of the same matrix
// on a cold cache and on a warm one (including across a server restart
// on the same disk cache), and so is the JSON.
func TestServedSweepMatchesLocal(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()
	ctx := context.Background()

	cache1, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(service.New(service.Config{Workers: 2, Cache: cache1}))
	defer ts1.Close()
	c1 := &service.Client{Base: ts1.URL}

	// Cold cache: every replica is simulated.
	st := runJob(t, c1, service.JobSpec{Matrix: m})
	if st.CacheHits != 0 {
		t.Errorf("cold run reported %d cache hits", st.CacheHits)
	}
	if got := download(t, c1, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("cold served CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}

	// Warm cache, same server: every replica is a hit.
	st = runJob(t, c1, service.JobSpec{Matrix: m})
	if st.CacheHits != st.Total {
		t.Errorf("warm run: %d/%d cache hits", st.CacheHits, st.Total)
	}
	if got := download(t, c1, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("warm served CSV differs from local sweep")
	}

	// Server restart: a fresh process-equivalent on the same cache
	// directory must hit on every replica via the disk layer.
	cache2, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(service.New(service.Config{Workers: 2, Cache: cache2}))
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st = runJob(t, c2, service.JobSpec{Matrix: m})
	if st.CacheHits != st.Total {
		t.Errorf("post-restart run: %d/%d cache hits", st.CacheHits, st.Total)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("post-restart served CSV differs from local sweep")
	}

	// Other formats stay consistent with their local emitters too.
	var wantJSON bytes.Buffer
	if _, err := patch.Sweep(ctx, m, patch.EmitTo(&patch.JSONEmitter{W: &wantJSON})); err != nil {
		t.Fatal(err)
	}
	if got := download(t, c2, st2ID(t, c2, m), "json"); !bytes.Equal(got, wantJSON.Bytes()) {
		t.Errorf("served JSON differs from local sweep")
	}
}

// st2ID runs (or re-runs, fully cached) the matrix and returns a done
// job id on the given server.
func st2ID(t *testing.T, c *service.Client, m patch.Matrix) string {
	t.Helper()
	return runJob(t, c, service.JobSpec{Matrix: m}).ID
}

// TestDuplicateCells: two cells with one Config (the same protocol
// listed twice under two labels) share fingerprints but not replica
// indices. The served CSV matches a local sweep cold, warm, and after a
// mid-job restart.
func TestDuplicateCells(t *testing.T) {
	m := smokeMatrix()
	m.Protocols = []patch.ProtoVariant{
		{Protocol: patch.Directory},
		{Protocol: patch.Directory, Label: "Directory-2"},
	}
	want := localCSV(t, m)
	ctx := context.Background()

	ts := httptest.NewServer(service.New(service.Config{Workers: 2, Cache: memCache(t)}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	for _, phase := range []string{"cold", "warm"} {
		st := runJob(t, c, service.JobSpec{Matrix: m})
		if phase == "warm" && st.CacheHits != st.Total {
			t.Errorf("warm run: %d/%d cache hits", st.CacheHits, st.Total)
		}
		if got := download(t, c, st.ID, "csv"); !bytes.Equal(got, want) {
			t.Errorf("%s served CSV differs from local sweep:\n got: %q\nwant: %q", phase, got, want)
		}
	}

	// One worker simulates replica 0 and is held at replica 1 when the
	// server is abandoned.
	dir := t.TempDir()
	srv1 := service.New(service.Config{Workers: 1, Cache: memCache(t), Store: openStore(t, dir)})
	hold(srv1, 1)
	ts1 := httptest.NewServer(srv1)
	c1 := &service.Client{Base: ts1.URL}
	st, err := c1.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, c1, st.ID, "1 replica done", func(st service.JobStatus) bool { return st.Done == 1 })
	ts1.Close()

	// Restarted with one worker, the server serves replica 0 and its
	// duplicate, replica 2, from the journal, simulates replica 1, and
	// serves its duplicate, replica 3, from the cache.
	srv2 := service.New(service.Config{Workers: 1, Cache: memCache(t), Store: openStore(t, dir)})
	g2 := hold(srv2, st.Total)
	if n, err := srv2.Restore(); err != nil || n != 1 {
		t.Fatalf("restored %d jobs (err %v), want 1", n, err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	fin := waitForState(t, c2, st.ID, service.StateDone)
	if sims := g2.sims.Load(); sims != 1 || fin.CacheHits != 1 {
		t.Errorf("restarted server simulated %d replicas and hit the cache %d times, want 1 and 1",
			sims, fin.CacheHits)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("resumed served CSV differs from local sweep:\n got: %q\nwant: %q", got, want)
	}
}

// TestCacheDiskLayer covers the cache contract directly: write-through
// persistence, and checksum rejection of truncated and poisoned
// entries (each evicted and counted, never served).
func TestCacheDiskLayer(t *testing.T) {
	dir := t.TempDir()
	c1, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	want := &patch.Result{Cycles: 12345, Misses: 67, BytesPerMiss: 8.5, AvgMissLatency: 21.25}
	c1.Put(key, want)
	if got, ok := c1.Get(key); !ok || got != want {
		t.Fatalf("memory get = %v, %v", got, ok)
	}

	// A fresh cache on the same directory loads from disk.
	c2, err := service.NewResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("disk get = %+v, %v; want %+v", got, ok, want)
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 || s.Bad != 0 {
		t.Errorf("stats after disk hit: %+v", s)
	}

	entry := filepath.Join(dir, key+".json")
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}

	// Truncated entry: checksum fails, entry evicted, miss reported.
	if err := os.WriteFile(entry, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, _ := service.NewResultCache(dir)
	if _, ok := c3.Get(key); ok {
		t.Fatal("truncated entry served")
	}
	if s := c3.Stats(); s.Bad != 1 || s.Misses != 1 {
		t.Errorf("stats after truncated entry: %+v", s)
	}
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Errorf("truncated entry not evicted: %v", err)
	}

	// Poisoned entry: one flipped payload byte fails the checksum.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-2] ^= 0x40
	if err := os.WriteFile(entry, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	c4, _ := service.NewResultCache(dir)
	if _, ok := c4.Get(key); ok {
		t.Fatal("poisoned entry served")
	}
	if s := c4.Stats(); s.Bad != 1 {
		t.Errorf("stats after poisoned entry: %+v", s)
	}

	// After eviction the key is a plain (non-bad) miss and can be
	// re-stored.
	if _, ok := c4.Get(key); ok {
		t.Fatal("evicted key served")
	}
	c4.Put(key, want)
	c5, _ := service.NewResultCache(dir)
	if got, ok := c5.Get(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("re-stored entry: %+v, %v", got, ok)
	}
}

// TestPoisonedEntryRecomputed is the service-level version: a
// corrupted disk entry under a real job is detected, recomputed by the
// simulator, and the served output stays byte-identical.
func TestPoisonedEntryRecomputed(t *testing.T) {
	m := smokeMatrix()
	want := localCSV(t, m)
	dir := t.TempDir()

	cache1, _ := service.NewResultCache(dir)
	ts1 := httptest.NewServer(service.New(service.Config{Cache: cache1}))
	c1 := &service.Client{Base: ts1.URL}
	st := runJob(t, c1, service.JobSpec{Matrix: m})
	ts1.Close()

	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != st.Total {
		t.Fatalf("cache holds %d entries (err %v), want %d", len(entries), err, st.Total)
	}
	// Truncate one entry, bit-flip another.
	raw, _ := os.ReadFile(entries[0])
	if err := os.WriteFile(entries[0], raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(entries[1])
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(entries[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cache2, _ := service.NewResultCache(dir)
	ts2 := httptest.NewServer(service.New(service.Config{Cache: cache2}))
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st = runJob(t, c2, service.JobSpec{Matrix: m})
	if want := st.Total - 2; st.CacheHits != want {
		t.Errorf("job saw %d cache hits, want %d (two corrupted entries)", st.CacheHits, want)
	}
	if s := cache2.Stats(); s.Bad != 2 {
		t.Errorf("cache counted %d bad entries, want 2", s.Bad)
	}
	if got := download(t, c2, st.ID, "csv"); !bytes.Equal(got, want) {
		t.Errorf("served CSV after recompute differs from local sweep")
	}
}

// TestAdmissionQueuesBehindHeldJob: with one running slot, a second
// job queues behind a first one held mid-run, and runs once the first
// finishes; both end done.
func TestAdmissionQueuesBehindHeldJob(t *testing.T) {
	m := smokeMatrix()
	srv := service.New(service.Config{MaxJobs: 1})
	g := hold(srv, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	// Job A occupies the single slot, held before its first replica.
	stA, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != service.StateRunning {
		t.Fatalf("job A state = %s", stA.State)
	}
	// Job B queues behind it.
	stB, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != service.StateQueued {
		t.Fatalf("job B state = %s, want queued", stB.State)
	}

	// Released, A runs to done, which frees the slot: B runs to done.
	close(g.release)
	if st, err := c.Wait(ctx, stA.ID, 5*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job A: %+v, %v", st, err)
	}
	if st, err := c.Wait(ctx, stB.ID, 5*time.Millisecond); err != nil || st.State != service.StateDone {
		t.Fatalf("job B: %+v, %v", st, err)
	}
}

// TestProgressStreamAndCancel checks the NDJSON stream shape
// (snapshot, one event per replica with monotone counts, terminal
// state) and that cancellation terminates both the job and its stream.
func TestProgressStreamAndCancel(t *testing.T) {
	m := smokeMatrix()
	srv := service.New(service.Config{})
	g := hold(srv, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu     sync.Mutex
		events []service.ProgressEvent
	)
	firstEvent := make(chan struct{})
	var once sync.Once
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.Progress(ctx, st.ID, func(ev service.ProgressEvent) bool {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
			once.Do(func() { close(firstEvent) })
			return true
		})
	}()
	<-firstEvent // subscription live before any replica completes

	close(g.release)
	if err := <-streamDone; err != nil {
		t.Fatalf("progress stream: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) != st.Total+2 {
		t.Fatalf("got %d events, want %d (snapshot + replicas + terminal): %+v", len(events), st.Total+2, events)
	}
	if events[0].State != service.StateRunning || events[0].Done != 0 {
		t.Errorf("snapshot event = %+v", events[0])
	}
	for i := 1; i <= st.Total; i++ {
		ev := events[i]
		if ev.Done != i || ev.Total != st.Total || ev.Label == "" {
			t.Errorf("replica event %d = %+v", i, ev)
		}
	}
	last := events[len(events)-1]
	if last.State != service.StateDone || last.Done != st.Total {
		t.Errorf("terminal event = %+v", last)
	}

	// Cancellation: a job held before its first replica on a fresh
	// (cold-cache) server is deleted mid-flight; its stream ends with a
	// cancelled terminal event and downloads are refused.
	srv2 := service.New(service.Config{})
	hold(srv2, 0)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	c2 := &service.Client{Base: ts2.URL}
	st2, err := c2.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	final := followStream(t, c2, st2.ID)
	if err := c2.Cancel(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	if ev := final(); ev.State != service.StateCancelled {
		t.Errorf("terminal event after cancel = %+v", ev)
	}
	var sink bytes.Buffer
	if err := c2.Result(ctx, st2.ID, "csv", &sink); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("download of cancelled job: %v", err)
	}
}

// TestDrain: draining stops admission (HTTP 503, typed error
// programmatically) but lets queued and running jobs finish.
func TestDrain(t *testing.T) {
	m := smokeMatrix()
	srv := service.New(service.Config{MaxJobs: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	stA, err := c.Submit(ctx, service.JobSpec{Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := c.Submit(ctx, service.JobSpec{Matrix: m}) // queues
	if err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{stA.ID, stB.ID} {
		st, err := c.Status(ctx, id)
		if err != nil || st.State != service.StateDone {
			t.Errorf("after drain, job %s = %+v, %v", id, st, err)
		}
	}

	if _, err := srv.Submit(service.JobSpec{Matrix: m}); err != service.ErrDraining {
		t.Errorf("submit while draining: %v", err)
	}
	body, _ := json.Marshal(service.JobSpec{Matrix: m})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("HTTP submit while draining: %s", resp.Status)
	}
}

// TestBadRequests: the HTTP layer rejects malformed and unknown input
// with the right statuses.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	c := &service.Client{Base: ts.URL}
	ctx := context.Background()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(msg)
	}
	if code, _ := post(`{not json`); code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", code)
	}
	// A matrix cannot name a transform: Adjust and Filter are
	// functions, and the keys older builds read are unknown fields.
	for _, key := range []string{"adjust", "filter"} {
		code, msg := post(`{"matrix":{"base":{"cores":8,"workload":"micro","ops_per_core":10,"skip_checks":true},"` + key + `":"coarseness<=cores"}}`)
		if code != http.StatusBadRequest || !strings.Contains(msg, `unknown field \"`+key+`\"`) {
			t.Errorf("%s body: %d %s", key, code, msg)
		}
	}
	// A field JobSpec does not have is rejected like any unknown one,
	// remote_only included.
	if code, _ := post(`{"matrix":{"base":{"cores":8,"workload":"micro","ops_per_core":10,"skip_checks":true}},"remote_only":true}`); code != http.StatusBadRequest {
		t.Errorf("remote_only body: %d", code)
	}
	// A cell that fails validation refuses the matrix.
	if code, msg := post(`{"matrix":{"base":{"cores":8,"workload":"micro","ops_per_core":10,"skip_checks":true,"directory_coarseness":16}}}`); code != http.StatusBadRequest ||
		!strings.Contains(msg, "invalid directory coarseness") {
		t.Errorf("invalid cell: %d %s", code, msg)
	}
	// A submitted matrix may not name a trace file: an existing file, a
	// missing path and a directory all get one answer, so a client
	// learns nothing of the server's filesystem.
	dir := t.TempDir()
	file := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(file, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var traceBodies []string
	for _, path := range []string{file, filepath.Join(dir, "missing.bin"), dir} {
		quoted, _ := json.Marshal(path)
		code, msg := post(`{"matrix":{"base":{"cores":8,"ops_per_core":10,"skip_checks":true,"trace_file":` + string(quoted) + `}}}`)
		if code != http.StatusBadRequest {
			t.Errorf("trace_file %s: %d %s", path, code, msg)
		}
		traceBodies = append(traceBodies, msg)
	}
	if traceBodies[0] != traceBodies[1] || traceBodies[0] != traceBodies[2] {
		t.Errorf("trace_file answers differ by path:\n%s", strings.Join(traceBodies, "\n"))
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if err != nil || len(jobs) != 0 {
		t.Errorf("refused submissions admitted jobs: %+v, %v", jobs, err)
	}

	if _, err := c.Status(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing job status: %v", err)
	}

	st := runJob(t, c, service.JobSpec{Matrix: smokeMatrix()})
	var sink bytes.Buffer
	if err := c.Result(ctx, st.ID, "no-such-format", &sink); err == nil || !strings.Contains(err.Error(), "unknown format") ||
		!strings.Contains(err.Error(), "(have: chart, csv, json, markdown)") {
		t.Errorf("unknown format: %v", err)
	}
}
