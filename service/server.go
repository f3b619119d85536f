package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"patch"
)

// ErrDraining is returned for submissions that arrive after Drain has
// begun; the HTTP layer maps it to 503.
var ErrDraining = errors.New("service: server is draining")

// Config parameterizes a Server.
type Config struct {
	// MaxJobs bounds concurrently running jobs; excess submissions
	// wait in one FIFO queue. <=0 selects 2.
	MaxJobs int
	// Workers is the default worker-pool size per job (JobSpec.Workers
	// overrides per job). <=0 selects GOMAXPROCS.
	Workers int
	// Cache is the shared result cache; nil gets a fresh memory-only
	// cache.
	Cache *ResultCache
	// Store persists job specs and completed replicas so a restarted
	// server resumes unfinished jobs (call Restore after New). nil
	// keeps jobs in memory only.
	Store *JobStore
	// Token, when non-empty, requires "Authorization: Bearer <Token>"
	// on the mutating endpoints: submit and delete. Reads (status,
	// progress, result, healthz) stay open.
	Token string
}

// Server is the sweep service: a job store plus the HTTP API over it.
// It is an http.Handler; mount it on any listener.
//
//	POST   /jobs                  submit a JobSpec        -> 201 JobStatus
//	GET    /jobs                  list                    -> 200 []JobStatus
//	GET    /jobs/{id}             status                  -> 200 JobStatus
//	DELETE /jobs/{id}             cancel (or forget)      -> 200 JobStatus
//	GET    /jobs/{id}/progress    replica progress stream -> 200 NDJSON
//	GET    /jobs/{id}/result      emitter output          -> 200 ?format=csv|json|...
//	GET    /healthz               liveness + counters     -> 200
//
// A submission's X-Sweep-Principal header (empty: "anonymous") only
// labels the job; when Config.Token is set, mutating endpoints require
// the bearer token.
type Server struct {
	cfg   Config
	cache *ResultCache
	mux   *http.ServeMux

	// newRunner builds the simulating runner behind each pool worker
	// of a job, given the job's context; tests replace it to hold a
	// job mid-run.
	newRunner func(ctx context.Context) patch.Runner

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	queue    []*job   // admitted but waiting for a running slot, FIFO
	running  int
	draining bool
	idSeq    int

	wg sync.WaitGroup // one per running job goroutine
}

// New builds a Server. With a durable store configured, call Restore
// before serving traffic to reload persisted jobs.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Cache == nil {
		cfg.Cache, _ = NewResultCache("")
	}
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Cache,
		newRunner: func(context.Context) patch.Runner { return patch.NewRunner() },
		jobs:      make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Restore reloads every persisted job from the configured store:
// finished jobs become listable and downloadable again, unfinished
// ones re-enter admission and resume from their last journaled
// replica. Determinism makes the resumed output byte-identical to an
// uninterrupted run. A job whose spec no longer expands is skipped and
// counted under StoreStats.Dropped, like the specs Load drops, and
// leaves Loaded and Replayed; its directory stays on disk. Call once, after New and before serving
// traffic; without a store it is a no-op.
func (s *Server) Restore() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	recs, err := s.cfg.Store.Load()
	if err != nil {
		return 0, err
	}
	ids, err := s.cfg.Store.jobIDs()
	if err != nil {
		return 0, err
	}
	// The id sequence passes every job directory on disk, including
	// those skipped below or by Load: a new job under a skipped job's
	// id would append to its stale journal, and after the next restart
	// serve the old job's replicas.
	s.mu.Lock()
	for _, id := range ids {
		if seq, err := strconv.Atoi(strings.TrimPrefix(id, idPrefix)); err == nil && seq > s.idSeq {
			s.idSeq = seq
		}
	}
	s.mu.Unlock()
	restored := 0
	for _, rec := range recs {
		j, err := newJob(rec.ID, rec.Spec)
		if err != nil {
			// The spec no longer expands (e.g. a validation rule this
			// build added). Skip it rather than refuse to start.
			s.cfg.Store.drop(rec)
			continue
		}
		j.principal = rec.Principal
		j.restore(rec)
		s.mu.Lock()
		s.attachPersistenceLocked(j)
		s.jobs[rec.ID] = j
		s.order = append(s.order, rec.ID)
		if !j.status().State.Finished() {
			s.admitLocked(j)
		}
		s.mu.Unlock()
		restored++
	}
	return restored, nil
}

// attachPersistenceLocked wires a job's completions and terminal
// transitions through to the store. Journal append failures are
// recorded in store stats but do not fail the job: the worst case is
// a re-run after a restart, never a wrong result.
func (s *Server) attachPersistenceLocked(j *job) {
	store, id := s.cfg.Store, j.id
	j.persist = func(i int, r *patch.Result) { _ = store.AppendResult(id, i, r) }
	j.persistTerminal = func(state State, msg string) { _ = store.SaveTerminal(id, state, msg) }
}

// Submit admits a job: it starts at once when a running slot is free,
// and otherwise waits in the FIFO admission queue. With a store
// configured the spec is persisted before the submission is
// acknowledged.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	return s.submit("", spec)
}

// idPrefix starts every job id; the rest is the job's sequence number.
const idPrefix = "job-"

// submit admits a job labelled with principal ("" = "anonymous").
func (s *Server) submit(principal string, spec JobSpec) (JobStatus, error) {
	if principal == "" {
		principal = "anonymous"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	seq := s.idSeq + 1
	id := idPrefix + strconv.Itoa(seq)
	j, err := newJob(id, spec)
	if err != nil {
		return JobStatus{}, err
	}
	j.principal = principal
	if s.cfg.Store != nil {
		if err := s.cfg.Store.SaveSpec(id, seq, principal, spec); err != nil {
			return JobStatus{}, err
		}
		s.attachPersistenceLocked(j)
	}
	s.idSeq = seq
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.admitLocked(j)
	return j.status(), nil
}

// admitLocked starts j if a running slot is free, else queues it.
// Called with mu held.
func (s *Server) admitLocked(j *job) {
	if s.running < s.cfg.MaxJobs {
		s.startLocked(j)
		return
	}
	s.queue = append(s.queue, j)
}

// dequeueLocked removes j from the admission queue (cancellation of a
// queued job). Called with mu held.
func (s *Server) dequeueLocked(j *job) {
	for i, qj := range s.queue {
		if qj == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// startLocked moves j to running and launches its driver goroutine.
// Called with mu held.
func (s *Server) startLocked(j *job) {
	s.running++
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
	}
	j.mu.Unlock()
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob drives one job to a terminal state as one patch.Sweep on the
// job's context, then hands the slot to the oldest queued job. Each
// pool worker's runner serves journaled and cached replicas before it
// simulates, and every completion is journaled, counted and streamed
// as it lands; the last one finishes the job.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	workers := j.spec.Workers
	if workers <= 0 {
		workers = s.cfg.Workers
	}
	_, err := patch.Sweep(j.ctx, j.spec.Matrix, patch.Workers(workers),
		patch.WithRunnerFactory(func() patch.Runner {
			return &jobRunner{j: j, cache: s.cache, sim: s.newRunner(j.ctx)}
		}),
		patch.OnProgress(func(p patch.Progress) { j.complete(p.Replica, p.Result) }))
	// Every completion is journaled from OnProgress, and Sweep returns
	// only after its workers have: the job appends nothing more.
	if s.cfg.Store != nil {
		s.cfg.Store.closeJournal(j.id)
	}
	if err != nil {
		// A replica failed. A job that is already finished (done,
		// whose last completion cancelled the sweep's context, or
		// cancelled) keeps its state.
		j.fail(fmt.Errorf("service: job %s: %w", j.id, err))
	}
	s.mu.Lock()
	s.running--
	for s.running < s.cfg.MaxJobs && len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		s.startLocked(next)
	}
	s.mu.Unlock()
}

// Drain stops admission and waits for every running and queued job to
// finish, or for ctx to expire — at which point the stragglers are
// cancelled. Queued jobs still run: drain is graceful, not abortive.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancelJob()
		}
		s.queue = nil
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// authorize gates the mutating endpoints behind the bearer token, when
// one is configured. It writes the 401 itself; callers just return on
// false.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Token == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(auth, prefix) &&
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(s.cfg.Token)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="sweepd"`)
	httpError(w, http.StatusUnauthorized, "missing or invalid bearer token")
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	// Planning stats a trace file, and its error would tell the client
	// what the server's filesystem holds. A wire job is refused before
	// that, whatever the path names; Submit and Restore still plan a
	// trace the operator chose.
	if spec.Matrix.Base.TraceFile != "" {
		httpError(w, http.StatusBadRequest, "bad job spec: a submitted matrix may not name a trace_file")
		return
	}
	st, err := s.submit(r.Header.Get("X-Sweep-Principal"), spec)
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		w.Header().Set("Location", "/jobs/"+st.ID)
		writeJSON(w, http.StatusCreated, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.status())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleDelete cancels a live job; deleting an already-finished job
// forgets it (drops it from the store, including the durable one).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.authorize(w, r) {
		return
	}
	id := r.PathValue("id")
	j, ok := s.job(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st := j.status()
	if st.State.Finished() {
		s.mu.Lock()
		delete(s.jobs, id)
		for i, oid := range s.order {
			if oid == id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		if s.cfg.Store != nil {
			_ = s.cfg.Store.Delete(id)
		}
		writeJSON(w, http.StatusOK, st)
		return
	}
	s.mu.Lock()
	s.dequeueLocked(j)
	s.mu.Unlock()
	j.cancelJob()
	writeJSON(w, http.StatusOK, j.status())
}

// handleProgress streams replica-granular ProgressEvent lines as
// NDJSON until the job reaches a terminal state or the client leaves.
// It flushes once it has caught up with the queued events, so a stream
// that keeps up sees each event at once and a burst costs one flush;
// net/http flushes what remains when the handler returns.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ch, unsubscribe := j.subscribe()
	defer unsubscribe()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if flusher != nil && len(ch) == 0 {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	name := r.URL.Query().Get("format")
	if name == "" {
		name = "csv"
	}
	f, err := LookupFormat(name)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if st := j.status(); st.State != StateDone {
		httpError(w, http.StatusConflict, "job is %s, not done", st.State)
		return
	}
	w.Header().Set("Content-Type", f.ContentType)
	w.WriteHeader(http.StatusOK)
	_ = j.render(w, f.New)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n, running, queued, draining := len(s.jobs), s.running, len(s.queue), s.draining
	s.mu.Unlock()
	body := map[string]any{
		"jobs":     n,
		"running":  running,
		"queued":   queued,
		"draining": draining,
		"auth":     s.cfg.Token != "",
		"cache":    s.cache.Stats(),
	}
	if s.cfg.Store != nil {
		body["store"] = s.cfg.Store.Stats()
	}
	writeJSON(w, http.StatusOK, body)
}
