package service

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"patch"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted but waiting for a concurrent-job slot.
	StateQueued State = "queued"
	// StateRunning: replicas are being claimed and executed.
	StateRunning State = "running"
	// StateDone: every replica completed; results are downloadable.
	StateDone State = "done"
	// StateFailed: a replica errored; the rest were cancelled.
	StateFailed State = "failed"
	// StateCancelled: cancelled by the client or server shutdown.
	StateCancelled State = "cancelled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the POST /jobs request body: a wire-encodable Matrix plus
// execution knobs.
type JobSpec struct {
	Matrix patch.Matrix `json:"matrix"`

	// RemoteOnly leaves every replica for remote workers; the server
	// runs no local pool for this job (cache hits still fill
	// instantly).
	RemoteOnly bool `json:"remote_only,omitempty"`

	// Workers bounds the server-local pool for this job; 0 selects the
	// server default.
	Workers int `json:"workers,omitempty"`
}

// JobStatus is the GET /jobs/{id} response.
type JobStatus struct {
	ID string `json:"id"`
	// Principal labels the job with its submission's X-Sweep-Principal
	// header ("anonymous" when empty); nothing else reads it.
	Principal string `json:"principal,omitempty"`
	State     State  `json:"state"`
	// Done of Total counts completed replicas; Cells is the matrix
	// cell count.
	Done  int `json:"done"`
	Total int `json:"total"`
	Cells int `json:"cells"`
	// CacheHits counts replicas served from the result cache instead
	// of the simulator.
	CacheHits int    `json:"cache_hits"`
	Error     string `json:"error,omitempty"`
}

// ProgressEvent is one NDJSON line of GET /jobs/{id}/progress: a
// replica-granular patch.Progress, with State set on the first
// (snapshot) and last (terminal) lines of the stream.
type ProgressEvent struct {
	patch.Progress
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// ReplicaClaim hands one replica to a worker: its stable index in the
// job's work-list and its fully expanded configuration.
type ReplicaClaim struct {
	Index  int          `json:"index"`
	Config patch.Config `json:"config"`
}

// ClaimBatch is the POST /claim response: a range of replicas of one
// job, plus the lease the claims were issued under so the worker can
// heartbeat well inside it.
type ClaimBatch struct {
	Job      string         `json:"job"`
	Replicas []ReplicaClaim `json:"replicas"`
	// LeaseMillis is how long the claims stay held without a
	// heartbeat; 0 means held until completion.
	LeaseMillis int64 `json:"lease_ms,omitempty"`
}

// ReplicaResult is one element of the POST /jobs/{id}/results body.
type ReplicaResult struct {
	Index  int           `json:"index"`
	Result *patch.Result `json:"result"`
}

// claimState tracks one replica's scheduling. A replica is runnable
// when it is not done and either unclaimed or past its lease deadline
// (a remote worker that claimed it is presumed dead; the determinism
// contract makes re-execution harmless — a late duplicate result is
// byte-identical and dropped by idempotent completion).
type claimState struct {
	claimed  bool
	deadline time.Time // zero: held until completion (local workers)
}

func (c claimState) expired(now time.Time) bool {
	return c.claimed && !c.deadline.IsZero() && now.After(c.deadline)
}

// job is one submitted sweep: the expanded plan, the claim table, the
// position-indexed result slots, and the progress fan-out.
type job struct {
	id        string
	principal string
	spec      JobSpec
	plan      *patch.ReplicaPlan

	ctx    context.Context
	cancel context.CancelFunc

	// persist journals one accepted completion; persistTerminal
	// records a failed/cancelled marker. Both are nil without a store
	// (and during restore replay, whose records are already on disk);
	// they run under mu, so the journal order matches the completion
	// order the job observed.
	persist         func(index int, r *patch.Result)
	persistTerminal func(s State, errMsg string)

	mu        sync.Mutex
	state     State
	err       error
	claims    []claimState
	results   []*patch.Result
	done      int
	cellDone  []int
	summaries []*patch.Summary
	cacheHits int
	subs      map[chan ProgressEvent]struct{}
	finished  chan struct{}
}

func newJob(id string, spec JobSpec) (*job, error) {
	plan, err := spec.Matrix.Plan()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:        id,
		spec:      spec,
		plan:      plan,
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		claims:    make([]claimState, plan.NumReplicas()),
		results:   make([]*patch.Result, plan.NumReplicas()),
		cellDone:  make([]int, plan.NumCells()),
		summaries: make([]*patch.Summary, plan.NumCells()),
		subs:      make(map[chan ProgressEvent]struct{}),
		finished:  make(chan struct{}),
	}, nil
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Principal: j.principal, State: j.state,
		Done: j.done, Total: j.plan.NumReplicas(), Cells: j.plan.NumCells(),
		CacheHits: j.cacheHits,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// claim hands out up to max runnable replicas, leasing each until
// now+lease (lease 0: until completion). Returns nil when nothing is
// claimable right now — which does not mean the job is finished:
// everything may simply be claimed or done.
func (j *job) claim(max int, lease time.Duration, now time.Time) []ReplicaClaim {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || max <= 0 {
		return nil
	}
	deadline := time.Time{}
	if lease > 0 {
		deadline = now.Add(lease)
	}
	var out []ReplicaClaim
	for i := range j.claims {
		if len(out) >= max {
			break
		}
		if j.results[i] != nil || (j.claims[i].claimed && !j.claims[i].expired(now)) {
			continue
		}
		j.claims[i] = claimState{claimed: true, deadline: deadline}
		out = append(out, ReplicaClaim{Index: i, Config: j.plan.ReplicaConfig(i)})
	}
	return out
}

// complete records replica i's result. Idempotent: duplicate
// completions (an expired lease raced its original worker) are
// dropped — determinism guarantees the duplicate was byte-identical
// anyway. Returns false when the result was dropped (duplicate, out of
// range, or the job already left the running state).
func (j *job) complete(i int, r *patch.Result, fromCache bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || i < 0 || i >= len(j.results) || j.results[i] != nil || r == nil {
		return false
	}
	j.results[i] = r
	j.done++
	if fromCache {
		j.cacheHits++
	}
	if j.persist != nil {
		j.persist(i, r)
	}
	cell := j.plan.ReplicaCell(i)
	j.cellDone[cell]++
	if j.cellDone[cell] == j.plan.SeedsPerCell() {
		first := cell * j.plan.SeedsPerCell()
		j.summaries[cell] = patch.Summarize(j.results[first : first+j.plan.SeedsPerCell()])
	}
	j.broadcast(ProgressEvent{Progress: patch.Progress{
		Done: j.done, Total: len(j.results),
		Cell: cell, Cells: j.plan.NumCells(),
		CellDone: j.cellDone[cell], CellTotal: j.plan.SeedsPerCell(),
		Label: j.plan.CellLabel(cell), Seed: j.plan.ReplicaConfig(i).Seed,
	}})
	if j.done == len(j.results) {
		j.finishLocked(StateDone, nil)
	}
	return true
}

// heartbeat extends the lease of each still-claimed, still-incomplete
// index to now+lease, returning how many were extended. Local claims
// (zero deadline: held until completion) need no extension and get
// none; indices whose lease already expired are extended anyway if no
// one has re-claimed them — the original worker is evidently alive.
func (j *job) heartbeat(indices []int, lease time.Duration, now time.Time) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || lease <= 0 {
		return 0
	}
	extended := 0
	for _, i := range indices {
		if i < 0 || i >= len(j.claims) || j.results[i] != nil {
			continue
		}
		c := &j.claims[i]
		if !c.claimed || c.deadline.IsZero() {
			continue
		}
		c.deadline = now.Add(lease)
		extended++
	}
	return extended
}

// restore replays journaled results into a freshly rebuilt job (server
// restart). The job is temporarily moved to running so complete()
// accepts the replay — which rebuilds done counts, per-cell summaries,
// and, if every replica was journaled, the done terminal state — then
// returned to queued if unfinished. Runs before the job is visible to
// any other goroutine, and with persist unset (the records being
// replayed are already on disk).
func (j *job) restore(results []ReplicaResult) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	for _, rr := range results {
		if rr.Result == nil || rr.Index < 0 || rr.Index >= j.plan.NumReplicas() {
			continue
		}
		j.complete(rr.Index, rr.Result, false)
	}
	j.mu.Lock()
	if !j.state.Finished() {
		j.state = StateQueued
	}
	j.mu.Unlock()
}

// fail moves the job to failed on the first replica error and cancels
// the rest.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		j.finishLocked(StateFailed, err)
	}
}

// cancelJob moves the job to cancelled (client DELETE or server
// shutdown); in-flight replicas stop at the next claim boundary.
func (j *job) cancelJob() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		j.finishLocked(StateCancelled, nil)
	}
}

// finishLocked is the single terminal transition: it stamps the state,
// cancels the job context, emits the terminal progress event, and
// closes every subscriber. Called with mu held.
func (j *job) finishLocked(s State, err error) {
	j.state = s
	j.err = err
	j.cancel()
	// Done needs no marker (a complete journal is the marker); failed
	// and cancelled are not derivable from the journal, so they are.
	if j.persistTerminal != nil && (s == StateFailed || s == StateCancelled) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		j.persistTerminal(s, msg)
	}
	ev := ProgressEvent{Progress: patch.Progress{Done: j.done, Total: len(j.results)}, State: s}
	if err != nil {
		ev.Error = err.Error()
	}
	j.broadcast(ev)
	for ch := range j.subs {
		close(ch)
		delete(j.subs, ch)
	}
	close(j.finished)
}

// broadcast sends ev to every subscriber. Channels are sized for the
// whole stream (replicas + snapshot + terminal), so sends never block;
// the non-blocking send is a belt-and-braces guard. Called with mu
// held.
func (j *job) broadcast(ev ProgressEvent) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers a progress listener. The returned channel first
// carries a snapshot of the current counts, then one event per
// completed replica, then a terminal event; it is closed when the job
// finishes. unsubscribe detaches early (client disconnect).
func (j *job) subscribe() (ch chan ProgressEvent, unsubscribe func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch = make(chan ProgressEvent, len(j.results)+2)
	snapshot := ProgressEvent{
		Progress: patch.Progress{Done: j.done, Total: len(j.results), Cells: j.plan.NumCells()},
		State:    j.state,
	}
	if j.err != nil {
		snapshot.Error = j.err.Error()
	}
	ch <- snapshot
	if j.state.Finished() {
		close(ch)
		return ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// prefill completes every replica already present in the result cache
// before any simulation is scheduled — the warm-cache fast path. With
// a fully warm cache the job finishes here without touching a worker.
func (j *job) prefill(cache *ResultCache) {
	n := j.plan.NumReplicas()
	for i := 0; i < n; i++ {
		j.mu.Lock()
		st := j.state
		taken := j.results[i] != nil
		j.mu.Unlock()
		if st != StateRunning {
			return
		}
		if taken {
			continue
		}
		if r, ok := cache.Get(j.plan.ReplicaConfig(i).Fingerprint()); ok {
			j.complete(i, r, true)
		}
	}
}

// runLocal drives the job with the server's local worker pool: each
// worker holds one reuse-aware patch.Runner and claims replicas (held,
// no lease) until none are claimable. It returns when local work is
// exhausted; outstanding remote claims may still be in flight.
func (j *job) runLocal(cache *ResultCache, workers int) {
	j.mu.Lock()
	remaining := len(j.results) - j.done
	j.mu.Unlock()
	if workers > remaining {
		workers = remaining
	}
	if workers <= 0 {
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := patch.NewRunner()
			defer runner.Close()
			for j.ctx.Err() == nil {
				claims := j.claim(1, 0, time.Now())
				if len(claims) == 0 {
					return
				}
				c := claims[0]
				key := c.Config.Fingerprint()
				r, err := runner.RunReplica(c.Config)
				if err != nil {
					j.fail(fmt.Errorf("service: job %s: %s seed %d: %w",
						j.id, j.plan.CellLabel(j.plan.ReplicaCell(c.Index)), c.Config.Seed, err))
					return
				}
				cache.Put(key, r)
				j.complete(c.Index, r, false)
			}
		}()
	}
	wg.Wait()
}

// render replays the finished job through a fresh emitter, in matrix
// cell order — byte-identical to running the same Matrix through
// patch.Sweep with the same emitter locally.
func (j *job) render(w io.Writer, mk func(io.Writer) patch.Emitter) error {
	j.mu.Lock()
	if j.state != StateDone {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("service: job %s is %s, not done", j.id, st)
	}
	summaries := j.summaries
	j.mu.Unlock()

	e := mk(w)
	if err := e.Begin(j.plan.NumCells()); err != nil {
		return err
	}
	for i := 0; i < j.plan.NumCells(); i++ {
		cr := patch.CellResult{
			Index:   i,
			Label:   j.plan.CellLabel(i),
			Config:  j.plan.CellConfig(i),
			Summary: summaries[i],
		}
		if err := e.Cell(cr); err != nil {
			return err
		}
	}
	return e.End()
}
