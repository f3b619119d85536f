package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"patch"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted but waiting for a concurrent-job slot.
	StateQueued State = "queued"
	// StateRunning: the job's sweep is running.
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

	// Workers bounds the job's worker pool; 0 selects the server
	// default.
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

// job is one submitted sweep: the expanded plan, the position-indexed
// result slots, and the progress fan-out.
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

	// restored maps the fingerprint of each replica a restart read
	// back from the journal to its result, so the job's runners serve
	// it instead of simulating it again. restore fills it for a job
	// that will run; it is read-only after that.
	restored map[string]*patch.Result

	mu        sync.Mutex
	state     State
	err       error
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

// complete records replica i's result: it journals the result, folds
// it into its cell, streams it to subscribers, and finishes the job
// with its last replica. A replica already recorded (one a restart
// read back from the journal) is dropped, and so is any result that
// arrives after the job left the running state, so nothing is
// journaled after a terminal marker.
func (j *job) complete(i int, r *patch.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.results[i] != nil {
		return
	}
	j.results[i] = r
	j.done++
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
}

// countHit counts one replica served from the result cache, while the
// job runs.
func (j *job) countHit() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning {
		j.cacheHits++
	}
}

// restore rebuilds a job a restart read back: it replays the journaled
// results, which rebuilds the done counts, the per-cell summaries and,
// when every replica was journaled, the done state; it applies a
// failed or cancelled marker; and it returns any other job to queued,
// keeping its journaled results by fingerprint for its runners. Runs
// before the job is visible to any other goroutine, and with persist
// unset (the records being replayed are already on disk).
func (j *job) restore(rec RestoredJob) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	for _, rr := range rec.Results {
		if rr.Index >= 0 && rr.Index < len(j.results) {
			j.complete(rr.Index, rr.Result)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state.Finished():
	case rec.Terminal == StateFailed || rec.Terminal == StateCancelled:
		var err error
		if rec.TerminalError != "" {
			err = errors.New(rec.TerminalError)
		}
		j.finishLocked(rec.Terminal, err)
	default:
		j.state = StateQueued
		j.restored = make(map[string]*patch.Result, j.done)
		for i, r := range j.results {
			if r != nil {
				j.restored[j.plan.ReplicaConfig(i).Fingerprint()] = r
			}
		}
	}
}

// fail moves the job to failed on a replica error.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Finished() {
		j.finishLocked(StateFailed, err)
	}
}

// cancelJob moves the job to cancelled (client DELETE or server
// shutdown); its sweep stops between replicas.
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

// jobRunner is one pool worker's runner for a job. It serves a
// replica the journal already held at restart, then one the result
// cache holds, and simulates only the rest, writing each simulated
// result through to the cache. The fingerprint is computed once per
// replica.
type jobRunner struct {
	j     *job
	cache *ResultCache
	sim   patch.Runner
}

func (r *jobRunner) RunReplica(cfg patch.Config) (*patch.Result, error) {
	key := cfg.Fingerprint()
	if res, ok := r.j.restored[key]; ok {
		return res, nil
	}
	if res, ok := r.cache.Get(key); ok {
		r.j.countHit()
		return res, nil
	}
	res, err := r.sim.RunReplica(cfg)
	if err != nil {
		return nil, err
	}
	r.cache.Put(key, res)
	return res, nil
}

func (r *jobRunner) Close() { r.sim.Close() }

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
