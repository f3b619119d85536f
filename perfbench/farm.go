package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"patch"
	"patch/service"
)

// farm is an in-process sweep service: a Server over a disk result
// cache and a job store sharing one fresh data directory, behind an
// httptest listener, driven by one Client on one connection.
type farm struct {
	dir    string
	cache  *service.ResultCache
	store  *service.JobStore
	srv    *service.Server
	ts     *httptest.Server
	client *service.Client
}

// startFarm creates a data directory under root and starts a server on
// it, restoring whatever the directory holds (nothing, when fresh).
func startFarm(root string) (*farm, error) {
	dir, err := os.MkdirTemp(root, "sweepd-")
	if err != nil {
		return nil, err
	}
	f := &farm{dir: dir}
	fail := func(err error) (*farm, error) {
		os.RemoveAll(dir)
		return nil, err
	}
	if f.cache, err = service.NewResultCache(filepath.Join(dir, "cache")); err != nil {
		return fail(err)
	}
	if f.store, err = service.OpenJobStore(filepath.Join(dir, "store")); err != nil {
		return fail(err)
	}
	f.srv = service.New(service.Config{MaxJobs: 1, Workers: 1, Cache: f.cache, Store: f.store})
	if _, err := f.srv.Restore(); err != nil {
		return fail(fmt.Errorf("restore: %w", err))
	}
	f.ts = httptest.NewServer(f.srv)
	f.client = &service.Client{Base: f.ts.URL, HTTP: f.ts.Client()}
	return f, nil
}

// close stops the server, waits for its jobs, and removes the data
// directory.
func (f *farm) close() error {
	f.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := f.srv.Drain(ctx)
	return errors.Join(err, os.RemoveAll(f.dir))
}

// fsType names the filesystem holding the data directory, so a run
// records whether file-system calls hit memory or a disk.
func (f *farm) fsType() string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(f.dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// A jobRun is one job driven through the client: its phase times, its
// served CSV, and its final status.
type jobRun struct {
	id                   string
	start                time.Time
	submit, wait, result time.Duration
	csv                  []byte
	status               service.JobStatus
}

// total is the job's latency: submit, through the terminal progress
// event, to the downloaded result.
func (j jobRun) total() time.Duration { return j.submit + j.wait + j.result }

// runJob submits m with one local worker, follows its progress stream
// to the terminal event, and downloads the CSV. Only those three calls
// are timed. The status fetch for the cache-hit check comes after, and
// then the client forgets the job, as a client done with a job does:
// a server keeping every finished job slows each cold job after it
// (by a third over 300 jobs), which would make the cold jobs' latency
// depend on how many jobs ran before them.
func (f *farm) runJob(ctx context.Context, m patch.Matrix) (jobRun, error) {
	var j jobRun
	t0 := time.Now()
	st, err := f.client.Submit(ctx, service.JobSpec{Matrix: m, Workers: 1})
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	var final service.State
	var ferr string
	err = f.client.Progress(ctx, st.ID, func(ev service.ProgressEvent) bool {
		if ev.State.Finished() {
			final, ferr = ev.State, ev.Error
		}
		return true
	})
	if err != nil {
		return j, fmt.Errorf("progress %s: %w", st.ID, err)
	}
	if final != service.StateDone {
		return j, fmt.Errorf("job %s ended %q: %s", st.ID, final, ferr)
	}
	t2 := time.Now()
	var buf bytes.Buffer
	if err := f.client.Result(ctx, st.ID, "csv", &buf); err != nil {
		return j, fmt.Errorf("result %s: %w", st.ID, err)
	}
	t3 := time.Now()
	j = jobRun{id: st.ID, start: t0, submit: t1.Sub(t0), wait: t2.Sub(t1), result: t3.Sub(t2), csv: buf.Bytes()}
	if j.status, err = f.client.Status(ctx, st.ID); err != nil {
		return j, fmt.Errorf("status %s: %w", st.ID, err)
	}
	if err := f.client.Cancel(ctx, st.ID); err != nil {
		return j, fmt.Errorf("forget %s: %w", st.ID, err)
	}
	return j, nil
}

// renderCSV renders m's CSV from already computed replica results,
// keyed by configuration fingerprint: what patch.Sweep would emit for
// m, without simulating again.
func renderCSV(m patch.Matrix, results map[string]*patch.Result) ([]byte, error) {
	plan, err := m.Plan()
	if err != nil {
		return nil, err
	}
	runs := make([][]*patch.Result, plan.NumCells())
	for c := range runs {
		runs[c] = make([]*patch.Result, plan.SeedsPerCell())
	}
	for i := 0; i < plan.NumReplicas(); i++ {
		r, ok := results[plan.ReplicaConfig(i).Fingerprint()]
		if !ok {
			return nil, fmt.Errorf("no result for replica %d", i)
		}
		runs[plan.ReplicaCell(i)][plan.ReplicaSeed(i)] = r
	}
	var buf bytes.Buffer
	e := &patch.CSVEmitter{W: &buf}
	if err := e.Begin(plan.NumCells()); err != nil {
		return nil, err
	}
	for c := range runs {
		cr := patch.CellResult{Index: c, Label: plan.CellLabel(c), Config: plan.CellConfig(c), Summary: patch.Summarize(runs[c])}
		if err := e.Cell(cr); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), e.End()
}

// farmLeg is a workload's farm jobs and what their outputs are checked
// against.
type farmLeg struct {
	w            workload
	runSeed      int64
	cold, cached []jobRun
	coldM        []patch.Matrix // each cold job's matrix
	// cachedM is the cached jobs' matrix; cachedRef, an in-process
	// patch.Sweep of it, filled the farm's cache before the first job.
	cachedM   patch.Matrix
	cachedRef *pass
	// failed counts jobs whose output check failed.
	failed int
}

// warmFor is how long primeCache runs untimed jobs after filling the
// cache: in some runs the first cold jobs after the fill took up to
// twice as long as later ones, for about a second.
const warmFor = 2 * time.Second

// primeCache starts a workload's farm leg, untimed: it runs the cached
// jobs' matrix through an in-process patch.Sweep and puts every
// replica's result into the farm's cache under its fingerprint, as the
// server does, so every cached job hits on every replica. The cold
// jobs' seeds lie outside that matrix. Then it runs cold jobs at seeds
// of their own, each followed by a cached job, for warmFor.
func primeCache(ctx context.Context, f *farm, w workload, runSeed int64) (*farmLeg, error) {
	warmSeed, firstCold, firstCached := jobSeeds(runSeed)
	m := w.job(runSeed, firstCached)
	m.Seeds = w.cachedSeeds
	ref, err := sweepPass(ctx, m, false, nil)
	if err != nil {
		return nil, fmt.Errorf("cached matrix: %w", err)
	}
	for _, r := range ref.runs {
		f.cache.Put(r.cfg.Fingerprint(), r.res)
	}
	start := time.Now()
	for seed := warmSeed + 1; seed < firstCold && time.Since(start) < warmFor; seed++ {
		if _, err := f.runJob(ctx, w.job(runSeed, seed)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if _, err := f.runJob(ctx, m); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return &farmLeg{w: w, runSeed: runSeed, cachedM: m, cachedRef: ref}, nil
}

// runColdJobs submits the next n cold jobs, each at a fresh seed, so no
// replica of them is in the cache.
func (leg *farmLeg) runColdJobs(ctx context.Context, f *farm, n int) error {
	_, firstCold, _ := jobSeeds(leg.runSeed)
	for ; n > 0; n-- {
		m := leg.w.job(leg.runSeed, firstCold+int64(len(leg.cold)))
		j, err := f.runJob(ctx, m)
		if err != nil {
			return err
		}
		leg.cold = append(leg.cold, j)
		leg.coldM = append(leg.coldM, m)
	}
	return nil
}

// runCachedJobs submits n jobs of the cached matrix.
func (leg *farmLeg) runCachedJobs(ctx context.Context, f *farm, n int) error {
	for ; n > 0; n-- {
		j, err := f.runJob(ctx, leg.cachedM)
		if err != nil {
			return err
		}
		leg.cached = append(leg.cached, j)
	}
	return nil
}

// check runs, untimed, one in-process patch.Sweep of the matrix
// spanning every cold job's seed, and checks every job. A cold job's
// CSV must be what that sweep's results for its replicas render to,
// with no cache hit; a cached job's CSV must be the priming sweep's
// byte for byte, with every replica a cache hit.
func (leg *farmLeg) check(ctx context.Context) error {
	_, firstCold, _ := jobSeeds(leg.runSeed)
	m := leg.w.job(leg.runSeed, firstCold)
	m.Seeds = len(leg.cold)
	ref, err := sweepPass(ctx, m, false, nil)
	if err != nil {
		return fmt.Errorf("cold reference sweep: %w", err)
	}
	results := make(map[string]*patch.Result, len(ref.runs))
	for _, r := range ref.runs {
		results[r.cfg.Fingerprint()] = r.res
	}
	for k, j := range leg.cold {
		want, err := renderCSV(leg.coldM[k], results)
		if err != nil {
			return fmt.Errorf("cold reference: %w", err)
		}
		if !bytes.Equal(j.csv, want) || j.status.CacheHits != 0 {
			leg.failed++
		}
	}
	for _, j := range leg.cached {
		if !bytes.Equal(j.csv, leg.cachedRef.csv) || j.status.CacheHits != j.status.Total {
			leg.failed++
		}
	}
	return nil
}

// phaseMillis returns one phase's time of each job in milliseconds.
func phaseMillis(jobs []jobRun, phase func(jobRun) time.Duration) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = float64(phase(j)) / float64(time.Millisecond)
	}
	return out
}
