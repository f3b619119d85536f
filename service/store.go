package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"patch"
)

// JobStore is sweepd's durable job state: one directory per job under
// <dir>/jobs, holding the submitted spec, an append-only journal of
// completed replica results, and (for failed/cancelled jobs) a
// terminal-state marker. Every file uses the same checksummed format
// as the disk result cache, so a crash can truncate but never corrupt
// what a restarted server reads back:
//
//	<dir>/jobs/<id>/spec.json     checksummed {id, seq, principal, spec}
//	<dir>/jobs/<id>/results.jsonl one "sha256:<hex> <record>" line per
//	                              completed replica, appended as replicas
//	                              finish; a torn tail line (crash mid-
//	                              append) fails its checksum and is
//	                              truncated away on load
//	<dir>/jobs/<id>/state.json    checksummed terminal marker, written
//	                              only for failed/cancelled (done is
//	                              derivable from a complete journal)
//
// The spec is written before submission is acknowledged, so any job a
// client saw accepted survives a crash; journal records are appended
// after each replica completes, so a restarted server resumes from the
// last completed replica — and determinism makes the resumed output
// byte-identical to an uninterrupted run.
type JobStore struct {
	dir string

	mu    sync.Mutex
	stats StoreStats
}

// StoreStats counts job-store activity for /healthz.
type StoreStats struct {
	// Jobs is the number of job directories currently persisted.
	Jobs int64 `json:"jobs"`
	// Loaded counts the jobs the last Load read back, less those
	// Server.Restore then skipped: the jobs a restart re-admitted.
	Loaded int64 `json:"loaded"`
	// Replayed counts the journal records of the jobs in Loaded.
	Replayed int64 `json:"replayed"`
	// Records counts journal records appended since construction.
	Records int64 `json:"records"`
	// Dropped counts the records a restart could not use: corrupt ones
	// (torn journal tails, bad specs or markers) and specs naming a
	// transform this build no longer has, both discarded by Load, and
	// specs that no longer expand, skipped by Server.Restore.
	Dropped int64 `json:"dropped"`
	// WriteErrors counts failed journal appends and marker writes
	// (the affected replicas simply re-run after a restart).
	WriteErrors int64 `json:"write_errors"`
}

// persistedJob is the spec.json payload.
type persistedJob struct {
	ID        string  `json:"id"`
	Seq       int     `json:"seq"`
	Principal string  `json:"principal,omitempty"`
	Spec      JobSpec `json:"spec"`
}

// ReplicaResult is one journaled replica, a results.jsonl payload: its
// index in the job's work-list and its result.
type ReplicaResult struct {
	Index  int           `json:"index"`
	Result *patch.Result `json:"result"`
}

// terminalRecord is the state.json payload.
type terminalRecord struct {
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
}

// RestoredJob is one job read back by Load, in a form the server can
// re-admit: the original spec and principal, every journaled replica
// result, and the terminal marker if one was written.
type RestoredJob struct {
	ID            string
	Seq           int
	Principal     string
	Spec          JobSpec
	Results       []ReplicaResult
	Terminal      State // "" when no terminal marker exists
	TerminalError string
}

// OpenJobStore opens (creating if needed) a job store rooted at dir.
func OpenJobStore(dir string) (*JobStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: job store needs a directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: job store: %w", err)
	}
	st := &JobStore{dir: dir}
	ids, err := st.jobIDs()
	if err != nil {
		return nil, err
	}
	st.stats.Jobs = int64(len(ids))
	return st, nil
}

func (st *JobStore) jobsDir() string { return filepath.Join(st.dir, "jobs") }

// jobIDs lists the id of every job directory, including those whose
// spec Load skips.
func (st *JobStore) jobIDs() ([]string, error) {
	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("service: job store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	return ids, nil
}

// jobDir maps an id to its directory, rejecting anything that could
// escape the store root.
func (st *JobStore) jobDir(id string) (string, bool) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", false
	}
	return filepath.Join(st.jobsDir(), id), true
}

// Stats returns a snapshot of the store counters.
func (st *JobStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// SaveSpec durably records a newly admitted job. It must succeed
// before the submission is acknowledged: unlike the result cache, the
// store is a correctness dependency — a job the client saw accepted
// must survive a restart.
func (st *JobStore) SaveSpec(id string, seq int, principal string, spec JobSpec) error {
	dir, ok := st.jobDir(id)
	if !ok {
		return fmt.Errorf("service: job store: bad job id %q", id)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	payload, err := json.Marshal(persistedJob{ID: id, Seq: seq, Principal: principal, Spec: spec})
	if err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	if err := writeChecksummed(filepath.Join(dir, "spec.json"), payload); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	st.mu.Lock()
	st.stats.Jobs++
	st.mu.Unlock()
	return nil
}

// AppendResult journals one completed replica. Appends are serialized
// store-wide; each record is a single self-checksummed line, so the
// worst a crash can do is tear the final line — which Load detects and
// truncates, costing one replica re-run, never a wrong result.
func (st *JobStore) AppendResult(id string, index int, r *patch.Result) error {
	dir, ok := st.jobDir(id)
	if !ok {
		return fmt.Errorf("service: job store: bad job id %q", id)
	}
	payload, err := json.Marshal(ReplicaResult{Index: index, Result: r})
	if err != nil {
		return st.writeErr(err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return st.writeErrLocked(err)
	}
	_, werr := fmt.Fprintf(f, "%s %s\n", checksumLine(payload), payload)
	cerr := f.Close()
	if werr != nil {
		return st.writeErrLocked(werr)
	}
	if cerr != nil {
		return st.writeErrLocked(cerr)
	}
	st.stats.Records++
	return nil
}

// SaveTerminal records a failed/cancelled marker (done jobs need none:
// a complete journal is the marker).
func (st *JobStore) SaveTerminal(id string, s State, errMsg string) error {
	dir, ok := st.jobDir(id)
	if !ok {
		return fmt.Errorf("service: job store: bad job id %q", id)
	}
	payload, err := json.Marshal(terminalRecord{State: s, Error: errMsg})
	if err != nil {
		return st.writeErr(err)
	}
	if err := writeChecksummed(filepath.Join(dir, "state.json"), payload); err != nil {
		return st.writeErr(err)
	}
	return nil
}

func (st *JobStore) writeErr(err error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.writeErrLocked(err)
}

func (st *JobStore) writeErrLocked(err error) error {
	st.stats.WriteErrors++
	return fmt.Errorf("service: job store: %w", err)
}

// Delete forgets a job's persisted state.
func (st *JobStore) Delete(id string) error {
	dir, ok := st.jobDir(id)
	if !ok {
		return fmt.Errorf("service: job store: bad job id %q", id)
	}
	if _, err := os.Stat(dir); err != nil {
		return nil // already gone
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("service: job store: %w", err)
	}
	st.mu.Lock()
	if st.stats.Jobs > 0 {
		st.stats.Jobs--
	}
	st.mu.Unlock()
	return nil
}

// Load reads every persisted job back, in submission (seq) order. A
// job directory whose spec fails verification, or names an adjust or
// filter transform, is skipped and counted under Dropped (its
// directory stays on disk); a journal with a torn or corrupt line is
// truncated to its valid prefix (the lost replicas simply re-run —
// determinism makes the re-run byte-identical).
func (st *JobStore) Load() ([]RestoredJob, error) {
	ids, err := st.jobIDs()
	if err != nil {
		return nil, err
	}
	var out []RestoredJob
	var loaded, replayed, dropped int64
	for _, id := range ids {
		dir := filepath.Join(st.jobsDir(), id)
		payload, ok, bad := readChecksummed(filepath.Join(dir, "spec.json"))
		if !ok {
			if bad {
				dropped++
			}
			continue
		}
		var rec persistedJob
		// Older builds named a registered transform under the matrix
		// keys "adjust" and "filter". Expanded without it, the spec
		// would renumber the replicas its journal recorded.
		var named struct {
			Spec struct {
				Matrix struct{ Adjust, Filter string } `json:"matrix"`
			} `json:"spec"`
		}
		if json.Unmarshal(payload, &rec) != nil || rec.ID != id ||
			json.Unmarshal(payload, &named) != nil ||
			named.Spec.Matrix.Adjust != "" || named.Spec.Matrix.Filter != "" {
			dropped++
			continue
		}
		job := RestoredJob{ID: rec.ID, Seq: rec.Seq, Principal: rec.Principal, Spec: rec.Spec}
		results, droppedHere := st.loadJournal(filepath.Join(dir, "results.jsonl"))
		job.Results = results
		replayed += int64(len(results))
		dropped += droppedHere
		if payload, ok, bad := readChecksummed(filepath.Join(dir, "state.json")); ok {
			var term terminalRecord
			if err := json.Unmarshal(payload, &term); err == nil {
				job.Terminal = term.State
				job.TerminalError = term.Error
			} else {
				dropped++
			}
		} else if bad {
			dropped++
		}
		out = append(out, job)
		loaded++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	st.mu.Lock()
	st.stats.Loaded = loaded
	st.stats.Replayed = replayed
	st.stats.Dropped += dropped
	st.mu.Unlock()
	return out, nil
}

// drop moves one loaded job the server could not re-admit, and its
// journal records, out of Loaded and Replayed and counts it under
// Dropped.
func (st *JobStore) drop(job RestoredJob) {
	st.mu.Lock()
	st.stats.Loaded--
	st.stats.Replayed -= int64(len(job.Results))
	st.stats.Dropped++
	st.mu.Unlock()
}

// loadJournal replays one results.jsonl, verifying each line's
// checksum. The first bad line ends the replay and the file is
// truncated to the preceding valid prefix, so the journal heals
// instead of failing the same way on every restart.
func (st *JobStore) loadJournal(path string) (results []ReplicaResult, dropped int64) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 1<<16)
	var valid int64 // byte offset after the last verified line
	for {
		line, err := rd.ReadString('\n')
		if err == io.EOF && line == "" {
			break
		}
		complete := err == nil // a line without its '\n' is a torn tail
		header, payload, found := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		var rec ReplicaResult
		ok := complete && found &&
			header == checksumLine([]byte(payload)) &&
			json.Unmarshal([]byte(payload), &rec) == nil &&
			rec.Index >= 0 && rec.Result != nil
		if !ok {
			dropped++
			break
		}
		results = append(results, rec)
		valid += int64(len(line))
	}
	if info, err := f.Stat(); err == nil && info.Size() > valid {
		_ = os.Truncate(path, valid)
	}
	return results, dropped
}
