// The durable job store: an append-only JSONL journal (jobs.jsonl in
// the data directory), fsynced after every record and replayed on boot
// into the in-memory job table.  The same crash-safety posture as the
// sweep checkpoint's done.jsonl (both are durable.Journals): a torn
// final line — the process died inside a write — is cut off at boot, so
// the worst outcome of a kill is losing the one transition that was
// mid-write, never one acknowledged after recovery.  A job
// whose journal ends in the running state was interrupted; boot
// re-queues it (Resumed=true) and its sweep resumes through its
// checkpoint directory with zero guest re-execution.
//
// Layout under the data directory:
//
//	jobs.jsonl              the journal (source of truth)
//	jobs/<id>/checkpoint/   the job's study.Checkpoint journal
//	artifacts/<aa>/<hex>    the content-addressed artifact store
package jobd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tquad/internal/durable"
)

// journal ops, one per state transition.
const (
	opSubmit   = "submit"
	opStart    = "start"
	opFinish   = "finish" // state: succeeded | failed
	opCancel   = "cancel"
	opRetry    = "retry"
	opShutdown = "shutdown" // daemon-level marker, no job field
)

// journalRecord is one line of jobs.jsonl.
type journalRecord struct {
	Time time.Time `json:"time"`
	Op   string    `json:"op"`
	Job  string    `json:"job,omitempty"`

	Spec *JobSpec `json:"spec,omitempty"` // submit only

	State      string     `json:"state,omitempty"` // finish only
	Error      string     `json:"error,omitempty"`
	Artifacts  []Artifact `json:"artifacts,omitempty"`
	GuestExecs uint64     `json:"guest_execs,omitempty"`
}

// Store is the open job journal plus the replayed job table.  Safe for
// concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	journal *durable.Journal // jobs.jsonl
	jobs    map[string]*Job
	order   []string // submission order
	nextID  int
}

// OpenStore opens (creating if needed) the data directory and replays
// the journal.  Jobs journalled as running — the daemon died or was
// killed mid-job — come back queued with Resumed set.
func OpenStore(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobd: store: %w", err)
		}
	}
	journal, lines, err := durable.OpenJournal(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("jobd: store: %w", err)
	}
	st := &Store{dir: dir, journal: journal, jobs: make(map[string]*Job)}
	for _, line := range lines {
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil {
			continue // damaged line: skip, as for unknown ops
		}
		st.apply(&rec)
	}
	// Interrupted jobs resume: back to the queue, in submission order.
	for _, id := range st.order {
		if j := st.jobs[id]; j.State == StateRunning {
			j.State = StateQueued
			j.Resumed = true
		}
	}
	// Resume ID allocation past the highest journalled ID (not the count:
	// a submit whose append failed burned its ID without journalling it,
	// and later successful submits moved on past the gap).
	for _, id := range st.order {
		var n int
		if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > st.nextID {
			st.nextID = n
		}
	}
	return st, nil
}

// apply folds one journal record into the table during boot replay.
// Unknown ops and references to unknown jobs are skipped, not fatal:
// the journal outlives daemon versions.
func (st *Store) apply(rec *journalRecord) {
	switch rec.Op {
	case opSubmit:
		if rec.Spec == nil || rec.Job == "" {
			return
		}
		j := &Job{ID: rec.Job, Spec: *rec.Spec, State: StateQueued, Created: rec.Time}
		st.jobs[j.ID] = j
		st.order = append(st.order, j.ID)
	case opStart:
		if j := st.jobs[rec.Job]; j != nil {
			j.State = StateRunning
			j.Started = rec.Time
			j.Attempt++
		}
	case opFinish:
		if j := st.jobs[rec.Job]; j != nil {
			j.State = rec.State
			j.Finished = rec.Time
			j.Error = rec.Error
			j.Artifacts = rec.Artifacts
			j.GuestExecutions = rec.GuestExecs
		}
	case opCancel:
		if j := st.jobs[rec.Job]; j != nil {
			j.State = StateCanceled
			j.Finished = rec.Time
		}
	case opRetry:
		if j := st.jobs[rec.Job]; j != nil {
			j.State = StateQueued
			j.Error = ""
			j.Artifacts = nil
			j.Finished = time.Time{}
		}
	}
}

// append journals one record: marshalled, written, fsynced, then folded
// into the table — the same ordering as the checkpoint journal, so a
// transition is only visible in memory once it is durable on disk.
func (st *Store) append(rec *journalRecord) error {
	rec.Time = time.Now().UTC()
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.journal.Append(rec); err != nil {
		return err
	}
	st.apply(rec)
	return nil
}

// Close closes the journal file.  The directory stays; a future
// OpenStore resumes from it.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.journal.Close()
}

// Dir returns the data directory.
func (st *Store) Dir() string { return st.dir }

// JobDir returns the job's private directory (checkpoint journal etc.).
func (st *Store) JobDir(id string) string {
	return filepath.Join(st.dir, "jobs", safeName(id))
}

// CheckpointDir returns the job's sweep-checkpoint directory.
func (st *Store) CheckpointDir(id string) string {
	return filepath.Join(st.JobDir(id), "checkpoint")
}

// Submit journals a new job (spec already normalised) and returns its
// snapshot.
func (st *Store) Submit(spec JobSpec) (Job, error) {
	// Reserve the ID before journalling: a failed append burns it, which
	// is harmless (the ID never reached the journal, so no future boot
	// can mint it again — nextID replays as the journalled submit count).
	st.mu.Lock()
	st.nextID++
	id := fmt.Sprintf("j%04d", st.nextID)
	st.mu.Unlock()
	rec := &journalRecord{Op: opSubmit, Job: id, Spec: &spec}
	if err := st.append(rec); err != nil {
		return Job{}, err
	}
	return st.mustGet(id), nil
}

// Get returns a snapshot of the job.
func (st *Store) Get(id string) (Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return j.clone(), true
}

func (st *Store) mustGet(id string) Job {
	j, _ := st.Get(id)
	return j
}

// Jobs returns snapshots of every job in submission order.
func (st *Store) Jobs() []Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Job, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id].clone())
	}
	return out
}

// state transitions.  Each journals one record; the in-memory table
// follows only after the record is durable.

func (st *Store) markStart(id string) error {
	return st.append(&journalRecord{Op: opStart, Job: id})
}

func (st *Store) markSucceeded(id string, arts []Artifact, guestExecs uint64) error {
	return st.append(&journalRecord{
		Op: opFinish, Job: id, State: StateSucceeded,
		Artifacts: arts, GuestExecs: guestExecs,
	})
}

func (st *Store) markFailed(id, errMsg string) error {
	return st.append(&journalRecord{Op: opFinish, Job: id, State: StateFailed, Error: errMsg})
}

func (st *Store) markCanceled(id string) error {
	return st.append(&journalRecord{Op: opCancel, Job: id})
}

func (st *Store) markRetry(id string) error {
	return st.append(&journalRecord{Op: opRetry, Job: id})
}

// markShutdown journals a clean daemon shutdown (forensic marker: a
// journal whose last record is a shutdown was drained, not killed).
func (st *Store) markShutdown() error {
	return st.append(&journalRecord{Op: opShutdown})
}
