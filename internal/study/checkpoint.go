// Sweep checkpoint/resume: a journal directory that persists each
// completed run's key (done.jsonl, one JSON object per line, appended
// and fsynced as runs finish) and each finished guest recording's event
// trace (trace-<exec-key>.etrace, moved into place atomically via a
// .part rename).  A sweep killed mid-flight and restarted with the same
// journal re-executes zero completed guest work: recordings are served
// from the persisted trace — after validating it decodes to a complete
// end record — and completed configurations replay from it cheaply.
//
// Crash safety is append-only-with-rename: a torn final line in
// done.jsonl (the process died inside the write) is cut off when the
// journal reopens (durable.OpenJournal), so the worst outcome of a kill
// is re-running one configuration; a trace is only visible under its
// final name once fully written and its directory synced, so a partial
// recording can never be mistaken for a checkpoint hit.
package study

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"tquad/internal/durable"
)

// doneFile is the journal of completed run keys inside a checkpoint
// directory.
const doneFile = "done.jsonl"

// doneEntry is one line of done.jsonl.  Key alone decides resume
// behaviour; the result fields are carried for post-mortem inspection
// of interrupted sweeps.
type doneEntry struct {
	Key    string `json:"key"`
	Kind   string `json:"kind,omitempty"`
	ICount uint64 `json:"icount,omitempty"`
	Time   uint64 `json:"time,omitempty"`
}

// Checkpoint is an open sweep journal.  Safe for concurrent use by the
// scheduler's workers.
type Checkpoint struct {
	dir string

	mu      sync.Mutex
	done    map[string]doneEntry
	journal *durable.Journal // done.jsonl
}

// OpenCheckpoint opens (creating if needed) the journal directory and
// loads the set of already-completed run keys.  A line torn by a
// mid-write kill is cut off, and any other unparseable line skipped,
// which simply re-runs the affected configuration.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("study: checkpoint: %w", err)
	}
	journal, lines, err := durable.OpenJournal(filepath.Join(dir, doneFile))
	if err != nil {
		return nil, fmt.Errorf("study: checkpoint: %w", err)
	}
	c := &Checkpoint{dir: dir, done: make(map[string]doneEntry), journal: journal}
	for _, line := range lines {
		var e doneEntry
		if json.Unmarshal(line, &e) == nil && e.Key != "" {
			c.done[e.Key] = e
		}
	}
	return c, nil
}

// Dir returns the journal directory.
func (c *Checkpoint) Dir() string { return c.dir }

// Close flushes and closes the journal file.  The directory and its
// contents stay on disk for a future resume; remove the directory once
// the sweep has fully succeeded.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journal.Close()
}

// Done reports whether the run key completed in a previous (or the
// current) sweep.
func (c *Checkpoint) Done(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.done[key]
	return ok
}

// Completed returns the completed run keys in sorted order.
func (c *Checkpoint) Completed() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.done))
	for k := range c.done {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// markDone appends the entry to done.jsonl and syncs it, so a kill
// immediately after a run completes still resumes past that run.
// Already-journalled keys are not rewritten.
func (c *Checkpoint) markDone(e doneEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.done[e.Key]; ok {
		return nil
	}
	if err := c.journal.Append(e); err != nil {
		return fmt.Errorf("study: checkpoint: %w", err)
	}
	c.done[e.Key] = e
	return nil
}

// PersistedTrace returns the path of the journalled, validated event
// trace for an execution-equivalence key (the scheduler's ExecKey), or
// ok=false when none has been persisted yet or the file does not decode
// to a complete trace.  The jobd daemon archives a finished job's
// recording from here into its artifact store.
func (c *Checkpoint) PersistedTrace(execKey string) (string, bool) {
	return c.trace(execKey)
}

// tracePath returns the persisted trace location for an
// execution-equivalence key.
func (c *Checkpoint) tracePath(execKey string) string {
	return filepath.Join(c.dir, "trace-"+sanitizeKey(execKey)+".etrace")
}

// trace returns the persisted, validated trace for the key, or ok=false
// when none exists or the file does not decode to a complete trace (in
// which case the recording runs fresh and overwrites it).
func (c *Checkpoint) trace(execKey string) (string, bool) {
	path := c.tracePath(execKey)
	info, err := statTrace(path)
	if err != nil || !info.Complete {
		return "", false
	}
	return path, true
}

// invalidateTrace removes the persisted trace for the key, so neither
// this sweep's re-recording path nor a future resume can be served a
// trace that failed integrity verification.  Removing a file that is
// not there (or was never persisted) is a no-op.
func (c *Checkpoint) invalidateTrace(execKey string) {
	os.Remove(c.tracePath(execKey))
}

// saveTrace moves a finished recording from tmp into the journal,
// atomically: the content lands under a .part name first (rename when
// the temp file shares the journal's filesystem, copy otherwise) and
// only a final rename makes it visible to trace().
func (c *Checkpoint) saveTrace(execKey, tmp string) (string, error) {
	final := c.tracePath(execKey)
	part := final + ".part"
	if err := os.Rename(tmp, part); err != nil {
		if cerr := copyFile(tmp, part); cerr != nil {
			return "", fmt.Errorf("study: checkpoint: persist trace: %w", cerr)
		}
		os.Remove(tmp)
	}
	if err := os.Rename(part, final); err != nil {
		return "", fmt.Errorf("study: checkpoint: persist trace: %w", err)
	}
	if err := durable.SyncDir(c.dir); err != nil {
		return "", fmt.Errorf("study: checkpoint: persist trace: %w", err)
	}
	return final, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(dst)
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sanitizeKey maps a run key onto a safe filename fragment.
func sanitizeKey(key string) string {
	b := []byte(key)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
