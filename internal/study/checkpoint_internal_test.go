package study

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointDoubleCrashKeepsAppendAfterTornLine: crash mid-append
// (torn line), resume, complete a run, crash again, resume — the run
// journalled after the first recovery must still count as done, not be
// glued onto the torn fragment and lost.
func TestCheckpointDoubleCrashKeepsAppendAfterTornLine(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.markDone(doneEntry{Key: "native"}); err != nil {
		t.Fatal(err)
	}
	c.Close()

	f, err := os.OpenFile(filepath.Join(dir, doneFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"flat","ki`)
	f.Close()

	c2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	if c2.Done("flat") {
		t.Error("a torn, never-acknowledged line counted as done")
	}
	if err := c2.markDone(doneEntry{Key: "quad-incl"}); err != nil {
		t.Fatal(err)
	}
	c2.Close() // the second crash: nothing beyond the fsynced journal survives

	c3, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	defer c3.Close()
	for _, key := range []string{"native", "quad-incl"} {
		if !c3.Done(key) {
			t.Errorf("run %s lost across two resumes; done = %v", key, c3.Completed())
		}
	}
}
