package durable

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenJournalCutsTornTail: only complete lines are returned, the
// fragment is truncated away on disk, and the next append lands on a
// line of its own.
func TestOpenJournalCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n\n{\"b\":2}\n{\"c\":"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, lines, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || string(lines[0]) != `{"a":1}` || string(lines[1]) != `{"b":2}` {
		t.Fatalf("lines = %q, want the two complete records", lines)
	}
	if err := j.Append(map[string]int{"d": 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1); err == nil {
		t.Error("append after Close succeeded")
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"a\":1}\n\n{\"b\":2}\n{\"d\":4}\n"; string(b) != want {
		t.Fatalf("journal bytes %q, want %q", b, want)
	}
}

// TestOpenJournalCreates: a missing journal is created empty.
func TestOpenJournalCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.jsonl")
	j, lines, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(lines) != 0 {
		t.Fatalf("new journal has lines %q", lines)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
