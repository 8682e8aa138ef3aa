// Package durable holds the crash-safety primitives the on-disk stores
// share: an append-only JSONL journal that recovers cleanly from a torn
// final line, and the directory fsync that makes a rename durable.
//
// A journal line is acknowledged only once its write and fsync return.
// A kill inside that window can leave a fragment with no trailing
// newline.  OpenJournal cuts such a fragment off before reopening the
// file for append; appending after it instead would glue the next
// record onto the fragment, and that acknowledged record would be
// unparseable — lost — at the following open.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
)

// Journal is an open append-only JSONL file.  Callers serialise Append
// and Close (each store already holds its own lock around them).
type Journal struct {
	f *os.File // nil once closed
}

// OpenJournal opens (creating if needed) the journal at path and returns
// it with its complete lines, in order.  A torn final line is truncated
// away and the truncation synced before the journal accepts appends; a
// freshly created file has its directory entry synced too.  Lines that
// are complete but malformed are returned as-is for the caller to skip.
func OpenJournal(path string) (*Journal, [][]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	created := err != nil
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	keep := bytes.LastIndexByte(b, '\n') + 1
	if keep < len(b) {
		err = f.Truncate(int64(keep))
		if err == nil {
			err = f.Sync()
		}
	}
	if err == nil && created {
		err = SyncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	var lines [][]byte
	for _, line := range bytes.Split(b[:keep], []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return &Journal{f: f}, lines, nil
}

// Append writes v as one JSON line and fsyncs it: once Append returns
// nil the record survives a crash.
func (j *Journal) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if j.f == nil {
		return errors.New("durable: journal closed")
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close closes the journal file; later appends fail.  Closing twice is
// a no-op.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// SyncDir fsyncs the directory dir, making a file created or renamed
// into it durable: without it, a power cut can drop the new directory
// entry even though the file's own data was synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
