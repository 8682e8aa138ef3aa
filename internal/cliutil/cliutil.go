// Package cliutil holds the small flag-parsing and output-file helpers
// shared by the command-line tools.  The sweep flags (-slice, -cache)
// all accept a separator-delimited list of values; the splitting,
// trimming, empty-element rejection and order-preserving deduplication
// grew ad hoc per command, so the one canonical implementation lives
// here, as does the one writer that never leaves a partial output file.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// ParseList splits s on sep, trims surrounding whitespace from each
// element, parses every element with parse, and collapses duplicates —
// two elements are duplicates when key reports the same canonical string
// — keeping the first occurrence's position.  Empty elements (a leading,
// trailing or doubled separator, a whitespace-only element, or an empty
// s) are rejected rather than silently dropped: a sweep must never
// quietly run fewer configurations than the user typed.  flagName only
// decorates error messages (e.g. "-slice").
func ParseList[T any](flagName, s, sep string, parse func(string) (T, error), key func(T) string) ([]T, error) {
	var out []T
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, sep) {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("bad %s %q: empty element", flagName, s)
		}
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q: %w", flagName, part, err)
		}
		k := key(v)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out, nil
}

// EnsureWritable verifies, before a run starts, that an output path can
// actually be created — so a typo'd -metrics/-svg/-json path fails in
// milliseconds instead of after hours of sweep execution.  It opens the
// file for writing (creating it if absent, preserving existing content)
// and closes it again; the run's real export later truncates or rewrites
// it.  An empty path means "output disabled" and is accepted.  flagName
// decorates the error (e.g. "-metrics").
func EnsureWritable(flagName, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("%s %s: %w", flagName, path, err)
	}
	return f.Close()
}

// EnsureWritableAll validates several flag/path pairs (given as
// alternating flagName, path strings) and reports the first failure.
func EnsureWritableAll(pairs ...string) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		if err := EnsureWritable(pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile creates the file at path and fills it through write.  A
// failed write or Close (where a deferred write error surfaces) removes
// the partial file, so a truncated output never passes for a complete
// one; a non-regular path such as /dev/stdout is left alone.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeClose(path, f, write)
}

// writeClose is WriteFile after the create: write to w, close it, and
// clean up the file at path on any failure.
func writeClose(path string, w io.WriteCloser, write func(io.Writer) error) error {
	err := write(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		if fi, serr := os.Lstat(path); serr == nil && fi.Mode().IsRegular() {
			os.Remove(path)
		}
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
