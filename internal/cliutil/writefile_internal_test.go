package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// closeFailer writes through to a real file but reports a failed Close,
// as a filesystem does when it flushes a deferred write error on close.
type closeFailer struct{ f *os.File }

func (c closeFailer) Write(p []byte) (int, error) { return c.f.Write(p) }
func (c closeFailer) Close() error {
	c.f.Close()
	return errors.New("deferred write error")
}

func writeHello(w io.Writer) error {
	_, err := io.WriteString(w, "hello\n")
	return err
}

// TestWriteFileCloseErrorRemovesFile: a Close failure is an error and the
// partial file does not survive it.
func TestWriteFileCloseErrorRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = writeClose(path, closeFailer{fh}, writeHello)
	if err == nil || !strings.Contains(err.Error(), "deferred write error") {
		t.Fatalf("writeClose = %v, want the Close error", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("partial file survived: stat = %v", serr)
	}
}

// TestWriteFileWriteErrorRemovesFile: a failed write removes the partial
// file too.
func TestWriteFileWriteErrorRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := WriteFile(path, func(w io.Writer) error {
		writeHello(w)
		return errors.New("encoder failed")
	})
	if err == nil || !strings.Contains(err.Error(), "encoder failed") {
		t.Fatalf("WriteFile = %v, want the write error", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("partial file survived: stat = %v", serr)
	}
}

// TestWriteFileRoundTrips: the success path leaves the complete content.
func TestWriteFileRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFile(path, writeHello); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello\n" {
		t.Fatalf("reloaded %q, %v", b, err)
	}
}
