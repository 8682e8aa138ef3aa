package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tquad/internal/quad"
	"tquad/internal/trace"
)

// TestMain lets the tests re-exec this binary as the quad command.
func TestMain(m *testing.M) {
	if os.Getenv("QUAD_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// closeFailer writes through to a real file but reports a failed Close,
// as a filesystem does when it flushes a deferred write error on close.
type closeFailer struct{ f *os.File }

func (c closeFailer) Write(p []byte) (int, error) { return c.f.Write(p) }
func (c closeFailer) Close() error {
	c.f.Close()
	return errors.New("deferred write error")
}

func sampleReport() *quad.Report {
	return &quad.Report{
		Kernels:  []quad.KernelStats{{Name: "k", In: 8, InUnMA: 8, Out: 8, OutUnMA: 8}},
		Bindings: []quad.Binding{{Producer: "k", Consumer: "k", Bytes: 8}},
	}
}

// TestWriteJSONCloseErrorRemovesFile: a Close failure is an error and the
// partial file does not survive it.
func TestWriteJSONCloseErrorRemovesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = writeJSON(path, closeFailer{fh}, sampleReport())
	if err == nil || !strings.Contains(err.Error(), "deferred write error") {
		t.Fatalf("writeJSON = %v, want the Close error", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("partial file survived: stat = %v", serr)
	}
}

// TestWriteJSONRoundTrips: the success path leaves a loadable document.
func TestWriteJSONRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.json")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(path, fh, sampleReport()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	doc, err := trace.Load(f)
	if err != nil || doc.QUAD == nil || doc.QUAD.Kernels[0].Name != "k" {
		t.Fatalf("reloaded document = %+v, %v", doc, err)
	}
}

// TestJSONWriteFailureExitsNonZero: at process level, a -json target
// that fails mid-write makes the command exit non-zero and leaves a
// non-regular target in place.
func TestJSONWriteFailureExitsNonZero(t *testing.T) {
	const full = "/dev/full" // every write fails with ENOSPC
	if _, err := os.Stat(full); err != nil {
		t.Skipf("%s unavailable: %v", full, err)
	}
	cmd := exec.Command(os.Args[0], "-config", "small", "-stack", "exclude", "-json", full)
	cmd.Env = append(os.Environ(), "QUAD_BE_TOOL=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("quad -json %s: err = %v, want a non-zero exit\nstderr:\n%s", full, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-json") {
		t.Errorf("stderr does not name the failing flag:\n%s", stderr.String())
	}
	if _, err := os.Stat(full); err != nil {
		t.Fatalf("%s removed: %v", full, err)
	}
}
