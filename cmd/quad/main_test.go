package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests re-exec this binary as the quad command.
func TestMain(m *testing.M) {
	if os.Getenv("QUAD_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
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
