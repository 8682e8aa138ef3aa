package main

// Golden tests for the command itself: its stdout is the source of
// EXPERIMENTS.md, so the whole evaluation report for the small
// configuration — with and without the memory-hierarchy study — is
// pinned byte for byte at sequential and default parallelism.  The
// tests re-exec the test binary with WFSSTUDY_BE_TOOL set, which makes
// TestMain dispatch straight into main(): a real process-level run,
// flag parsing and exit codes included.

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("WFSSTUDY_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf re-executes this test binary as the wfsstudy command and
// returns its stdout.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "WFSSTUDY_BE_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("wfsstudy %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	if errb.Len() != 0 {
		t.Fatalf("wfsstudy %v wrote to stderr:\n%s", args, errb.String())
	}
	return out.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenSmall: the full Table I–IV / Figure 6–7 / slowdown /
// clustering report for the small configuration, at -jobs 1 and at the
// default (GOMAXPROCS).
func TestGoldenSmall(t *testing.T) {
	want := golden(t, "golden_small.txt")
	for _, jobs := range [][]string{{"-jobs", "1"}, nil} {
		args := append([]string{"-config", "small"}, jobs...)
		if got := runSelf(t, args...); got != want {
			t.Errorf("wfsstudy %v drifted from golden:\n--- got ---\n%s--- want ---\n%s", args, got, want)
		}
	}
}

// TestGoldenSmallCache: the same report plus the memory-hierarchy
// study for one two-level geometry.
func TestGoldenSmallCache(t *testing.T) {
	want := golden(t, "golden_small_cache.txt")
	for _, jobs := range [][]string{{"-jobs", "1"}, nil} {
		args := append([]string{"-config", "small", "-cache", "l1=4k/4/64,l2=32k/8/64"}, jobs...)
		if got := runSelf(t, args...); got != want {
			t.Errorf("wfsstudy %v drifted from golden:\n--- got ---\n%s--- want ---\n%s", args, got, want)
		}
	}
}
