package main

// Golden tests for the command itself: with memsim disabled the output
// must stay byte-identical to the pre-memsim baseline captured in
// testdata/, and a cache sweep must render identically at any -jobs.
// The tests re-exec the test binary with TQUAD_BE_TOOL set, which makes
// TestMain dispatch straight into main() — a real process-level run,
// flag parsing and exit codes included, with no flag-redefinition games.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("TQUAD_BE_TOOL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf re-executes this test binary as the tquad command and returns
// its stdout.
func runSelf(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("tquad %v: %v\nstderr:\n%s", args, err, errb.String())
	}
	if errb.Len() != 0 {
		t.Fatalf("tquad %v wrote to stderr:\n%s", args, errb.String())
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

// TestGoldenBaselineSingle: a single run with memsim disabled is
// byte-identical to the output captured before the memsim PR.
func TestGoldenBaselineSingle(t *testing.T) {
	got := runSelf(t, "-config", "small", "-slice", "200000")
	if want := golden(t, "golden_small_200000.txt"); got != want {
		t.Errorf("single-run output drifted from pre-memsim baseline:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenBaselineSweep: a slice sweep with memsim disabled matches the
// pre-memsim baseline at jobs=1 and jobs=4.
func TestGoldenBaselineSweep(t *testing.T) {
	want := golden(t, "golden_small_sweep.txt")
	for _, jobs := range []string{"1", "4"} {
		got := runSelf(t, "-config", "small", "-slice", "200000,400000", "-jobs", jobs)
		if got != want {
			t.Errorf("jobs=%s sweep output drifted from pre-memsim baseline:\n--- got ---\n%s--- want ---\n%s", jobs, got, want)
		}
	}
}

// TestGoldenCacheSweepDeterministic: the acceptance-criteria sweep — four
// cache geometries off one recorded execution — renders byte-identically
// at any parallelism.
func TestGoldenCacheSweepDeterministic(t *testing.T) {
	const caches = "l1=1k/2/64;l1=2k/4/64;l1=4k/4/64,l2=32k/8/64;l1=8k/8/64,l2=64k/8/64,llc=256k/16/64"
	a := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-jobs", "1")
	b := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-jobs", "4")
	if a != b {
		t.Errorf("cache sweep output depends on -jobs:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", a, b)
	}
	if !bytes.Contains([]byte(a), []byte("cache sweep comparison")) {
		t.Error("cache sweep output missing the comparison table")
	}
}

// TestGoldenRecordReplayParallel: -record then -replay must print the
// same charts and statistics as the live run, and the indexed parallel
// replay (-replay-jobs > 1) must be byte-identical to the sequential
// one — at single-worker, multi-worker and GOMAXPROCS settings, with
// both stack policies.
func TestGoldenRecordReplayParallel(t *testing.T) {
	trace := t.TempDir() + "/small.etrace"
	if got, want := runSelf(t, "-config", "small", "-slice", "200000", "-record", trace),
		"event trace written to "+trace+"\n"+golden(t, "golden_small_200000.txt"); got != want {
		t.Errorf("recorded run drifted from the live golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, stack := range []string{"include", "exclude"} {
		want := runSelf(t, "-replay", trace, "-slice", "200000", "-stack", stack, "-replay-jobs", "1")
		if stack == "include" {
			assertReplayMatchesLive(t, trace, want)
		}
		for _, jobs := range []string{"2", "4", "0"} {
			got := runSelf(t, "-replay", trace, "-slice", "200000", "-stack", stack, "-replay-jobs", jobs)
			if got != want {
				t.Errorf("-stack %s -replay-jobs %s output differs from sequential replay:\n--- got ---\n%s--- want ---\n%s",
					stack, jobs, got, want)
			}
		}
	}
}

// TestGoldenRecordSweepReplay: a trace recorded by a two-interval sweep
// replays to the live single-run golden, and recording does not change
// the sweep's own report.
func TestGoldenRecordSweepReplay(t *testing.T) {
	trace := t.TempDir() + "/sweep.etrace"
	if got, want := runSelf(t, "-config", "small", "-slice", "200000,400000", "-record", trace),
		"event trace written to "+trace+"\n"+golden(t, "golden_small_sweep.txt"); got != want {
		t.Errorf("recorded sweep drifted from the live golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	assertReplayMatchesLive(t, trace, runSelf(t, "-replay", trace, "-slice", "200000"))
}

// assertReplayMatchesLive checks a -slice 200000 replay of trace against
// the live golden: identical apart from the header's label.
func assertReplayMatchesLive(t *testing.T, trace, replay string) {
	t.Helper()
	live := golden(t, "golden_small_200000.txt")
	got, ok := strings.CutPrefix(replay, "tQUAD (replay of "+trace+")")
	want, _ := strings.CutPrefix(live, "tQUAD")
	if !ok || got != want {
		t.Errorf("replay differs from the live run beyond its header:\n--- replay ---\n%s--- live ---\n%s", replay, live)
	}
}

// TestGoldenSweepReplayJobs: a cache sweep's batched replays decode in
// parallel without changing a byte of output.
func TestGoldenSweepReplayJobs(t *testing.T) {
	const caches = "l1=1k/2/64;l1=4k/4/64,l2=32k/8/64"
	want := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-replay-jobs", "1")
	got := runSelf(t, "-config", "small", "-slice", "200000", "-cache", caches, "-replay-jobs", "4")
	if got != want {
		t.Errorf("sweep output depends on -replay-jobs:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", want, got)
	}
}

// TestRecordFailureRemovesTrace: a grid that fails after -record probed
// its output path exits non-zero and leaves no file there, and no
// journal directory beside it.
func TestRecordFailureRemovesTrace(t *testing.T) {
	dir := t.TempDir()
	trace := dir + "/failed.etrace"
	cmd := exec.Command(os.Args[0], "-config", "small", "-slice", "200000,400000", "-max-icount", "1000", "-record", trace)
	cmd.Env = append(os.Environ(), "TQUAD_BE_TOOL=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("over-budget grid: err = %v, want a non-zero exit\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "instruction budget exhausted") {
		t.Errorf("stderr does not name the failure:\n%s", errb.String())
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("left behind %v (%v)", ents, err)
	}
}
