package jobd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tquad/internal/study"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	var s JobSpec
	if err := s.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if s.Workload != "wfs" || s.Config != "small" || s.Stack != "include" ||
		s.Engine != "block" || s.Metric != "reads" || s.Kernels != "top" || s.Width != 64 {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	if len(s.Slices) != 1 || s.Slices[0] != 0 {
		t.Fatalf("slices default: %v", s.Slices)
	}
}

func TestSpecNormalizeDedupAndCanonicalise(t *testing.T) {
	s := JobSpec{
		Slices: []uint64{400000, 200000, 400000},
		Caches: []string{"l1=32k/8/64", "l1=32768/8/64"},
	}
	if err := s.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if len(s.Slices) != 2 || s.Slices[0] != 400000 || s.Slices[1] != 200000 {
		t.Fatalf("slice dedup: %v", s.Slices)
	}
	// 32k and 32768 canonicalise to the same geometry key.
	if len(s.Caches) != 1 {
		t.Fatalf("cache dedup: %v", s.Caches)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	for _, bad := range []JobSpec{
		{Workload: "nope"},
		{Config: "huge"},
		{Stack: "sideways"},
		{Engine: "jit"},
		{Metric: "latency"},
		{Kernels: "bottom"},
		{Caches: []string{"not-a-cache"}},
		{Retries: -1},
		{Width: -3},
	} {
		s := bad
		if err := s.normalize(); err == nil {
			t.Errorf("normalize(%+v): want error", bad)
		}
	}
}

func TestStoreReplayResumesRunningAndSkipsTornLine(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	spec := JobSpec{}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j1, err := st.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j2, err := st.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := st.markStart(j1.ID); err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := st.markSucceeded(j2.ID, []Artifact{{Name: "report.txt", Digest: "sha256:" + strings.Repeat("ab", 32), Size: 7}}, 3); err != nil {
		t.Fatalf("finish: %v", err)
	}
	st.Close()

	// A kill mid-append leaves a torn final line; replay must shrug it off.
	f, err := os.OpenFile(filepath.Join(dir, "jobs.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"finish","job":"` + j1.ID + `","sta`)
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	g1, ok := st2.Get(j1.ID)
	if !ok {
		t.Fatalf("job %s lost on replay", j1.ID)
	}
	if g1.State != StateQueued || !g1.Resumed || g1.Attempt != 1 {
		t.Fatalf("interrupted job after replay: state=%s resumed=%v attempt=%d", g1.State, g1.Resumed, g1.Attempt)
	}
	g2, _ := st2.Get(j2.ID)
	if g2.State != StateSucceeded || g2.GuestExecutions != 3 || len(g2.Artifacts) != 1 {
		t.Fatalf("finished job after replay: %+v", g2)
	}
	// ID allocation continues past the journalled maximum.
	j3, err := st2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID <= j2.ID {
		t.Fatalf("ID went backwards: %s after %s", j3.ID, j2.ID)
	}
}

// TestStoreDoubleCrashKeepsAppendAfterTornLine: crash mid-append (torn
// line), boot, submit, crash again, boot — the submit acknowledged
// after the first recovery must survive the second boot, not be glued
// onto the torn fragment and lost.
func TestStoreDoubleCrashKeepsAppendAfterTornLine(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := st.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	f, err := os.OpenFile(filepath.Join(dir, "jobs.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"submit","job":"j0002","sp`)
	f.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("boot after torn write: %v", err)
	}
	j2, err := st2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2.Close() // the second crash: nothing beyond the fsynced journal survives

	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	defer st3.Close()
	for _, id := range []string{j1.ID, j2.ID} {
		if _, ok := st3.Get(id); !ok {
			t.Errorf("job %s lost across two boots; jobs now %v", id, st3.Jobs())
		}
	}
}

func TestArtifactStoreDedupAndRoundTrip(t *testing.T) {
	as, err := openArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("effective bandwidth report\n")
	a1, err := as.PutBytes("report.txt", content)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	a2, err := as.PutBytes("copy.txt", content)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if a1.Digest != a2.Digest {
		t.Fatalf("same content, different digests: %s vs %s", a1.Digest, a2.Digest)
	}
	if a1.Size != int64(len(content)) {
		t.Fatalf("size %d, want %d", a1.Size, len(content))
	}
	f, err := as.Open(a1.Digest)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	got, _ := io.ReadAll(f)
	f.Close()
	if !bytes.Equal(got, content) {
		t.Fatalf("round trip: got %q", got)
	}
	for _, bad := range []string{"sha256:short", "md5:" + strings.Repeat("ab", 32), "sha256:" + strings.Repeat("zz", 32), "../../etc/passwd"} {
		if _, err := as.Open(bad); err == nil {
			t.Errorf("Open(%q): want error", bad)
		}
	}
}

// TestDaemonLifecycle drives the full queue: one worker, a blocked
// running job, a queued job canceled while waiting, the running job
// canceled mid-guest, a retry, and finally a real sweep to success with
// artifacts.
func TestDaemonLifecycle(t *testing.T) {
	block := make(chan struct{})
	d, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 1,
		Hooks: study.Hooks{
			BeforeRun: func(ctx context.Context, cfg study.RunConfig, attempt int) error {
				select {
				case <-block:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	spec := JobSpec{Config: "small", Slices: []uint64{200000}, SkipTables: true}
	j1, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, d, j1.ID, StateRunning)
	j2, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// j2 is queued behind the blocked j1: cancel is immediate.
	if err := d.Cancel(j2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	waitState(t, d, j2.ID, StateCanceled)

	// Cancelling the running job unblocks the worker via its context.
	if err := d.Cancel(j1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	waitState(t, d, j1.ID, StateCanceled)
	if err := d.Cancel(j1.ID); err == nil {
		t.Fatal("cancel of a terminal job: want error")
	}

	// Retry re-queues; with the gate open the sweep runs to success.
	close(block)
	if err := d.Retry(j2.ID); err != nil {
		t.Fatalf("retry: %v", err)
	}
	waitState(t, d, j2.ID, StateSucceeded)
	got, _ := d.Job(j2.ID)
	for _, name := range []string{"report.txt", "chart.svg", "trace.etrace"} {
		if _, ok := got.Artifact(name); !ok {
			t.Errorf("missing artifact %s (have %v)", name, got.Artifacts)
		}
	}
	if got.GuestExecutions == 0 {
		t.Error("fresh run reported zero guest executions")
	}
	if err := d.Retry(j2.ID); err == nil {
		t.Error("retry of a succeeded job: want error")
	}
}

func waitState(t *testing.T, d *Daemon, id, state string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := d.Job(id); ok && j.State == state {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := d.Job(id)
	t.Fatalf("job %s never reached %s (state %s, err %q)", id, state, j.State, j.Error)
}

// TestSubmitRejectsOversizedBody: a POST /api/jobs body past the spec
// bound is refused with 413 and journals nothing, while a small
// malformed spec still gets 400.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	d, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	h := (&Server{d: d}).mux()

	big := `{"config":"small","kernels":"` + strings.Repeat("x", 2*maxSpecBytes) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized spec was journalled: %+v", jobs)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader(`{"config":"nope"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad small spec: status %d, want 400", rec.Code)
	}
}

// TestSubmitRejectsOversizedGrid: a spec whose slice×cache grid exceeds
// the run bound is refused with 400 and journals nothing, while a grid
// exactly at the bound normalises.
func TestSubmitRejectsOversizedGrid(t *testing.T) {
	at := JobSpec{Caches: []string{"l1=1k/2/64", "l1=2k/2/64"}}
	for i := 0; i < maxGridRuns/2; i++ {
		at.Slices = append(at.Slices, uint64(1000+i))
	}
	if err := at.normalize(); err != nil {
		t.Fatalf("grid of %d runs: %v", maxGridRuns, err)
	}

	d, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	h := (&Server{d: d}).mux()
	slices := make([]string, maxGridRuns/2+1)
	for i := range slices {
		slices[i] = strconv.Itoa(1000 + i)
	}
	body := `{"config":"small","skip_tables":true,"caches":["l1=1k/2/64","l1=2k/2/64"],"slices":[` +
		strings.Join(slices, ",") + `]}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "at most") {
		t.Fatalf("oversized grid: status %d, want 400: %s", rec.Code, rec.Body)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("oversized grid was journalled: %+v", jobs)
	}
}

// FuzzJobSpec: decoding a spec body the way POST /api/jobs does and
// normalising it never panics, normalisation is idempotent (the
// journalled spec is already canonical), and no accepted spec exceeds
// the grid bound.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"config":"small","slices":[200000,400000],"skip_tables":true}`,
		`{"config":"study","slices":[0,0,5000],"caches":["l1=32k/8/64","l1=32768/8/64,l2=256k/8/64"]}`,
		`{"stack":"exclude","engine":"step","metric":"both","kernels":"all","width":80,"retries":2}`,
		`{"caches":["l1=1k/2/64;l1=2k/2/64"],"max_icount":1}`,
		`{"width":-1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		if err := spec.normalize(); err != nil {
			return
		}
		if runs := len(spec.Slices) * max(len(spec.Caches), 1); runs > maxGridRuns {
			t.Fatalf("accepted a grid of %d runs: %+v", runs, spec)
		}
		// Compare journal forms: the second pass starts from the spec as
		// the journal would hand it back.
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again JobSpec
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatal(err)
		}
		if err := again.normalize(); err != nil {
			t.Fatalf("normalised spec rejected on second pass: %v\n%s", err, first)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("normalize not idempotent:\nfirst  %s\nsecond %s", first, second)
		}
	})
}
