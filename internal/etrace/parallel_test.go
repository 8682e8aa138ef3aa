package etrace_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"tquad/internal/core"
	"tquad/internal/etrace"
	"tquad/internal/flatprof"
	"tquad/internal/pin"
	"tquad/internal/trace"
	"tquad/internal/vm"
	"tquad/internal/wfs"
)

// coreProfile replays rec sequentially (one decode job) with one core
// tool attached and returns the serialised profile plus final state.
func coreProfile(t *testing.T, rec *recorded, includeStack bool) ([]byte, *etrace.Consumer) {
	t.Helper()
	pr, rp := replayer(t, rec)
	tool := core.Attach(rp, core.Options{SliceInterval: 10_000, IncludeStack: includeStack})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.SaveTemporal(&buf, tool.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rp
}

// TestParallelMatchesSequential: for every worker count and both stack
// policies, an indexed parallel replay must be byte-identical to the
// inline-decode (Jobs 1) replay — same profile serialisation, same final
// machine state.
func TestParallelMatchesSequential(t *testing.T) {
	rec := record(t)
	for _, includeStack := range []bool{true, false} {
		want, seq := coreProfile(t, rec, includeStack)
		for _, jobs := range []int{2, 4, 0} {
			pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
				etrace.ParallelOptions{Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			if idx := pr.Index(); !idx.FromFooter {
				t.Fatal("fresh recording lacks a footer index")
			}
			host := pr.NewConsumer()
			tool := core.Attach(host, core.Options{SliceInterval: 10_000, IncludeStack: includeStack})
			if err := pr.Replay(); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := trace.SaveTemporal(&got, tool.Snapshot()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("jobs=%d stack=%v: parallel profile differs from sequential", jobs, includeStack)
			}
			if host.ICount() != seq.ICount() || host.Time() != seq.Time() ||
				host.ExitCode() != seq.ExitCode() || host.Halted() != seq.Halted() ||
				host.MemStats() != seq.MemStats() {
				t.Errorf("jobs=%d stack=%v: parallel final state differs", jobs, includeStack)
			}
		}
	}
}

// TestParallelFanOut: one decode pass drives several differently
// configured consumers, each matching its own dedicated sequential
// replay exactly.
func TestParallelFanOut(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	inclHost := pr.NewConsumer()
	incl := core.Attach(inclHost, core.Options{SliceInterval: 10_000, IncludeStack: true})
	exclHost := pr.NewConsumer()
	excl := core.Attach(exclHost, core.Options{SliceInterval: 10_000, IncludeStack: false})
	flatHost := pr.NewConsumer()
	flat := flatprof.Attach(flatHost, flatprof.Options{})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}

	wantIncl, _ := coreProfile(t, rec, true)
	wantExcl, _ := coreProfile(t, rec, false)
	for name, pair := range map[string][2][]byte{
		"include-stack": {marshalProfile(t, incl.Snapshot()), wantIncl},
		"exclude-stack": {marshalProfile(t, excl.Snapshot()), wantExcl},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s consumer differs from its sequential replay", name)
		}
	}

	seqPR, seqFlatHost := replayer(t, rec)
	seqFlat := flatprof.Attach(seqFlatHost, flatprof.Options{})
	if err := seqPR.Replay(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.SaveFlat(&a, flat.Report()); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFlat(&b, seqFlat.Report()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("flatprof consumer differs from sequential")
	}
}

func marshalProfile(t *testing.T, prof *core.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.SaveTemporal(&buf, prof); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelV1Fallback: a footer-less trace (anything recorded before
// the index existed) replays through the frame-scan index with identical
// results.
func TestParallelV1Fallback(t *testing.T) {
	rec := record(t)
	idx, err := etrace.ReadIndex(bytes.NewReader(rec.data), int64(len(rec.data)))
	if err != nil || idx == nil {
		t.Fatalf("footer index: %v", err)
	}
	v1 := rec.data[:idx.DataEnd] // strip the footer: a v1 trace

	want, seq := coreProfile(t, rec, true)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(v1), int64(len(v1)), etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Index().FromFooter {
		t.Fatal("stripped trace still reports a footer index")
	}
	host := pr.NewConsumer()
	tool := core.Attach(host, core.Options{SliceInterval: 10_000, IncludeStack: true})
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalProfile(t, tool.Snapshot()), want) {
		t.Error("v1 fallback replay differs from sequential")
	}
	if host.ICount() != seq.ICount() {
		t.Errorf("v1 fallback ICount %d, sequential %d", host.ICount(), seq.ICount())
	}
}

// TestParallelCancel: a cancelled context stops the replay with a
// vm.CancelError, the way a live machine reports cancellation.
func TestParallelCancel(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = pr.ReplayContext(ctx)
	var ce *vm.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled replay returned %v, want *vm.CancelError", err)
	}
}

// TestParallelProgress: a registered progress callback receives a
// monotonic stream of replayed instruction counts, never past the
// recorded count, with no cancellable context attached — the live
// dashboard's replay heartbeat.
func TestParallelProgress(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	var beats []uint64
	pr.OnProgress(func(ic uint64) { beats = append(beats, ic) })
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if len(beats) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(beats); i++ {
		if beats[i] < beats[i-1] {
			t.Fatalf("progress went backwards: %d then %d", beats[i-1], beats[i])
		}
	}
	if last := beats[len(beats)-1]; last > rec.icount {
		t.Errorf("progress %d exceeds recorded icount %d", last, rec.icount)
	}
}

// TestParallelReplayTwiceFails: a replayer is single-use.
func TestParallelReplayTwiceFails(t *testing.T) {
	rec := record(t)
	pr, err := etrace.NewParallelReplayer(bytes.NewReader(rec.data), int64(len(rec.data)),
		etrace.ParallelOptions{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	pr.NewConsumer()
	if err := pr.Replay(); err != nil {
		t.Fatal(err)
	}
	if err := pr.Replay(); err == nil {
		t.Error("second Replay did not error")
	}
}

// FuzzIndex drives arbitrary bytes through the indexed parallel pipeline
// against the streaming decode oracle (etrace.StreamReplay), which walks
// chunk frames by their length prefixes and never reads the index.  The
// contract: never a panic or hang; and whenever the indexed replay
// succeeds, the streaming replay of the same bytes succeeds with the
// identical final state.  (The reverse implication does not hold: the
// indexed decoder additionally rejects non-canonical chunk length
// prefixes and mid-trace end records that a pure stream decode cannot
// distinguish.)
func FuzzIndex(f *testing.F) {
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		f.Fatal(err)
	}
	data := recordBytes(f, w)
	f.Add(data)
	if idx, err := etrace.ReadIndex(bytes.NewReader(data), int64(len(data))); err == nil && idx != nil {
		f.Add(data[:idx.DataEnd])                  // footer stripped: v1 shape
		f.Add(data[:idx.DataEnd+4])                // cut mid-footer
		f.Add(append(data[:idx.DataEnd], data...)) // doubled stream
		half := data[:idx.Chunks[len(idx.Chunks)/2].Offset]
		f.Add(half) // cut at a chunk boundary
	}
	f.Add(data[:64])
	f.Add([]byte("TQIX"))
	f.Fuzz(func(t *testing.T, b []byte) {
		pr, err := etrace.NewParallelReplayer(bytes.NewReader(b), int64(len(b)), etrace.ParallelOptions{Jobs: 2})
		if err != nil {
			return
		}
		par := pr.NewConsumer()
		if pr.Replay() != nil {
			return
		}
		// The index accepted the input: the stream decode must agree.
		rp, err := etrace.StreamReplay(b)
		if err != nil {
			t.Fatalf("indexed replay succeeded, streaming replay failed: %v", err)
		}
		if par.ICount() != rp.ICount() || par.ExitCode() != rp.ExitCode() ||
			par.Halted() != rp.Halted() || par.MemStats() != rp.MemStats() {
			t.Fatal("indexed and streaming replays disagree on final state")
		}
	})
}

// recordBytes captures a fresh recording for fuzz seeding (the cached
// record(t) helper needs a *testing.T).
func recordBytes(f *testing.F, w *wfs.Workload) []byte {
	f.Helper()
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	rec, err := etrace.Record(e, &buf, etrace.RecordOptions{Workload: "seed", Blocks: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		f.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
