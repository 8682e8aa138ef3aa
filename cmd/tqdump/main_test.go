package main

import (
	"bytes"
	"strings"
	"testing"

	"tquad/internal/etrace"
	"tquad/internal/pin"
	"tquad/internal/wfs"
)

// boundedReaderAt serves a trace and fails the test if the dumper ever
// asks for a big contiguous read — the signature of whole-file
// buffering (io.ReadAll / os.ReadFile style) that -etrace must never
// do: recorded traces can be orders of magnitude larger than memory.
type boundedReaderAt struct {
	t    *testing.T
	data []byte
}

func (r *boundedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if len(p) > 256<<10 {
		r.t.Fatalf("dump requested a %d-byte read: trace is being buffered, not streamed", len(p))
	}
	return bytes.NewReader(r.data).ReadAt(p, off)
}

// recordTrace captures the small WFS workload's event trace.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	w, err := wfs.NewWorkload(wfs.Small())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := w.NewMachine()
	e := pin.NewEngine(m)
	var buf bytes.Buffer
	rec, err := etrace.Record(e, &buf, etrace.RecordOptions{Workload: "wfs/small", Blocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wfs.MaxInstr); err != nil {
		t.Fatal(err)
	}
	if err := rec.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDumpTraceStreams(t *testing.T) {
	data := recordTrace(t)
	if len(data) < 1<<20 {
		t.Fatalf("recorded trace is only %d bytes; too small to prove streaming", len(data))
	}
	var out strings.Builder
	if err := dumpTraceInfo(&out, "stream.etrace", &boundedReaderAt{t: t, data: data}, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	dump := out.String()
	for _, want := range []string{
		"event trace stream.etrace: format v2",
		"routines (",
		"index: footer with",
		"final state:",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}

	// The same dump over an unbounded reader must be identical: chunked
	// reading is a transport detail, not a different report.
	var out2 strings.Builder
	if err := dumpTraceInfo(&out2, "stream.etrace", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if out2.String() != dump {
		t.Error("streamed dump differs from seekable dump")
	}
}

func TestDumpTraceTruncated(t *testing.T) {
	data := recordTrace(t)
	// Cut at a chunk boundary: mid-chunk cuts are decode errors, but a
	// recording that died between flushes is still inspectable.
	idx, err := etrace.ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil || idx == nil || len(idx.Chunks) < 2 {
		t.Fatalf("trace index unavailable for boundary cut: %v (%+v)", err, idx)
	}
	cut := idx.Chunks[len(idx.Chunks)/2].Offset
	var out strings.Builder
	if err := dumpTraceInfo(&out, "cut.etrace", bytes.NewReader(data[:cut]), cut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "final state: MISSING") {
		t.Errorf("truncated dump should report a missing final state:\n%s", out.String())
	}
	if strings.Contains(out.String(), "index: footer") {
		t.Errorf("truncated dump should not claim an index footer:\n%s", out.String())
	}
}
