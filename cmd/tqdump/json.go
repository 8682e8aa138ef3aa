// Machine-readable -etrace output (-json): one JSON object per trace,
// with the same triage exit codes as the text mode.  The schema is
// stable — scripts and the test suite pin it — so new fields may be
// added but existing ones never change meaning or type.
package main

import (
	"encoding/json"
	"io"
	"os"

	"tquad/internal/etrace"
)

// traceJSON is the -etrace -json document.
type traceJSON struct {
	Path string `json:"path"`
	// Status triages the trace: "ok", "damaged" or "unreadable" —
	// mirroring exit codes 0, 3 and 4.
	Status   string `json:"status"`
	ExitCode int    `json:"exit_code"`
	Error    string `json:"error,omitempty"` // unreadable only

	Version     int  `json:"version,omitempty"`
	Checksummed bool `json:"checksummed,omitempty"`

	// Identity and record counts, present when the stream decodes
	// (status "ok").
	Workload  string            `json:"workload,omitempty"`
	StackBase uint64            `json:"stack_base,omitempty"`
	Routines  int               `json:"routines,omitempty"`
	Records   *traceRecordsJSON `json:"records,omitempty"`

	Index *traceIndexJSON `json:"index,omitempty"`

	// Per-chunk verification table (always present for readable traces).
	Chunks        []traceChunkJSON `json:"chunks"`
	BadChunks     int              `json:"bad_chunks"`
	LostTailBytes int64            `json:"lost_tail_bytes"`
	Complete      bool             `json:"complete"`

	Final *traceFinalJSON `json:"final,omitempty"` // only when complete
}

type traceRecordsJSON struct {
	Statics   uint64 `json:"statics"`
	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Calls     uint64 `json:"calls"`
	Returns   uint64 `json:"returns"`
	Skipped   uint64 `json:"skipped"`
	BlockDefs uint64 `json:"block_defs"`
	Blocks    uint64 `json:"blocks"`
}

type traceIndexJSON struct {
	Present bool   `json:"present"`
	Chunks  int    `json:"chunks"`
	Error   string `json:"error,omitempty"`
}

type traceChunkJSON struct {
	Offset  int64  `json:"offset"`
	Size    int64  `json:"size"`
	Records uint64 `json:"records,omitempty"`
	StartIC uint64 `json:"start_ic,omitempty"`
	EndIC   uint64 `json:"end_ic,omitempty"`
	Error   string `json:"error,omitempty"`
}

type traceFinalJSON struct {
	ICount   uint64 `json:"icount"`
	PC       uint64 `json:"pc"`
	ExitCode int64  `json:"exit_code"`
	Halted   bool   `json:"halted"`
}

// dumpTraceJSON is dumpTrace's machine-readable twin: same verification
// pass, same exit codes, JSON on w instead of prose.
func dumpTraceJSON(w io.Writer, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 1, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 1, err
	}
	doc := traceJSON{Path: path, Chunks: []traceChunkJSON{}}
	health, err := etrace.Verify(f, st.Size())
	if err != nil {
		doc.Status = "unreadable"
		doc.ExitCode = exitTraceUnreadable
		doc.Error = err.Error()
		return doc.ExitCode, writeTraceJSON(w, &doc)
	}
	doc.Version = health.Version
	doc.Checksummed = health.Checksummed
	doc.Index = &traceIndexJSON{Present: health.Indexed, Chunks: len(health.Chunks), Error: health.IndexErr}
	for _, c := range health.Chunks {
		doc.Chunks = append(doc.Chunks, traceChunkJSON{
			Offset: c.Ref.Offset, Size: c.Ref.Size, Records: c.Ref.Records,
			StartIC: c.Ref.StartIC, EndIC: c.Ref.EndIC, Error: c.Err,
		})
	}
	doc.BadChunks = health.Bad
	doc.LostTailBytes = health.LostTailBytes
	doc.Complete = health.Complete

	if health.Damaged() {
		doc.Status = "damaged"
		doc.ExitCode = exitTraceSalvageable
		return doc.ExitCode, writeTraceJSON(w, &doc)
	}
	info, err := etrace.Stat(f, st.Size())
	if err != nil {
		// Verify passed but the record stream does not decode: treat as
		// damage rather than a host failure, keeping exit-code semantics.
		doc.Status = "damaged"
		doc.ExitCode = exitTraceSalvageable
		doc.Error = err.Error()
		return doc.ExitCode, writeTraceJSON(w, &doc)
	}
	doc.Status = "ok"
	doc.ExitCode = exitTraceOK
	doc.Workload = info.Workload
	doc.StackBase = info.StackBase
	doc.Routines = len(info.Routines)
	doc.Records = &traceRecordsJSON{
		Statics: info.Statics, Reads: info.Reads, Writes: info.Writes,
		Calls: info.Calls, Returns: info.Returns, Skipped: info.Skipped,
		BlockDefs: info.BlockDefs, Blocks: info.Blocks,
	}
	if info.Complete {
		doc.Final = &traceFinalJSON{
			ICount: info.FinalICount, PC: info.FinalPC,
			ExitCode: info.ExitCode, Halted: info.Halted,
		}
	}
	return doc.ExitCode, writeTraceJSON(w, &doc)
}

func writeTraceJSON(w io.Writer, doc *traceJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
