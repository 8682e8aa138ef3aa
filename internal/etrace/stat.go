package etrace

import (
	"errors"
	"io"
)

// Info summarises one trace file without replaying it through any tools
// (the tqdump inspector's view).
type Info struct {
	Version     int  // format revision of the stream itself
	Checksummed bool // Version >= 2: header/chunk/footer CRC32C present
	Workload    string
	StackBase   uint64
	Routines    []Routine

	// Indexed reports whether the trace carried an index footer;
	// IndexChunks is the footer's chunk-entry count when it did.
	Indexed     bool
	IndexChunks int

	Chunks    int
	Statics   uint64
	Reads     uint64
	Writes    uint64
	Calls     uint64
	Returns   uint64
	Skipped   uint64 // predicated events that did not execute
	BlockDefs uint64
	Blocks    uint64

	// Final state from the end record; valid only when Complete.
	Complete    bool
	FinalICount uint64
	FinalPC     uint64
	ExitCode    int64
	Halted      bool
}

// Stat summarises the size-byte trace in ra by decoding every chunk its
// index lists — the footer's, or one rebuilt by a frame scan — without
// applying a record to any tool.  A trace that decodes cleanly but stops
// before its end record (cut at a chunk boundary) is reported with
// Complete false rather than as an error, so partial recordings stay
// inspectable.
func Stat(ra io.ReaderAt, size int64) (*Info, error) {
	hdr, start, err := readHeader(ra, size)
	if err != nil {
		return nil, err
	}
	info := &Info{
		Version:     int(hdr.version),
		Checksummed: hdr.version >= 2,
		Workload:    hdr.workload,
		StackBase:   hdr.stackBase,
		Routines:    hdr.routines,
	}
	idx, _, err := locateChunks(ra, hdr.version, start, size, false)
	if errors.Is(err, errTruncated) {
		return info, nil // header only: no chunk was ever flushed
	}
	if err != nil {
		return nil, err
	}
	if idx.FromFooter {
		info.Indexed = true
		info.IndexChunks = len(idx.Chunks)
	}
	cr := chunkReader{ra: ra, version: hdr.version, fromFooter: idx.FromFooter}
	err = cr.walk(idx.Chunks, func(_ ChunkRef, recs []record, _ bool, err error) error {
		if err != nil && !errors.Is(err, errTruncated) {
			return err
		}
		info.Chunks++
		for i := range recs {
			info.count(&recs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// count tallies one decoded record.
func (info *Info) count(rec *record) {
	switch rec.kind {
	case recStatic:
		info.Statics++
	case recRead:
		info.Reads++
	case recWrite:
		info.Writes++
	case recCall:
		info.Calls++
	case recReturn:
		info.Returns++
	case recBlockDef:
		info.BlockDefs++
	case recBlock:
		info.Blocks++
	case recEnd:
		info.Complete = true
		info.FinalICount = rec.ic
		info.FinalPC = rec.pc
		info.ExitCode = rec.exitCode
		info.Halted = rec.halted
	}
	// Only executable event kinds carry the skipped flag; a hostile tag
	// smuggling it onto an end or block record must not inflate the
	// tally.
	switch rec.kind {
	case recRead, recWrite, recCall, recReturn:
		if !rec.executed {
			info.Skipped++
		}
	}
}
