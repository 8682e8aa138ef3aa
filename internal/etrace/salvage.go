// Trace integrity: corruption classification, salvage accounting, and
// the standalone verifier behind tqdump's health report.
//
// The integrity model has two tiers.  Detection is fail-closed: a strict
// replay of a checksummed (version >= 2) trace either produces the exact
// recorded stream or stops with a CorruptError — a flipped bit inside a
// structurally-valid chunk can no longer silently shift every downstream
// bandwidth table.  Salvage is fail-soft: with the index and per-chunk
// CRCs, a replay can skip exactly the damaged chunks (every delta chain
// resets at a chunk boundary, so the loss does not cascade) and report
// precisely what is missing.
package etrace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"tquad/internal/vm"
)

// SalvageReport tallies what a salvage replay lost.  Counts are exact for
// what the replay observed; RecordsLost/EventsLost/ICountLost come from
// the index footer's per-chunk hints and are zero when the trace carried
// none (a scanned index has no hints).
type SalvageReport struct {
	ChunksTotal int // chunks the replay visited (including damaged ones)
	ChunksBad   int // chunks skipped whole or in part
	CRCErrors   int // chunks whose payload checksum did not match

	RecordsLost    uint64 // records in skipped chunks (footer hint)
	EventsLost     uint64 // dynamic events in fully-skipped chunks (footer hint)
	ICountLost     uint64 // guest-instruction span of damaged chunks (footer hint)
	RecordsDropped uint64 // records that decoded but could not apply

	// TornTail: the stream ended before its end record was decoded —
	// truncation or unrecoverable framing damage at the tail.
	TornTail bool
	// FooterDamaged: the index footer was missing, malformed, or
	// disagreed with the decoded stream.
	FooterDamaged bool
	// Complete: the end record was decoded (final state is trustworthy).
	Complete bool
}

// Damaged reports whether the replay observed any loss at all.
func (r *SalvageReport) Damaged() bool {
	return r.ChunksBad > 0 || r.CRCErrors > 0 || r.RecordsDropped > 0 ||
		r.TornTail || r.FooterDamaged || !r.Complete
}

// String renders the report as the one-line gap summary the CLIs print.
func (r *SalvageReport) String() string {
	if !r.Damaged() {
		return fmt.Sprintf("intact: %d chunks", r.ChunksTotal)
	}
	s := fmt.Sprintf("salvaged %d/%d chunks (%d checksum failures)",
		r.ChunksTotal-r.ChunksBad, r.ChunksTotal, r.CRCErrors)
	if r.RecordsLost > 0 || r.ICountLost > 0 {
		s += fmt.Sprintf("; lost ~%d records, ~%d instructions", r.RecordsLost, r.ICountLost)
	}
	if r.RecordsDropped > 0 {
		s += fmt.Sprintf("; dropped %d unapplicable records", r.RecordsDropped)
	}
	if r.TornTail {
		s += "; torn tail"
	}
	if r.FooterDamaged {
		s += "; index footer damaged"
	}
	if !r.Complete {
		s += "; end record lost (final state missing)"
	}
	return s
}

// merge folds the chunk-level stats of o (decode-side accounting) into r
// (a consumer's report), leaving r's own apply-side RecordsDropped alone.
func (r *SalvageReport) merge(o *SalvageReport) {
	r.ChunksTotal = o.ChunksTotal
	r.ChunksBad = o.ChunksBad
	r.CRCErrors = o.CRCErrors
	r.RecordsLost = o.RecordsLost
	r.EventsLost = o.EventsLost
	r.ICountLost = o.ICountLost
	r.TornTail = o.TornTail
	r.FooterDamaged = o.FooterDamaged
	r.Complete = o.Complete
}

// CorruptError marks a replay failure caused by the trace bytes — damage
// or tampering, not I/O, cancellation, or caller misuse.  The scheduler
// uses the distinction to classify a corrupt recorded trace as
// re-recordable: the guest can simply be executed again.
type CorruptError struct {
	Err error
}

func (e *CorruptError) Error() string { return e.Err.Error() }
func (e *CorruptError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err (or anything it wraps) is a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// corrupt wraps a trace-content failure as a CorruptError.  Cancellation
// is the caller's signal, not the trace's fault, and double-wrapping is
// pointless — both pass through.
func corrupt(err error) error {
	if err == nil || vm.IsCancel(err) || IsCorrupt(err) {
		return err
	}
	return &CorruptError{Err: err}
}

// salvageScanIndex is ScanIndex in fail-soft mode: it walks chunk length
// prefixes from start and stops cleanly at the first framing damage,
// returning whatever prefix of the chunk table it recovered plus the
// byte count of the unreachable tail.  Unlike ScanIndex it can return an
// empty index (a trace whose first frame is already broken).
func salvageScanIndex(ra io.ReaderAt, start, end int64) (*Index, int64) {
	idx := &Index{DataEnd: end}
	off := start
	var hdr [binary.MaxVarintLen64]byte
	for off < end && len(idx.Chunks) < maxIndexEntries {
		h := hdr[:]
		if rem := end - off; rem < int64(len(h)) {
			h = h[:rem]
		}
		if _, err := ra.ReadAt(h, off); err != nil {
			break
		}
		size, n := binary.Uvarint(h)
		if n <= 0 || size == 0 || size > maxChunkLen {
			break
		}
		frame := int64(n) + int64(size)
		if off+frame > end {
			break
		}
		idx.Chunks = append(idx.Chunks, ChunkRef{Offset: off, Size: int64(size)})
		off += frame
	}
	idx.DataEnd = off
	return idx, end - off
}

// ChunkStatus is one chunk's entry in a trace health report.
type ChunkStatus struct {
	Ref ChunkRef
	Err string // empty when the chunk is healthy
}

// Health is the verifier's per-chunk view of one stored trace — what
// tqdump renders and scripts triage on.
type Health struct {
	Version     int  // format revision of the stream
	Checksummed bool // version >= 2: payloads carry CRC32C

	Indexed  bool   // an index footer was present and valid
	IndexErr string // footer present but broken (salvage fell back to a scan)

	Chunks        []ChunkStatus
	Bad           int   // chunks with a non-empty Err
	LostTailBytes int64 // bytes past the last frame the scan could reach
	Complete      bool  // final chunk ends in a well-formed end record
}

// Damaged reports whether anything at all is wrong with the trace.
func (h *Health) Damaged() bool {
	return h.Bad > 0 || h.IndexErr != "" || h.LostTailBytes > 0 || !h.Complete
}

// Verify checks one stored trace end to end — header, index footer, every
// chunk's checksum and record stream — without applying a single record
// to any tool.  It returns an error only when the header is unreadable
// (nothing downstream can be trusted); all other damage is reported in
// the Health.
func Verify(ra io.ReaderAt, size int64) (*Health, error) {
	hdr, start, err := readHeader(ra, size)
	if err != nil {
		return nil, corrupt(err)
	}
	h := &Health{Version: int(hdr.version), Checksummed: hdr.version >= 2}
	idx, err := ReadIndex(ra, size)
	switch {
	case err != nil:
		h.IndexErr = err.Error()
	case idx != nil:
		h.Indexed = true
	}
	if !h.Indexed {
		// No trusted footer: find the data end by scanning frames forward.
		idx, h.LostTailBytes = salvageScanIndex(ra, start, size)
	}

	cr := chunkReader{ra: ra, version: hdr.version, fromFooter: idx.FromFooter}
	cr.walk(idx.Chunks, func(ref ChunkRef, _ []record, hasEnd bool, err error) error {
		st := ChunkStatus{Ref: ref}
		// A missing end record makes the trace incomplete; it is not
		// damage to the final chunk.
		if err != nil && !errors.Is(err, errTruncated) {
			st.Err = strings.TrimPrefix(err.Error(), "etrace: ")
			h.Bad++
		}
		h.Complete = hasEnd
		h.Chunks = append(h.Chunks, st)
		return nil
	})
	return h, nil
}
