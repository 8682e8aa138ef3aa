package etrace

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"tquad/internal/pin"
	"tquad/internal/vm"
)

// synthTrace hand-assembles a valid indexed trace of nchunks chunks of
// block records — small enough to corrupt surgically, real enough to
// replay.
func synthTrace(t *testing.T, nchunks int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newWriter(&buf, header{stackBase: 0x40000, workload: "synth"})
	ic := uint64(0)
	w.blockDef(0x1000, 4)
	for c := 0; c < nchunks-1; c++ {
		for i := 0; i < 8; i++ {
			ic += 4
			w.block(ic, 0)
		}
		w.flush()
	}
	ic += 4
	if err := w.end(ic, 0x2000, 0, true); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFooterRoundTrip(t *testing.T) {
	data := synthTrace(t, 4)
	idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if idx == nil || !idx.FromFooter {
		t.Fatal("indexed trace did not yield a footer index")
	}
	if len(idx.Chunks) != 4 {
		t.Fatalf("footer lists %d chunks, wrote 4", len(idx.Chunks))
	}
	for i, c := range idx.Chunks {
		if c.Records == 0 {
			t.Errorf("chunk %d: footer carries no record-count hint", i)
		}
	}
	// A frame scan over the same region must agree on every boundary.
	scanned, err := ScanIndex(bytes.NewReader(data), idx.Chunks[0].Offset, idx.DataEnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned.Chunks) != len(idx.Chunks) {
		t.Fatalf("scan found %d chunks, footer %d", len(scanned.Chunks), len(idx.Chunks))
	}
	for i := range scanned.Chunks {
		if scanned.Chunks[i].Offset != idx.Chunks[i].Offset || scanned.Chunks[i].Size != idx.Chunks[i].Size {
			t.Errorf("chunk %d: scan %+v, footer %+v", i, scanned.Chunks[i], idx.Chunks[i])
		}
	}
}

// TestReadIndexFailsClosed: a footer that is present but damaged must be
// an error — never a silent fallback, never a panic.  Only the complete
// absence of the trailer magic means "v1 trace, no footer".
func TestReadIndexFailsClosed(t *testing.T) {
	// Baseline: 100 bytes of pretend chunk data covered by one entry
	// ending exactly at the footer ([1, 1+1+98) with a 1-byte prefix).
	base := []ChunkRef{{Offset: 1, Size: 98, Records: 5, Events: 3, StartIC: 1, EndIC: 9}}
	blob := func(chunks []ChunkRef, mutate func([]byte) []byte) []byte {
		b := append(make([]byte, 100), appendFooter(nil, chunks, indexVersion)...)
		if mutate != nil {
			b = mutate(b)
		}
		return b
	}
	if idx, err := ReadIndex(bytes.NewReader(blob(base, nil)), 100+int64(len(appendFooter(nil, base, indexVersion)))); err != nil || idx == nil {
		t.Fatalf("baseline footer did not parse: %v", err)
	}

	cases := map[string][]byte{
		"length field too large": blob(base, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], uint32(len(b))) // claims past file start
			return b
		}),
		"length field off by one": blob(base, func(b []byte) []byte {
			n := binary.LittleEndian.Uint32(b[len(b)-trailerLen:])
			binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], n-1)
			return b
		}),
		"payload magic corrupt": blob(base, func(b []byte) []byte {
			b[len(b)-trailerLen-int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))] ^= 0xff
			return b
		}),
		"future index version": blob(base, func(b []byte) []byte {
			start := len(b) - trailerLen - int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))
			b[start+len(indexMagic)] = indexVersionCRC + 1
			return b
		}),
		"crc version without checksum": blob(base, func(b []byte) []byte {
			// Claiming the checksummed revision on a v1-shaped payload must
			// fail the checksum, never parse the entry bytes as a CRC.
			start := len(b) - trailerLen - int64ToInt(int64(binary.LittleEndian.Uint32(b[len(b)-trailerLen:])))
			b[start+len(indexMagic)] = indexVersionCRC
			return b
		}),
		"zero entries":       blob(nil, nil),
		"records hint zero":  blob([]ChunkRef{{Offset: 1, Size: 98}}, nil),
		"events exceed recs": blob([]ChunkRef{{Offset: 1, Size: 98, Records: 1, Events: 2}}, nil),
		"ic span inverted":   blob([]ChunkRef{{Offset: 1, Size: 98, Records: 1, StartIC: 9, EndIC: 1}}, nil),
		"entries not contiguous": blob([]ChunkRef{
			{Offset: 1, Size: 40, Records: 1},
			{Offset: 50, Size: 49, Records: 1}, // 1+1+40 = 42, not 50
		}, nil),
		"last chunk misses data end": blob([]ChunkRef{{Offset: 1, Size: 90, Records: 1}}, nil),
	}
	for name, data := range cases {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err == nil && idx != nil {
			t.Errorf("%s: damaged footer accepted: %+v", name, idx)
		}
		if err == nil && idx == nil {
			t.Errorf("%s: damaged footer silently treated as footer-less", name)
		}
	}

	// Genuine v1 shapes: no trailer magic anywhere — (nil, nil), no error.
	for name, data := range map[string][]byte{
		"tiny":      {1, 2, 3},
		"no footer": append(make([]byte, 100), []byte("plain old bytes")...),
	} {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || idx != nil {
			t.Errorf("%s: footer-less input should fall back cleanly, got (%+v, %v)", name, idx, err)
		}
	}
}

func int64ToInt(v int64) int { return int(v) }

func TestScanIndexRejects(t *testing.T) {
	cases := map[string][]byte{
		"frame past end":   binary.AppendUvarint(nil, 1<<20), // claims 1MiB, file ends here
		"zero length":      {0x00, 0xaa},
		"huge length":      binary.AppendUvarint(nil, maxChunkLen+1),
		"malformed varint": bytes.Repeat([]byte{0x80}, 12),
	}
	for name, data := range cases {
		if _, err := ScanIndex(bytes.NewReader(data), 0, int64(len(data))); err == nil {
			t.Errorf("%s: scan accepted a broken frame walk", name)
		}
	}
	if _, err := ScanIndex(bytes.NewReader(nil), 0, 0); err != errTruncated {
		t.Errorf("empty chunk region: got %v, want errTruncated", err)
	}
}

// TestParallelRejectsTamperedIndex: an index that lies about boundaries
// or contents must stop the replay with an error — decodeChunk trusts
// the bytes, not the table — and must never panic or mis-sequence.
func TestParallelRejectsTamperedIndex(t *testing.T) {
	data := synthTrace(t, 4)
	freshIndex := func() *Index {
		idx, err := ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil || idx == nil {
			t.Fatalf("index: %v", err)
		}
		return idx
	}
	hdr := header{version: Version, stackBase: 0x40000, workload: "synth"}
	cr := chunkReader{ra: bytes.NewReader(data), version: Version, fromFooter: true}
	tampers := map[string]func(*Index){
		"offset shifted":    func(idx *Index) { idx.Chunks[1].Offset++ },
		"size inflated":     func(idx *Index) { idx.Chunks[2].Size++ },
		"record count lies": func(idx *Index) { idx.Chunks[1].Records++ },
		"offset past eof":   func(idx *Index) { idx.Chunks[3].Offset = int64(len(data)) + 100 },
	}
	for name, tamper := range tampers {
		for _, jobs := range []int{1, 3} {
			idx := freshIndex()
			tamper(idx)
			p := &ParallelReplayer{chunks: cr, hdr: hdr, index: idx, jobs: jobs}
			p.NewConsumer()
			if err := p.ReplayContext(context.Background()); err == nil {
				t.Errorf("%s (jobs=%d): tampered index replayed without error", name, jobs)
			}
		}
	}
}

// TestStatHostileSkipFlag: the skipped flag is only legal on executable
// event kinds.  A hand-crafted tag smuggling it onto block or end
// records must fail decode — and can therefore never inflate the
// Skipped tally — while genuinely skipped events count exactly once.
func TestStatHostileSkipFlag(t *testing.T) {
	mkHeader := func() []byte {
		var b []byte
		b = append(b, magic...)
		b = append(b, Version)
		b = binary.AppendUvarint(b, 0x40000)                 // stack base
		b = binary.AppendUvarint(b, uint64(len("hostile")))  // workload
		b = append(b, "hostile"...)
		b = binary.AppendUvarint(b, 0) // no routines
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
		return b
	}
	chunked := func(payload []byte) []byte {
		b := mkHeader()
		// A valid checksum over the hostile payload, so decode reaches the
		// tag validation under test instead of stopping at the CRC.
		payload = binary.LittleEndian.AppendUint32(payload, crc32.Checksum(payload, castagnoli))
		b = binary.AppendUvarint(b, uint64(len(payload)))
		return append(b, payload...)
	}

	stat := func(b []byte) (*Info, error) { return Stat(bytes.NewReader(b), int64(len(b))) }

	var hostileBlock []byte
	hostileBlock = append(hostileBlock, recBlock|flagSkipped)
	hostileBlock = binary.AppendUvarint(hostileBlock, 1) // ic delta
	hostileBlock = binary.AppendUvarint(hostileBlock, 0) // id
	if _, err := stat(chunked(hostileBlock)); err == nil ||
		!strings.Contains(err.Error(), "malformed block tag") {
		t.Errorf("skip flag on a block record: got %v, want malformed-tag error", err)
	}

	var hostileEnd []byte
	hostileEnd = append(hostileEnd, recEnd|flagSkipped)
	hostileEnd = binary.AppendUvarint(hostileEnd, 1)      // ic
	hostileEnd = binary.AppendUvarint(hostileEnd, 0x1000) // pc
	hostileEnd = binary.AppendUvarint(hostileEnd, 0)      // exit
	hostileEnd = append(hostileEnd, 1)                    // halted
	if _, err := stat(chunked(hostileEnd)); err == nil ||
		!strings.Contains(err.Error(), "malformed end tag") {
		t.Errorf("skip flag on the end record: got %v, want malformed-tag error", err)
	}

	// A legitimately skipped predicated read counts exactly once.
	var buf bytes.Buffer
	w := newWriter(&buf, header{stackBase: 0x40000, workload: "skip"})
	w.event(recRead, 1, &pin.Context{Event: &vm.Event{PC: 0x1000, Executed: false}})
	w.event(recWrite, 2, &pin.Context{Event: &vm.Event{PC: 0x1008, Size: 8, Executed: true}})
	if err := w.end(3, 0x1010, 0, true); err != nil {
		t.Fatal(err)
	}
	info, err := stat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1 (one skipped read, one executed write)", info.Skipped)
	}
	if info.Reads != 1 || info.Writes != 1 {
		t.Errorf("Reads/Writes = %d/%d, want 1/1", info.Reads, info.Writes)
	}
}
