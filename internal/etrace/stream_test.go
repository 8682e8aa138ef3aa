package etrace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// streamReplay is a test oracle: a strict streaming decode that never
// reads the index.  It walks the chunk frames by their length prefixes
// straight after the header, stops at the end record, validates
// whatever trails it (nothing, or an index footer listing exactly the
// chunks just decoded), and applies every record to one consumer.
// FuzzIndex checks that whatever the indexed decode accepts, this decode
// accepts too, with the same final state.
func streamReplay(data []byte) (*Consumer, error) {
	hdr, start, err := readHeader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	c := newConsumer(hdr)
	r := bufio.NewReader(bytes.NewReader(data[start:]))
	var p chunkParser
	var rec record
	chunks := 0
	for {
		for p.done() {
			n, err := binary.ReadUvarint(r)
			if err == io.EOF {
				return nil, errTruncated
			}
			if err != nil {
				return nil, fmt.Errorf("etrace: chunk length: %w", err)
			}
			if n == 0 || n > maxChunkLen || (hdr.version >= 2 && n <= crcLen) {
				return nil, fmt.Errorf("etrace: bad chunk length %d", n)
			}
			payload := make([]byte, n)
			if _, err := io.ReadFull(r, payload); err != nil {
				return nil, fmt.Errorf("etrace: short chunk: %w", err)
			}
			chunks++
			if hdr.version >= 2 {
				body, sum := payload[:len(payload)-crcLen], payload[len(payload)-crcLen:]
				if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
					return nil, fmt.Errorf("etrace: chunk %d checksum mismatch", chunks-1)
				}
				payload = body
			}
			p.reset(payload)
		}
		rec = record{}
		if err := p.parseRecord(&rec); err != nil {
			return nil, err
		}
		if err := c.apply(&rec); err != nil {
			return nil, err
		}
		if rec.kind == recEnd {
			return c, streamTrailing(r, chunks)
		}
	}
}

// streamTrailing validates the bytes after the final chunk: none (a
// footer-less trace) or one well-formed footer whose chunk table is as
// long as the stream.
func streamTrailing(r *bufio.Reader, chunks int) error {
	b, err := io.ReadAll(io.LimitReader(r, maxFooterLen+trailerLen+1))
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	if len(b) > maxFooterLen+trailerLen {
		return errors.New("etrace: data after final chunk (oversized index footer)")
	}
	refs, err := parseFooter(b)
	if err != nil {
		return fmt.Errorf("etrace: data after final chunk (%s)", err)
	}
	if len(refs) != chunks {
		return fmt.Errorf("etrace: index lists %d chunks, stream had %d", len(refs), chunks)
	}
	return nil
}
