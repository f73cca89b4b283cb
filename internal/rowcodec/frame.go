package rowcodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
)

// The record frame. Whatever the system writes to disk record by record
// — WAL segments, spill runs, database images — is a sequence of
//
//	uint32 payload length | payload | uint32 CRC32C(payload)
//
// (both integers big endian), built by AppendFrame and verified by
// FrameReader.Next: the only two functions that know the layout.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn and ErrChecksum are the two ways a frame fails to verify: the
// input ended inside it, or its bytes are not the ones that were written.
var (
	ErrTorn     = errors.New("torn record")
	ErrChecksum = errors.New("checksum mismatch")
)

// NewChecksum returns a running CRC32C, the frames' polynomial, for the
// one file-level trailer there is (a WAL checkpoint's).
func NewChecksum() hash.Hash32 { return crc32.New(castagnoli) }

// AppendFrame appends one frame to dst; its payload is what encode
// appends to the slice it is handed.
func AppendFrame(dst []byte, encode func([]byte) []byte) []byte {
	start := len(dst)
	dst = encode(append(dst, 0, 0, 0, 0))
	payload := dst[start+4:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// FrameReader reads a sequence of frames back.
type FrameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// NewFrameReader reads frames from r, which should be buffered.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame's verified payload, valid until the
// following call. The input ending between frames is io.EOF; ending (or
// failing) inside one wraps ErrTorn; a payload that fails its checksum is
// ErrChecksum; a length prefix above MaxLen is refused before anything is
// allocated for it.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n > MaxLen {
		return nil, fmt.Errorf("impossible record length %d", n)
	}
	// Grow towards the declared length a step at a time: a corrupt prefix
	// costs no more memory than the bytes that are really there.
	const step = 1 << 20
	want, buf := int(n)+4, fr.buf[:0]
	for len(buf) < want {
		k := min(want-len(buf), step)
		buf = slices.Grow(buf, k)[:len(buf)+k]
		if _, err := io.ReadFull(fr.r, buf[len(buf)-k:]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrTorn, err)
		}
	}
	fr.buf = buf
	if crc32.Checksum(buf[:n], castagnoli) != binary.BigEndian.Uint32(buf[n:]) {
		return nil, ErrChecksum
	}
	return buf[:n], nil
}
