package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/rowcodec"
)

// Recovery reports what Open reconstructed: the newest valid snapshot
// payload (nil when none), the commit records logged after it in LSN
// order, and how much corrupt tail was discarded.
type Recovery struct {
	SnapshotPayload []byte // database image bytes, nil if no snapshot
	SnapshotLSN     uint64 // next-LSN stored in the snapshot header
	Records         []Record
	TruncatedBytes  int64 // torn/corrupt tail bytes discarded
	DroppedSegments int   // whole segments discarded past the first corruption
	DroppedSnaps    int   // snapshots whose checksum failed
}

// Open opens (creating if needed) the log rooted at dir and performs
// recovery: orphaned temp files are removed, the newest snapshot whose
// checksum verifies is selected (corrupt ones deleted), segments are
// scanned in order, and the log is truncated in place at the first torn
// or corrupt record — everything past it, including later segments, is
// deleted. Appends resume in the surviving tail segment.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	l.syncOk = sync.NewCond(&l.syncMu)
	rec := &Recovery{}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	var snaps, segs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case filepath.Ext(name) == ".tmp":
			os.Remove(filepath.Join(dir, name))
		case isSnapshotName(name):
			snaps = append(snaps, name)
		case isSegmentName(name):
			segs = append(segs, name)
		}
	}
	sort.Strings(snaps) // lexicographic = LSN order (fixed-width hex)
	sort.Strings(segs)  // lexicographic = sequence order (fixed-width decimal)

	// Newest verifiable snapshot wins; broken ones are garbage.
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snaps[i])
		payload, lsn, ok := readSnapshot(path)
		if !ok {
			os.Remove(path)
			rec.DroppedSnaps++
			continue
		}
		rec.SnapshotPayload, rec.SnapshotLSN = payload, lsn
		// Anything older is superseded.
		for j := 0; j < i; j++ {
			os.Remove(filepath.Join(dir, snaps[j]))
		}
		break
	}
	l.nextLSN = max(rec.SnapshotLSN, 1)

	// Scan segments in order, stopping at the first corruption.
	lastGood := -1 // index into segs of the last segment kept
	corrupt := false
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open: %w", err)
		}
		recs, validLen, scanErr := ScanSegment(data, l.nextLSN)
		if len(rec.Records) > 0 && len(recs) > 0 && recs[0].LSN != l.nextLSN {
			// A gap at a segment boundary: a whole segment went missing.
			// Nothing after the gap can be trusted to be in order.
			recs, validLen = nil, len(segMagic)
			scanErr = fmt.Errorf("%w: LSN gap at segment boundary", ErrCorrupt)
		}
		rec.Records = append(rec.Records, recs...)
		if len(recs) > 0 {
			l.nextLSN = recs[len(recs)-1].LSN + 1
		}
		if scanErr != nil {
			// Torn or corrupt tail: truncate this segment in place and
			// drop everything after it.
			rec.TruncatedBytes += int64(len(data) - validLen)
			if validLen <= len(segMagic) {
				os.Remove(path)
			} else {
				if err := os.Truncate(path, int64(validLen)); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
				lastGood = i
			}
			for _, later := range segs[i+1:] {
				os.Remove(filepath.Join(dir, later))
				rec.DroppedSegments++
			}
			corrupt = true
			break
		}
		lastGood = i
	}

	// Resume appending: reopen the last surviving segment at its end,
	// or start a fresh one.
	if lastGood >= 0 {
		path := filepath.Join(dir, segs[lastGood])
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
		}
		var seq uint64
		fmt.Sscanf(segs[lastGood], "wal-%d.seg", &seq)
		l.f, l.seq, l.segBytes = f, seq, st.Size()
		l.segCount = lastGood + 1
	} else {
		var seq uint64
		if n := len(segs); n > 0 && corrupt {
			// All segments were scrubbed; keep sequence numbers moving
			// forward so a stale cached name never reappears.
			fmt.Sscanf(segs[len(segs)-1], "wal-%d.seg", &seq)
		}
		if err := l.openSegmentLocked(seq + 1); err != nil {
			return nil, nil, err
		}
	}
	l.written = l.nextLSN - 1
	l.flushed = l.written
	return l, rec, nil
}

// ScanSegment parses one segment's bytes (header included). It returns
// the records whose frames verify, with strictly increasing LSNs all
// >= minLSN, the byte offset up to which the segment is valid, and a
// non-nil error describing the first torn or corrupt frame (nil when
// the whole segment parses). It never panics on any input — the
// FuzzWALReplay target drives arbitrary bytes through it.
func ScanSegment(data []byte, minLSN uint64) ([]Record, int, error) {
	if len(data) < len(segMagic) || !bytes.Equal(data[:len(segMagic)], []byte(segMagic)) {
		return nil, 0, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	var recs []Record
	off := len(segMagic)
	body := bytes.NewReader(data[off:])
	fr := rowcodec.NewFrameReader(body)
	prev := minLSN // records must carry LSN >= minLSN, strictly increasing
	first := true
	for {
		r, err := ReadRecord(fr)
		if err == io.EOF {
			return recs, off, nil
		}
		if err != nil {
			return recs, off, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if first {
			if r.LSN < prev {
				return recs, off, fmt.Errorf("%w: stale LSN %d (want >= %d)", ErrCorrupt, r.LSN, prev)
			}
		} else if r.LSN != prev+1 {
			return recs, off, fmt.Errorf("%w: LSN %d breaks sequence after %d", ErrCorrupt, r.LSN, prev)
		}
		prev, first = r.LSN, false
		recs = append(recs, r)
		off = len(data) - body.Len()
	}
}

// readSnapshot loads and verifies one snapshot file: magic, the stored
// next-LSN, the image payload, and a trailing CRC32C over everything
// before it.
func readSnapshot(path string) (payload []byte, lsn uint64, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	hdr := len(snapMagic) + 8
	if len(data) < hdr+4 || !bytes.Equal(data[:len(snapMagic)], []byte(snapMagic)) {
		return nil, 0, false
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	crc := rowcodec.NewChecksum()
	crc.Write(body)
	if crc.Sum32() != binary.BigEndian.Uint32(tail) {
		return nil, 0, false
	}
	lsn = binary.BigEndian.Uint64(data[len(snapMagic):hdr])
	return body[hdr:], lsn, true
}
