// Package journal is the crash-safe event journal: an append-only,
// CRC32C-framed binary log that persists netsim ops, fault-plan events and
// A2I collector ingests, with periodic state snapshots so a restarted node
// recovers by loading the latest snapshot and replaying only the tail.
//
// Durability contract (see DESIGN.md §5 for the full statement):
//
//   - Every record is one length-prefixed frame whose CRC32C covers the
//     record type and payload. A frame is either wholly valid or ignored.
//   - A torn or corrupt tail — the suffix left by a crash mid-write — is
//     detected by the first frame that fails its length or checksum and is
//     truncated at the last valid frame boundary. It never poisons
//     recovery: everything before the tear is intact by CRC, everything
//     after it is discarded.
//   - Recovery = latest snapshot + replay of the op tail behind it. With
//     no snapshot, replay runs from the first op. Both paths are pinned
//     bit-identical to an uninterrupted run by the crash-injection tests.
//
// The log is segmented (journal-NNNNNN.eoj); the writer rotates segments at
// a size bound and fsyncs per the configured SyncPolicy.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Frame layout, little-endian:
//
//	[0:4)  payload length N (uint32)
//	[4:8)  CRC32C over bytes [8, 9+N) — the type byte and payload
//	[8]    record type
//	[9:9+N) payload
const frameHeader = 9

// MaxFrame bounds a frame's payload length. A length prefix above it is
// treated as corruption (an "oversized length prefix" is far more likely a
// torn write than a 16 MiB record), so a flipped length byte cannot make
// recovery attempt a giant allocation.
const MaxFrame = 16 << 20

// segMagic opens every segment file, so recovery cannot misread an
// arbitrary file as a journal. The trailing byte is the format version:
// '2' since netsim.StateDigest became a multiset hash — the frames are laid
// out as in version 1, but every recorded op and snapshot digest means
// something else, so a version-1 log cannot be verified by this build.
var segMagic = []byte("EONAJ\x00\x002")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTorn reports a torn or corrupt frame: the scanner hit bytes that are
// not a complete, checksummed frame. Everything before the reported offset
// is valid; everything at and after it is the crash tail.
var ErrTorn = errors.New("journal: torn or corrupt frame")

// ErrVersion reports a segment written in another format version: its magic
// matches up to the version byte. Unlike a tear it is not crash residue, so
// nothing treats it as one — Recover fails and Open refuses to repair
// (truncating it at offset zero would silently destroy an intact log).
var ErrVersion = errors.New("journal: unsupported segment format version")

// appendFrame appends one framed record to buf and returns the extended
// buffer.
func appendFrame(buf []byte, typ byte, payload []byte) []byte {
	if len(payload) > MaxFrame {
		panic(fmt.Sprintf("journal: %d-byte record exceeds MaxFrame", len(payload)))
	}
	// The header is built in buf itself rather than a local array: crc32's
	// dispatch is an indirect call, and handing it a stack array would force
	// that array to the heap — one allocation per record.
	off := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	binary.LittleEndian.PutUint32(buf[off:off+4], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, buf[off+8:off+9])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(buf[off+4:off+8], crc)
	return append(buf, payload...)
}

// scanFrame parses the frame at data[off:]. It returns the record type, the
// payload (aliasing data — callers copy if they retain it), and the offset
// of the next frame. A frame that is incomplete or fails its checksum
// returns ErrTorn; off == len(data) returns io-free (0, nil, off, errEOF).
var errEOF = errors.New("journal: end of segment")

func scanFrame(data []byte, off int) (typ byte, payload []byte, next int, err error) {
	if off == len(data) {
		return 0, nil, off, errEOF
	}
	if off > len(data) || len(data)-off < frameHeader {
		return 0, nil, off, ErrTorn
	}
	n := binary.LittleEndian.Uint32(data[off : off+4])
	if n > MaxFrame {
		return 0, nil, off, ErrTorn
	}
	end := off + frameHeader + int(n)
	if end > len(data) {
		return 0, nil, off, ErrTorn
	}
	want := binary.LittleEndian.Uint32(data[off+4 : off+8])
	crc := crc32.Update(0, crcTable, data[off+8:end])
	if crc != want {
		return 0, nil, off, ErrTorn
	}
	return data[off+8], data[off+frameHeader : end], end, nil
}

// FrameBoundaries returns every offset in one segment's bytes that lies on
// a frame boundary: just after the magic, then after each complete frame.
// Crash-injection sweeps (here and in consumers like internal/projection)
// cut the file at and between these offsets to simulate a kill mid-write. A
// torn tail stops the walk; the returned offsets cover the valid prefix.
func FrameBoundaries(data []byte) []int {
	if len(data) < len(segMagic) {
		return nil
	}
	bounds := []int{len(segMagic)}
	off := len(segMagic)
	for {
		_, _, next, err := scanFrame(data, off)
		if err != nil {
			return bounds
		}
		bounds = append(bounds, next)
		off = next
	}
}

// SegmentPaths lists a journal directory's segment files, oldest first, as
// full paths. A missing directory yields an empty list like Recover does.
func SegmentPaths(dir string) ([]string, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	paths := make([]string, len(segs))
	for i, name := range segs {
		paths[i] = filepath.Join(dir, name)
	}
	return paths, nil
}

// scanSegment walks every frame in a segment's bytes (after the magic
// header) calling fn per record. It returns the number of valid bytes — the
// truncation point on a torn tail — and ErrTorn when the segment ends in a
// tear rather than cleanly. A segment missing its magic is torn at offset
// zero; one carrying the magic of another format version is ErrVersion.
func scanSegment(data []byte, fn func(typ byte, payload []byte) error) (valid int, err error) {
	v := len(segMagic) - 1
	if len(data) < len(segMagic) || string(data[:v]) != string(segMagic[:v]) {
		return 0, fmt.Errorf("%w: bad segment magic", ErrTorn)
	}
	if data[v] != segMagic[v] {
		return 0, fmt.Errorf("%w: segment is version %q, this build reads %q", ErrVersion, data[v], segMagic[v])
	}
	off := len(segMagic)
	for {
		typ, payload, next, serr := scanFrame(data, off)
		if serr == errEOF {
			return off, nil
		}
		if serr != nil {
			return off, serr
		}
		if fn != nil {
			if ferr := fn(typ, payload); ferr != nil {
				return off, ferr
			}
		}
		off = next
	}
}
