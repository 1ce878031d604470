package journal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PayloadReader walks a binary frame payload; the first malformed field
// latches an error and every later read returns zero values, so decoders
// check once at the end (Done). It is exported because checkpoint state —
// encoded by folders outside this package — uses the same field encodings as
// the op and snapshot records: uvarints for IDs and counts, fixed 8-byte
// little-endian for float bits and digests, uvarint-length-prefixed strings
// and byte fields.
type PayloadReader struct {
	b   []byte
	err error
}

// NewPayloadReader starts a walk over p, which the reader aliases.
func NewPayloadReader(p []byte) *PayloadReader { return &PayloadReader{b: p} }

// Err returns the latched error, if any read has failed.
func (r *PayloadReader) Err() error { return r.err }

// Len returns the number of unread bytes — the bound decoders check a
// declared element count against before allocating for it.
func (r *PayloadReader) Len() int { return len(r.b) }

// Fail latches a malformed-field error unless one is already latched.
func (r *PayloadReader) Fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("journal: truncated or malformed %s", what)
	}
}

// Uvarint reads one unsigned varint (an ID or a count).
func (r *PayloadReader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// U64 reads one fixed 8-byte little-endian word (a digest, float bits).
func (r *PayloadReader) U64(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// I64 and F64 read a U64 as a signed integer or as float64 bits.
func (r *PayloadReader) I64(what string) int64   { return int64(r.U64(what)) }
func (r *PayloadReader) F64(what string) float64 { return math.Float64frombits(r.U64(what)) }

// Byte reads one raw byte (a flag).
func (r *PayloadReader) Byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.Fail(what)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Str reads a uvarint-length-prefixed string.
func (r *PayloadReader) Str(what string) string { return string(r.Bytes(what)) }

// Bytes reads a uvarint-length-prefixed byte field, aliasing the payload —
// callers that retain it past the frame use BytesCopy.
func (r *PayloadReader) Bytes(what string) []byte {
	n := r.Uvarint(what)
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.Fail(what)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// BytesCopy is Bytes for a field the decoder keeps: the result does not
// alias the payload.
func (r *PayloadReader) BytesCopy(what string) []byte {
	return append([]byte(nil), r.Bytes(what)...)
}

// Done returns the latched error, or an error if unread bytes remain.
func (r *PayloadReader) Done(what string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("journal: %d trailing bytes after %s", len(r.b), what)
	}
	return nil
}

// The Append helpers are the write side of PayloadReader's fixed-width and
// length-prefixed fields (uvarints go through binary.AppendUvarint).

func AppendU64(buf []byte, v uint64) []byte  { return binary.LittleEndian.AppendUint64(buf, v) }
func AppendI64(buf []byte, v int64) []byte   { return AppendU64(buf, uint64(v)) }
func AppendF64(buf []byte, v float64) []byte { return AppendU64(buf, math.Float64bits(v)) }

func AppendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func AppendBytes(buf, p []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	return append(buf, p...)
}
