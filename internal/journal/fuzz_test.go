package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"eona/internal/netsim"
)

// fuzzSegment builds a valid segment from framed records for the seed
// corpus.
func fuzzSegment(frames ...[]byte) []byte {
	seg := append([]byte(nil), segMagic...)
	for _, f := range frames {
		seg = append(seg, f...)
	}
	return seg
}

// FuzzScanSegment exercises the frame scanner with arbitrary bytes: it must
// never panic, the valid prefix it reports must re-scan cleanly to the same
// records, and nothing past the reported prefix may have been delivered. A
// scan ends one of three ways — clean, torn, or ErrVersion for a segment
// whose magic differs only in its version byte, which must deliver nothing
// and never read as a tear.
// Run with `go test -fuzz=FuzzScanSegment ./internal/journal` for a real
// fuzzing session; the seed corpus runs as a normal unit test.
func FuzzScanSegment(f *testing.F) {
	opFrame := appendFrame(nil, recOp, appendOpPayload(nil, netsim.Op{
		Kind: netsim.OpStart, Links: []netsim.LinkID{0, 1}, Value: math.Inf(1), Tag: "fuzz",
	}, 0xDEADBEEF))
	snapFrame := appendFrame(nil, recNetSnap, appendSnapPayload(nil, 1, netsim.NetState{
		NextID: 1, Capacities: []float64{100, 80}, LinkRates: []float64{10, 10},
		Flows: []netsim.FlowState{{ID: 0, Links: []netsim.LinkID{0}, Demand: 5, Weight: 1}},
	}, 0xCAFE))
	emptyFrame := appendFrame(nil, recOpaque, nil)

	valid := fuzzSegment(opFrame, snapFrame, emptyFrame)
	f.Add(valid)
	f.Add(fuzzSegment())           // magic only
	f.Add(valid[:len(valid)-3])    // truncated tail
	f.Add(valid[:len(segMagic)+5]) // torn mid-header
	f.Add([]byte("not a journal"))
	f.Add([]byte{})

	// Another format version: intact frames behind a version-1 magic.
	v1 := append([]byte(nil), valid...)
	v1[len(segMagic)-1] = '1'
	f.Add(v1)

	// Flipped CRC byte.
	flipped := append([]byte(nil), valid...)
	flipped[len(segMagic)+4] ^= 0x01
	f.Add(flipped)

	// Zero-length payload with a valid frame around it.
	f.Add(fuzzSegment(appendFrame(nil, recOpaque, nil), opFrame))

	// Oversized length prefix: claims MaxFrame+1 bytes.
	over := append([]byte(nil), segMagic...)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MaxFrame+1)
	f.Add(append(over, hdr[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		type recm struct {
			typ     byte
			payload []byte
		}
		var got []recm
		valid, err := scanSegment(data, func(typ byte, p []byte) error {
			got = append(got, recm{typ, append([]byte(nil), p...)})
			return nil
		})
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		v := len(segMagic) - 1
		otherVersion := len(data) >= len(segMagic) && bytes.Equal(data[:v], segMagic[:v]) && data[v] != segMagic[v]
		if got := errors.Is(err, ErrVersion); got != otherVersion {
			t.Fatalf("ErrVersion reported = %v for a segment whose version byte differs = %v (err %v)", got, otherVersion, err)
		}
		if otherVersion && (errors.Is(err, ErrTorn) || valid != 0 || len(got) != 0) {
			t.Fatalf("other-version segment: err %v, valid prefix %d, %d records delivered", err, valid, len(got))
		}
		if err != nil && !otherVersion && !errors.Is(err, ErrTorn) {
			t.Fatalf("scan failed with neither ErrTorn nor ErrVersion: %v", err)
		}
		if err == nil && valid != len(data) {
			t.Fatalf("clean scan consumed %d of %d bytes", valid, len(data))
		}
		if err != nil && len(data) >= len(segMagic) && bytes.Equal(data[:len(segMagic)], segMagic) && valid < len(segMagic) {
			t.Fatalf("torn scan of a magic-led segment reports prefix %d inside the magic", valid)
		}
		// The reported prefix must be self-consistent: re-scanning it is
		// clean and yields exactly the same records.
		if err == nil || valid >= len(segMagic) {
			var again []recm
			v2, err2 := scanSegment(data[:valid], func(typ byte, p []byte) error {
				again = append(again, recm{typ, append([]byte(nil), p...)})
				return nil
			})
			if err2 != nil || v2 != valid {
				t.Fatalf("re-scan of valid prefix: %d bytes, %v", v2, err2)
			}
			if len(again) != len(got) {
				t.Fatalf("re-scan yielded %d records, first scan %d", len(again), len(got))
			}
			for i := range got {
				if got[i].typ != again[i].typ || !bytes.Equal(got[i].payload, again[i].payload) {
					t.Fatalf("record %d differs across scans", i)
				}
			}
		}
	})
}

// FuzzDecodeOp: the op payload decoder must never panic and must round-trip
// whatever it accepts.
func FuzzDecodeOp(f *testing.F) {
	f.Add(appendOpPayload(nil, netsim.Op{Kind: netsim.OpStart, Links: []netsim.LinkID{0, 1, 2}, Value: math.Inf(1), Tag: "a"}, 7))
	f.Add(appendOpPayload(nil, netsim.Op{Kind: netsim.OpStop, Flow: 3}, 9))
	f.Add(appendOpPayload(nil, netsim.Op{Kind: netsim.OpSetLinkCapacity, Link: 2, Value: 55.5}, 0))
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		op, digest, err := decodeOpPayload(data)
		if err != nil {
			return
		}
		re := appendOpPayload(nil, op, digest)
		op2, d2, err2 := decodeOpPayload(re)
		if err2 != nil {
			t.Fatalf("re-encoded op failed to decode: %v", err2)
		}
		if d2 != digest || op2.Kind != op.Kind || op2.Flow != op.Flow || op2.Link != op.Link || op2.Tag != op.Tag {
			t.Fatalf("op round trip drifted: %+v vs %+v", op, op2)
		}
	})
}

// FuzzDecodeCkpt: the projection-checkpoint payload decoder must never
// panic and must round-trip whatever it accepts — name, offset, digest and
// the trailing state bytes all byte-stable through re-encode.
func FuzzDecodeCkpt(f *testing.F) {
	f.Add(appendCkptPayload(nil, "qoe", 42, Fingerprint([]byte(`{"n":7}`)), []byte(`{"n":7}`)))
	f.Add(appendCkptPayload(nil, "", 0, 0, nil))
	f.Add(appendCkptPayload(nil, "linkutil", 1<<40, 0xDEADBEEF, []byte{0, 1, 2, 0xFF}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, offset, digest, state, err := decodeCkptPayload(data)
		if err != nil {
			return
		}
		re := appendCkptPayload(nil, name, offset, digest, state)
		n2, o2, d2, s2, err2 := decodeCkptPayload(re)
		if err2 != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err2)
		}
		if n2 != name || o2 != offset || d2 != digest || !bytes.Equal(s2, state) {
			t.Fatalf("checkpoint round trip drifted: %q/%d/%x/%x vs %q/%d/%x/%x",
				name, offset, digest, state, n2, o2, d2, s2)
		}
	})
}

// FuzzDecodeSnap: the snapshot payload decoder must never panic and must
// round-trip whatever it accepts.
func FuzzDecodeSnap(f *testing.F) {
	f.Add(appendSnapPayload(nil, 12, netsim.NetState{
		NextID: 4, MaxRate: 1e9,
		Flows:      []netsim.FlowState{{ID: 1, Links: []netsim.LinkID{0}, Demand: math.Inf(1), Weight: 2, Tag: "x"}},
		Capacities: []float64{100}, LinkRates: []float64{40},
	}, 99))
	f.Add(appendSnapPayload(nil, 0, netsim.NetState{}, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		opIndex, st, digest, err := decodeSnapPayload(data)
		if err != nil {
			return
		}
		re := appendSnapPayload(nil, opIndex, st, digest)
		oi2, _, d2, err2 := decodeSnapPayload(re)
		if err2 != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err2)
		}
		if oi2 != opIndex || d2 != digest {
			t.Fatalf("snapshot round trip drifted: %d/%x vs %d/%x", opIndex, digest, oi2, d2)
		}
	})
}
