package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
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
	// The scanner does not decode payloads, so a zero-length one frames fine.
	emptyFrame := appendFrame(nil, recFault, nil)

	valid := fuzzSegment(opFrame, snapFrame, emptyFrame)
	f.Add(valid)
	f.Add(fuzzSegment())           // magic only
	f.Add(valid[:len(valid)-3])    // truncated tail
	f.Add(valid[:len(segMagic)+5]) // torn mid-header
	f.Add([]byte("not a journal"))
	f.Add([]byte{})

	// Other format versions: intact frames behind a version-1 or version-2
	// magic.
	for _, v := range []byte{'1', '2'} {
		old := append([]byte(nil), valid...)
		old[len(segMagic)-1] = v
		f.Add(old)
	}

	// Flipped CRC byte.
	flipped := append([]byte(nil), valid...)
	flipped[len(segMagic)+4] ^= 0x01
	f.Add(flipped)

	// Zero-length payload with a valid frame around it.
	f.Add(fuzzSegment(emptyFrame, opFrame))

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
		var d decoder
		op, digest, err := d.decodeOp(data)
		if err != nil {
			return
		}
		re := appendOpPayload(nil, op, digest)
		op2, d2, err2 := d.decodeOp(re)
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
	f.Add(bogusFlowCountSnap(1 << 40))
	f.Add(bogusFlowCountSnap(4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d decoder
		opIndex, st, digest, err := d.decodeSnap(data)
		if err != nil {
			return
		}
		re := appendSnapPayload(nil, opIndex, st, digest)
		oi2, _, d2, err2 := d.decodeSnap(re)
		if err2 != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err2)
		}
		if oi2 != opIndex || d2 != digest {
			t.Fatalf("snapshot round trip drifted: %d/%x vs %d/%x", opIndex, digest, oi2, d2)
		}
	})
}

// bogusFlowCountSnap is a snapshot payload whose header claims count flows
// over a 4 KB body: a frame whose CRC checks out but whose count does not.
func bogusFlowCountSnap(count uint64) []byte {
	p := appendSnapPayload(nil, 1, netsim.NetState{NextID: 1}, 0)
	p = p[:len(p)-3] // drop the empty flow, capacity and link-rate counts
	p = binary.AppendUvarint(p, count)
	return append(p, make([]byte, 4096)...)
}

// TestDecodeSnapBogusFlowCount: a flow count that the body cannot hold
// fails before anything is sized from it. 4 096 flows would fit at one
// byte each but not at the 19 bytes the smallest encoded flow takes, and
// pre-sizing for them would allocate 64 bytes per payload byte.
func TestDecodeSnapBogusFlowCount(t *testing.T) {
	for _, count := range []uint64{1 << 40, 4096, 4096/minSnapFlow + 1} {
		p := bogusFlowCountSnap(count)
		var d decoder
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := d.decodeSnap(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d over %d bytes decoded", count, len(p))
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1024 {
			t.Errorf("count %d over %d bytes: decode allocated %d B before failing", count, len(p), b)
		}
	}
}

// TestDecoderSharesPaths: recovery keeps every record it decodes, so an op
// and a snapshot flow on the same path share one slice, capped at its
// length so an append cannot write into it, while a different path gets its
// own.
func TestDecoderSharesPaths(t *testing.T) {
	var d decoder
	ab, c := []netsim.LinkID{0, 300}, []netsim.LinkID{2}
	op, _, err := d.decodeOp(appendOpPayload(nil, netsim.Op{Kind: netsim.OpStart, Links: ab, Tag: "x"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, st, _, err := d.decodeSnap(appendSnapPayload(nil, 1, netsim.NetState{NextID: 2, Flows: []netsim.FlowState{
		{ID: 0, Links: ab, Tag: "x"}, {ID: 1, Links: c, Tag: "x"},
	}}, 2))
	if err != nil {
		t.Fatal(err)
	}
	shared, other := st.Flows[0].Links, st.Flows[1].Links
	if !slices.Equal(op.Links, ab) || !slices.Equal(shared, ab) || !slices.Equal(other, c) {
		t.Fatalf("decoded paths %v, %v, %v; want %v, %v, %v", op.Links, shared, other, ab, ab, c)
	}
	if &op.Links[0] != &shared[0] {
		t.Error("an op and a snapshot flow on one path decoded to two slices")
	}
	if &other[0] == &shared[0] || cap(shared) != len(shared) {
		t.Errorf("paths share storage wrongly: cap %d for len %d", cap(shared), len(shared))
	}
}
