package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/netsim"
)

// Record types. The type byte is covered by the frame CRC, so a flipped
// type is a torn frame, not a misparse.
const (
	// recTopo carries a netsim.TopoState (JSON): the graph the op log runs
	// over. Written once, first, so a journal is self-contained.
	recTopo byte = 1
	// recOp carries one netsim.Op plus the post-apply state digest
	// (binary — op demands are routinely +Inf, which JSON cannot encode).
	recOp byte = 2
	// recNetSnap carries a netsim.NetState snapshot, its digest and the
	// count of ops preceding it (binary, for the same +Inf reason).
	recNetSnap byte = 3
	// recFault carries one faults.Event (JSON).
	recFault byte = 4
	// recIngest carries one core.QoERecord (JSON).
	recIngest byte = 5
	// recPoll carries one PollRecord (JSON).
	recPoll byte = 6
	// recProjCkpt carries one projection checkpoint: the folder's name, its
	// committed offset (the count of records preceding this frame in the
	// whole record stream), the state's fingerprint and the encoded state
	// itself (binary, folder-defined). State and offset travel in one
	// CRC-covered frame, so the commit is atomic: a crash mid-checkpoint
	// tears the frame and recovery falls back to the previous checkpoint.
	recProjCkpt byte = 8
)

// PollRecord is one looking-glass poll result as journaled by eona-lg: the
// raw payload fetched from a peer, so a restart can re-seed its last-known
// view without waiting out a poll interval.
type PollRecord struct {
	Source string          `json:"source"`
	At     time.Time       `json:"at"`
	Data   json.RawMessage `json:"data"`
}

// ---- binary payload codecs -------------------------------------------------
//
// Ops and snapshots are binary: demands are commonly +Inf (a greedy flow),
// which encoding/json rejects. Varints for IDs and counts, fixed 8-byte
// little-endian for float bits and digests.

func appendOpPayload(buf []byte, op netsim.Op, digest uint64) []byte {
	buf = append(buf, byte(op.Kind))
	buf = binary.AppendUvarint(buf, uint64(op.Flow))
	buf = AppendF64(buf, op.Value)
	buf = binary.AppendUvarint(buf, uint64(op.Link))
	buf = binary.AppendUvarint(buf, uint64(len(op.Links)))
	for _, l := range op.Links {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	buf = AppendStr(buf, op.Tag)
	buf = AppendU64(buf, digest)
	return buf
}

// decoder is per-recovery decode scratch. A journal replay decodes tens of
// thousands of records whose variable-width fields (op paths, tags) would
// each allocate; the decoder amortizes them — link slices are carved out of
// chunked arenas that outlive individual records, and tag strings are
// interned (the map lookup on a []byte key compiles allocation-free), so a
// log that reuses a handful of tags pays for each exactly once. The zero
// value is ready to use; a decoder serves one goroutine.
type decoder struct {
	chunk []netsim.LinkID   // current link-ID arena chunk
	tags  map[string]string // interned tag strings
}

// linkSlice carves an n-entry slice from the arena. Chunks are never
// recycled while referenced — a full chunk is simply abandoned to its
// existing slices and a fresh one started — so returned slices stay valid
// for the life of the recovery.
func (d *decoder) linkSlice(n int) []netsim.LinkID {
	if n == 0 {
		return nil
	}
	if len(d.chunk)+n > cap(d.chunk) {
		c := 1024
		if n > c {
			c = n
		}
		d.chunk = make([]netsim.LinkID, 0, c)
	}
	s := d.chunk[len(d.chunk) : len(d.chunk)+n : len(d.chunk)+n]
	d.chunk = d.chunk[:len(d.chunk)+n]
	return s
}

// intern returns b as a string, reusing a previously decoded copy when one
// exists. The m[string(b)] lookup does not allocate.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.tags[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.tags == nil {
		d.tags = make(map[string]string)
	}
	d.tags[s] = s
	return s
}

func (d *decoder) decodeOp(p []byte) (netsim.Op, uint64, error) {
	var op netsim.Op
	if len(p) == 0 {
		return op, 0, fmt.Errorf("journal: empty op payload")
	}
	op.Kind = netsim.OpKind(p[0])
	r := NewPayloadReader(p[1:])
	op.Flow = netsim.FlowID(r.Uvarint("op flow"))
	op.Value = r.F64("op value")
	op.Link = netsim.LinkID(r.Uvarint("op link"))
	n := r.Uvarint("op path length")
	if r.err == nil && n > uint64(len(r.b)) {
		r.Fail("op path")
	}
	if r.err == nil && n > 0 {
		op.Links = d.linkSlice(int(n))
		for i := range op.Links {
			op.Links[i] = netsim.LinkID(r.Uvarint("op path link"))
		}
	}
	op.Tag = d.intern(r.Bytes("op tag"))
	digest := r.U64("op digest")
	return op, digest, r.Done("op record")
}

// decodeOpPayload is the scratch-free form, kept for one-shot callers
// (fuzzers, tools) that decode a single payload.
func decodeOpPayload(p []byte) (netsim.Op, uint64, error) {
	var d decoder
	return d.decodeOp(p)
}

func appendSnapPayload(buf []byte, opIndex uint64, st netsim.NetState, digest uint64) []byte {
	buf = binary.AppendUvarint(buf, opIndex)
	buf = AppendU64(buf, digest)
	buf = binary.AppendUvarint(buf, uint64(st.NextID))
	buf = AppendF64(buf, st.MaxRate)
	buf = binary.AppendUvarint(buf, uint64(len(st.Flows)))
	for _, f := range st.Flows {
		buf = binary.AppendUvarint(buf, uint64(f.ID))
		buf = AppendF64(buf, f.Demand)
		buf = AppendF64(buf, f.Weight)
		buf = AppendStr(buf, f.Tag)
		buf = binary.AppendUvarint(buf, uint64(len(f.Links)))
		for _, l := range f.Links {
			buf = binary.AppendUvarint(buf, uint64(l))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Capacities)))
	for _, c := range st.Capacities {
		buf = AppendF64(buf, c)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.LinkRates)))
	for _, v := range st.LinkRates {
		buf = AppendF64(buf, v)
	}
	return buf
}

func (d *decoder) decodeSnap(p []byte) (opIndex uint64, st netsim.NetState, digest uint64, err error) {
	r := NewPayloadReader(p)
	opIndex = r.Uvarint("snapshot op index")
	digest = r.U64("snapshot digest")
	st.NextID = netsim.FlowID(r.Uvarint("snapshot next id"))
	st.MaxRate = r.F64("snapshot max rate")
	nf := r.Uvarint("snapshot flow count")
	if r.err == nil && nf > uint64(len(r.b)) {
		r.Fail("snapshot flows")
	}
	for i := uint64(0); r.err == nil && i < nf; i++ {
		var f netsim.FlowState
		f.ID = netsim.FlowID(r.Uvarint("flow id"))
		f.Demand = r.F64("flow demand")
		f.Weight = r.F64("flow weight")
		f.Tag = d.intern(r.Bytes("flow tag"))
		nl := r.Uvarint("flow path length")
		if r.err == nil && nl > uint64(len(r.b)) {
			r.Fail("flow path")
		}
		if r.err == nil && nl > 0 {
			f.Links = d.linkSlice(int(nl))
			for j := range f.Links {
				f.Links[j] = netsim.LinkID(r.Uvarint("flow path link"))
			}
		}
		st.Flows = append(st.Flows, f)
	}
	nc := r.Uvarint("capacity count")
	if r.err == nil && nc > uint64(len(r.b))/8+1 {
		r.Fail("capacities")
	}
	for i := uint64(0); r.err == nil && i < nc; i++ {
		st.Capacities = append(st.Capacities, r.F64("capacity"))
	}
	nr := r.Uvarint("link-rate count")
	if r.err == nil && nr > uint64(len(r.b))/8+1 {
		r.Fail("link rates")
	}
	for i := uint64(0); r.err == nil && i < nr; i++ {
		st.LinkRates = append(st.LinkRates, r.F64("link rate"))
	}
	return opIndex, st, digest, r.Done("snapshot record")
}

// decodeSnapPayload is the scratch-free form, kept for one-shot callers.
func decodeSnapPayload(p []byte) (opIndex uint64, st netsim.NetState, digest uint64, err error) {
	var d decoder
	return d.decodeSnap(p)
}

// appendCkptPayload frames one projection checkpoint: name, offset, state
// fingerprint, then the raw state bytes to the end of the payload.
func appendCkptPayload(buf []byte, name string, offset, digest uint64, state []byte) []byte {
	buf = AppendStr(buf, name)
	buf = binary.AppendUvarint(buf, offset)
	buf = AppendU64(buf, digest)
	return append(buf, state...)
}

func decodeCkptPayload(p []byte) (name string, offset, digest uint64, state []byte, err error) {
	r := NewPayloadReader(p)
	name = r.Str("checkpoint name")
	offset = r.Uvarint("checkpoint offset")
	digest = r.U64("checkpoint digest")
	if r.err != nil {
		return "", 0, 0, nil, r.err
	}
	// The remainder is the folder-encoded state, aliasing p.
	return name, offset, digest, r.b, nil
}

// Fingerprint hashes a byte slice with FNV-1a 64 — the digest stamped into
// checkpoint frames and used by projections to compare encoded states.
// Exported so folders outside this package agree on the function.
func Fingerprint(p []byte) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// ---- JSON payload codecs ---------------------------------------------------
//
// Topology, fault, ingest and poll records carry no infinities, so they use
// JSON: self-describing, greppable with standard tools, and schema drift
// degrades to a decode error rather than silent misparse.

func marshalJSONPayload(kind string, v any) ([]byte, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("journal: encode %s: %w", kind, err)
	}
	return p, nil
}

func decodeTopoPayload(p []byte) (netsim.TopoState, error) {
	var ts netsim.TopoState
	if err := json.Unmarshal(p, &ts); err != nil {
		return ts, fmt.Errorf("journal: decode topology: %w", err)
	}
	return ts, nil
}

func decodeFaultPayload(p []byte) (faults.Event, error) {
	var ev faults.Event
	if err := json.Unmarshal(p, &ev); err != nil {
		return ev, fmt.Errorf("journal: decode fault event: %w", err)
	}
	return ev, nil
}

func decodeIngestPayload(p []byte) (core.QoERecord, error) {
	var rec core.QoERecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return rec, fmt.Errorf("journal: decode ingest: %w", err)
	}
	return rec, nil
}

func decodePollPayload(p []byte) (PollRecord, error) {
	var pr PollRecord
	if err := json.Unmarshal(p, &pr); err != nil {
		return pr, fmt.Errorf("journal: decode poll: %w", err)
	}
	return pr, nil
}
