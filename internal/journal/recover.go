package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/netsim"
)

// OpRecord is one journaled netsim op with the state digest the writer
// recorded after applying it.
type OpRecord struct {
	Op     netsim.Op
	Digest uint64
}

// SnapRecord is one journaled NetState checkpoint.
type SnapRecord struct {
	// OpIndex counts the op records that precede this snapshot; tail
	// catch-up replays Ops[OpIndex:].
	OpIndex int
	State   netsim.NetState
	Digest  uint64
}

// RecordKind names a record's type in Recovered.Stream. The values are the
// journal's on-disk record-type bytes.
type RecordKind byte

const (
	KindTopo       = RecordKind(recTopo)
	KindOp         = RecordKind(recOp)
	KindNetSnap    = RecordKind(recNetSnap)
	KindFault      = RecordKind(recFault)
	KindIngest     = RecordKind(recIngest)
	KindPoll       = RecordKind(recPoll)
	KindCheckpoint = RecordKind(recProjCkpt)
)

func (k RecordKind) String() string {
	switch k {
	case KindTopo:
		return "topo"
	case KindOp:
		return "op"
	case KindNetSnap:
		return "netsnap"
	case KindFault:
		return "fault"
	case KindIngest:
		return "ingest"
	case KindPoll:
		return "poll"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecordKind(%d)", byte(k))
	}
}

// StreamEntry locates one record in the journal's total order: its kind and
// its index into the corresponding per-kind slice (Ops, Ingests, Faults,
// Polls, Snapshots; zero for topo and checkpoint markers). A projection
// resuming from committed offset N folds Stream[N:] — the exact surviving
// suffix, interleaved across kinds in append order.
type StreamEntry struct {
	Kind  RecordKind
	Index int32
}

// Checkpoint is one recovered projection checkpoint frame.
type Checkpoint struct {
	// Offset is the count of records preceding this checkpoint in the
	// stream: the folder's state covers exactly Stream[:Offset]. Resume
	// folds Stream[Offset:] on top.
	Offset uint64
	// Digest is Fingerprint(State), verified against the re-encoded state
	// after decode so a folder schema drift is caught loudly.
	Digest uint64
	// State is the folder-encoded state (copied out of the frame).
	State []byte
}

// Recovered is everything a journal holds after tear repair: the decoded
// record streams plus what was discarded to get there. It is read-only —
// Recover never modifies the files (Open does the truncation).
type Recovered struct {
	// Topo is the journaled topology, nil if the journal has none (e.g. an
	// eona-lg journal, which carries only ingests and polls).
	Topo *netsim.TopoState
	// Snapshot is the newest intact snapshot, nil if none.
	Snapshot *SnapRecord
	// Snapshots holds every intact snapshot in append order; MaterializeAt
	// picks the newest one at or before its target op index.
	Snapshots []SnapRecord
	// Ops holds every op record in append order, from the beginning of the
	// log — not just the tail, so Bisect can replay the whole history.
	Ops []OpRecord
	// Ingests, Faults and Polls are the non-netsim streams in append order.
	Ingests []core.QoERecord
	Faults  []faults.Event
	Polls   []PollRecord
	// Stream is the journal's total record order: one entry per surviving
	// record, across all kinds. Projections fold it; checkpoint offsets
	// index into it.
	Stream []StreamEntry
	// Checkpoints holds each projection folder's recovered checkpoints in
	// append order (oldest first), keyed by folder name.
	Checkpoints map[string][]Checkpoint
	// TruncatedBytes counts torn-tail bytes that were ignored, and
	// DroppedSegments counts segments discarded after a mid-log tear.
	TruncatedBytes  int64
	DroppedSegments int
	// Segments counts the segment files that contributed records.
	Segments int
	// dec amortizes payload decode allocations across the whole recovery.
	dec decoder
}

// Recover reads the journal in dir, tolerating (and measuring) a torn tail:
// everything before the first tear is decoded, everything after it is
// counted into TruncatedBytes/DroppedSegments. A missing directory or one
// with no segments yields an empty Recovered, not an error — a first boot
// has no journal yet. A segment written in another format version is an
// error (ErrVersion), never read as a tear.
func Recover(dir string) (*Recovered, error) {
	rec := &Recovered{}
	segs, err := segmentFiles(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return rec, nil
		}
		return nil, fmt.Errorf("journal: %w", err)
	}
	torn := false
	for i, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if torn {
			rec.DroppedSegments++
			rec.TruncatedBytes += int64(len(data))
			continue
		}
		valid, serr := scanSegment(data, rec.apply)
		if serr != nil && !errors.Is(serr, ErrTorn) {
			return nil, fmt.Errorf("journal: segment %s: %w", name, serr)
		}
		rec.Segments = i + 1
		if serr != nil {
			torn = true
			rec.TruncatedBytes += int64(len(data) - valid)
		}
	}
	if n := len(rec.Snapshots); n > 0 {
		rec.Snapshot = &rec.Snapshots[n-1]
	}
	return rec, nil
}

// apply decodes one record into the Recovered streams. A record that frames
// correctly but fails its payload decode is corruption past the CRC —
// surfaced as an error, not silently skipped.
func (r *Recovered) apply(typ byte, payload []byte) error {
	entry := StreamEntry{Kind: RecordKind(typ)}
	switch typ {
	case recTopo:
		ts, err := decodeTopoPayload(payload)
		if err != nil {
			return err
		}
		r.Topo = &ts
	case recOp:
		op, digest, err := r.dec.decodeOp(payload)
		if err != nil {
			return err
		}
		entry.Index = int32(len(r.Ops))
		r.Ops = append(r.Ops, OpRecord{Op: op, Digest: digest})
	case recNetSnap:
		opIndex, st, digest, err := r.dec.decodeSnap(payload)
		if err != nil {
			return err
		}
		if opIndex > uint64(len(r.Ops)) {
			return fmt.Errorf("journal: snapshot claims %d preceding ops, log has %d", opIndex, len(r.Ops))
		}
		entry.Index = int32(len(r.Snapshots))
		r.Snapshots = append(r.Snapshots, SnapRecord{OpIndex: int(opIndex), State: st, Digest: digest})
	case recFault:
		ev, err := decodeFaultPayload(payload)
		if err != nil {
			return err
		}
		entry.Index = int32(len(r.Faults))
		r.Faults = append(r.Faults, ev)
	case recIngest:
		qr, err := decodeIngestPayload(payload)
		if err != nil {
			return err
		}
		entry.Index = int32(len(r.Ingests))
		r.Ingests = append(r.Ingests, qr)
	case recPoll:
		pr, err := decodePollPayload(payload)
		if err != nil {
			return err
		}
		entry.Index = int32(len(r.Polls))
		r.Polls = append(r.Polls, pr)
	case recProjCkpt:
		name, offset, digest, state, err := decodeCkptPayload(payload)
		if err != nil {
			return err
		}
		if offset > uint64(len(r.Stream)) {
			return fmt.Errorf("journal: checkpoint %q claims offset %d, stream has %d records", name, offset, len(r.Stream))
		}
		if got := Fingerprint(state); got != digest {
			return fmt.Errorf("journal: checkpoint %q state fingerprint %016x != recorded %016x", name, got, digest)
		}
		if r.Checkpoints == nil {
			r.Checkpoints = make(map[string][]Checkpoint)
		}
		cp := Checkpoint{Offset: offset, Digest: digest, State: append([]byte(nil), state...)}
		r.Checkpoints[name] = append(r.Checkpoints[name], cp)
	default:
		return fmt.Errorf("journal: unknown record type %d", typ)
	}
	r.Stream = append(r.Stream, entry)
	return nil
}

// LatestCheckpoint returns a folder's newest recovered checkpoint, or false
// when the journal holds none for that name.
func (r *Recovered) LatestCheckpoint(name string) (Checkpoint, bool) {
	cps := r.Checkpoints[name]
	if len(cps) == 0 {
		return Checkpoint{}, false
	}
	return cps[len(cps)-1], true
}

// MaterializeAt rebuilds the journaled network as it stood after the first
// opIndex ops — time travel to any journaled point; MaterializeAt(len(Ops))
// is the network at the head of the log. Cost is O(distance to
// the nearest preceding snapshot), not O(opIndex): the newest snapshot at
// or before opIndex is imported and only the gap is replayed, the whole
// tail inside one Batch so the allocator re-solves once at commit instead
// of per op. Verification is not weakened by batching: StateDigest hashes
// allocator *inputs*, which update eagerly inside an open batch, so each
// replayed op is still checked against the digest the writer recorded; a
// mismatch means the log does not reproduce the writer's run (use Bisect to
// find where). Returns the network and the number of tail ops replayed.
func (r *Recovered) MaterializeAt(opIndex int) (*netsim.Network, int, error) {
	if r.Topo == nil {
		return nil, 0, fmt.Errorf("journal: no topology record; journal does not carry a network")
	}
	if opIndex < 0 || opIndex > len(r.Ops) {
		return nil, 0, fmt.Errorf("journal: op index %d out of range [0, %d]", opIndex, len(r.Ops))
	}
	n := netsim.NewNetwork(r.Topo.Build())
	start := 0
	// Snapshots are appended in op order, so the newest usable one is the
	// last with OpIndex <= opIndex.
	for i := len(r.Snapshots) - 1; i >= 0; i-- {
		if r.Snapshots[i].OpIndex <= opIndex {
			snap := &r.Snapshots[i]
			if err := n.ImportState(snap.State); err != nil {
				return nil, 0, fmt.Errorf("journal: import snapshot: %w", err)
			}
			if got := n.StateDigest(); got != snap.Digest {
				return nil, 0, fmt.Errorf("journal: imported snapshot digest %016x != recorded %016x", got, snap.Digest)
			}
			start = snap.OpIndex
			break
		}
	}
	tail := r.Ops[start:opIndex]
	rp := netsim.NewReplayer(n)
	var rerr error
	var applied int
	n.Batch(func() {
		for i, or := range tail {
			if err := rp.Apply(or.Op); err != nil {
				rerr = fmt.Errorf("journal: replay tail: %w", err)
				return
			}
			if got := n.StateDigest(); got != or.Digest {
				rerr = fmt.Errorf("journal: tail op %d replayed to digest %016x, journal recorded %016x (run bisect)", i, got, or.Digest)
				return
			}
			applied++
		}
	})
	if rerr != nil {
		return nil, applied, rerr
	}
	return n, len(tail), nil
}

// ReplayPrefix rebuilds the network after the first opIndex ops by serial,
// unbatched, snapshot-free replay from the first op — the trivially correct
// reference MaterializeAt is differentially tested against. O(opIndex); use
// MaterializeAt outside tests.
func (r *Recovered) ReplayPrefix(opIndex int) (*netsim.Network, error) {
	if r.Topo == nil {
		return nil, fmt.Errorf("journal: no topology record; journal does not carry a network")
	}
	if opIndex < 0 || opIndex > len(r.Ops) {
		return nil, fmt.Errorf("journal: op index %d out of range [0, %d]", opIndex, len(r.Ops))
	}
	n := netsim.NewNetwork(r.Topo.Build())
	rp := netsim.NewReplayer(n)
	for i, or := range r.Ops[:opIndex] {
		if err := rp.Apply(or.Op); err != nil {
			return nil, fmt.Errorf("journal: replay: %w", err)
		}
		if got := n.StateDigest(); got != or.Digest {
			return nil, fmt.Errorf("journal: op %d replayed to digest %016x, journal recorded %016x", i, got, or.Digest)
		}
	}
	return n, nil
}

// Divergence names the first op at which a replayed mirror stops matching
// the journal's recorded digests.
type Divergence struct {
	// Index is the offending op's position in Recovered.Ops.
	Index int
	Op    netsim.Op
	// Want is the digest the journal recorded after this op; Got is what
	// the mirror computed. Both zero when ApplyErr is set.
	Want, Got uint64
	// ApplyErr is non-nil when the op would not even apply to the mirror
	// (e.g. it references a flow the log never started).
	ApplyErr error
}

func (d *Divergence) Error() string {
	if d.ApplyErr != nil {
		return fmt.Sprintf("journal: op %d (%v) failed to apply: %v", d.Index, d.Op.Kind, d.ApplyErr)
	}
	return fmt.Sprintf("journal: op %d (%v) diverges: mirror digest %016x, journal recorded %016x", d.Index, d.Op.Kind, d.Got, d.Want)
}

// Bisect replays the full op log, prefix by prefix, against a fresh serial
// mirror of the journaled topology and reports the first op whose
// post-apply state digest disagrees with what the writer recorded — the
// first divergent op index. nil means every prefix matches: the journal
// reproduces the run. Since each prefix extends the last by one op, the
// incremental replay checks all prefixes in one O(n) pass.
func (r *Recovered) Bisect() (*Divergence, error) {
	if r.Topo == nil {
		return nil, fmt.Errorf("journal: no topology record; nothing to bisect against")
	}
	n := netsim.NewNetwork(r.Topo.Build())
	rp := netsim.NewReplayer(n)
	for i, or := range r.Ops {
		if err := rp.Apply(or.Op); err != nil {
			return &Divergence{Index: i, Op: or.Op, ApplyErr: err}, nil
		}
		if got := n.StateDigest(); got != or.Digest {
			return &Divergence{Index: i, Op: or.Op, Want: or.Digest, Got: got}, nil
		}
	}
	return nil, nil
}
