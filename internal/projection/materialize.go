package projection

import (
	"fmt"
	"slices"

	"eona/internal/journal"
)

// foldStream folds rec.Stream[from:to) into f, dispatching each entry to
// the per-kind slice it indexes. Checkpoint frames are skipped — they are
// commits about the stream, not part of it — but they still occupy stream
// positions, which is what lets a checkpoint's offset index this stream
// directly.
func foldStream(rec *journal.Recovered, f Folder, from, to int) error {
	if from < 0 || to > len(rec.Stream) || from > to {
		return fmt.Errorf("projection: fold range [%d, %d) out of stream bounds [0, %d)", from, to, len(rec.Stream))
	}
	for _, ent := range rec.Stream[from:to] {
		switch ent.Kind {
		case journal.KindTopo:
			if rec.Topo != nil {
				f.FoldTopo(*rec.Topo)
			}
		case journal.KindOp:
			or := rec.Ops[ent.Index]
			f.FoldOp(or.Op, or.Digest)
		case journal.KindNetSnap:
			sr := &rec.Snapshots[ent.Index]
			f.FoldSnapshot(sr.OpIndex, &sr.State)
		case journal.KindFault:
			f.FoldFault(rec.Faults[ent.Index])
		case journal.KindIngest:
			f.FoldIngest(rec.Ingests[ent.Index])
		case journal.KindPoll:
			f.FoldPoll(rec.Polls[ent.Index])
		case journal.KindOpaque:
			f.FoldOpaque()
		case journal.KindCheckpoint:
			// Not folded.
		default:
			return fmt.Errorf("projection: unknown stream record kind %v", ent.Kind)
		}
	}
	return nil
}

// Fold rebuilds f from scratch over the first `offset` stream records —
// the serial reference MaterializeAt is differentially tested against.
func Fold(rec *journal.Recovered, f Folder, offset int) error {
	f.Reset()
	return foldStream(rec, f, 0, offset)
}

// restore loads a checkpoint into f and verifies it: the decoded state must
// re-encode to the fingerprint the checkpoint recorded, so a folder whose
// decoder drifted from its encoder fails loudly instead of being folded over.
// buf is encode scratch, grown once to the checkpoint's size (what an
// undrifted state re-encodes to) and returned for reuse.
func restore(f Folder, cp journal.Checkpoint, buf []byte) ([]byte, error) {
	if err := f.DecodeState(cp.State); err != nil {
		return buf, err
	}
	buf = f.EncodeState(slices.Grow(buf[:0], len(cp.State)))
	if got := journal.Fingerprint(buf); got != cp.Digest {
		return buf, fmt.Errorf("decoded state re-encodes to %016x, checkpoint recorded %016x (folder schema drift?)", got, cp.Digest)
	}
	return buf, nil
}

// MaterializeAt rebuilds each folder's read model as of stream offset —
// time travel for derived state, the projection counterpart of
// journal.Recovered.MaterializeAt. For each folder the newest checkpoint
// committed at or below offset is restored (decoded and verified, as Resume
// does) and only the gap up to offset is folded: O(distance to the nearest
// checkpoint), not O(offset). Folders with no usable checkpoint fold from
// scratch.
func MaterializeAt(rec *journal.Recovered, offset int, folders ...Folder) error {
	if offset < 0 || offset > len(rec.Stream) {
		return fmt.Errorf("projection: offset %d out of stream bounds [0, %d]", offset, len(rec.Stream))
	}
	var buf []byte
	for _, f := range folders {
		from := 0
		f.Reset()
		// Checkpoints per name are in append order; take the newest one at
		// or below the target offset.
		cps := rec.Checkpoints[f.Name()]
		for i := len(cps) - 1; i >= 0; i-- {
			if cps[i].Offset <= uint64(offset) {
				var err error
				if buf, err = restore(f, cps[i], buf); err != nil {
					return fmt.Errorf("projection: materialize %q: %w", f.Name(), err)
				}
				from = int(cps[i].Offset)
				break
			}
		}
		if err := foldStream(rec, f, from, offset); err != nil {
			return fmt.Errorf("projection: materialize %q: %w", f.Name(), err)
		}
	}
	return nil
}
