// Package projection is the read-model half of the durability layer: the
// actualizer pattern over internal/journal's event log. A Folder is a pure
// fold — it consumes journal records in stream order and maintains derived
// state (QoE rollups, I2A hint feeds, link-utilization series) that live
// queries read in O(1) instead of recomputing from history. The Engine
// routes every appended record through the journal writer and then through
// each folder under one lock, so fold order equals journal order by
// construction, and periodically commits each folder's encoded state as a
// checkpoint frame carrying the offset it is durable through. A restarted
// node Resumes from (checkpoint state, committed offset) and folds only the
// record tail — O(checkpoint delta), not O(history) — and MaterializeAt
// rebuilds the read models at any journaled offset for time-travel queries.
//
// Contract (see DESIGN.md §5):
//
//   - Offset commit vs data durability: a checkpoint frame carries (state,
//     offset, fingerprint) under one CRC and is appended *after* the
//     records it covers, in the same log. The offset is therefore always a
//     low-water mark — a crash can lose a checkpoint (fall back to the
//     previous one and refold the tail; folds are deterministic, so
//     refolding is harmless) but can never persist an offset ahead of its
//     data.
//   - Checkpoint cadence bounds recovery: with CheckpointEvery = k, resume
//     refolds at most k records per folder plus whatever trailed the last
//     checkpoint. TestResumeEqualsFromScratchFold pins the bound.
package projection

import (
	"errors"
	"fmt"
	"sync"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/netsim"
)

// Folder is one incremental read model: a deterministic fold over the
// journal's record stream. Folds never fail — a folder that cannot use a
// record ignores it — and EncodeState is canonical: two folders that folded
// the same stream encode identical bytes, which is what makes checkpoint
// fingerprints and differential tests meaningful.
type Folder interface {
	// Name keys this folder's checkpoints in the journal. Stable across
	// restarts; one journal must not carry two folders with one name.
	Name() string
	// Reset returns the folder to its empty (nothing folded) state.
	Reset()
	// FoldTopo consumes the topology record.
	FoldTopo(ts netsim.TopoState)
	// FoldOp consumes one committed netsim op and its post-apply digest.
	FoldOp(op netsim.Op, digest uint64)
	// FoldSnapshot consumes a network snapshot taken after opIndex ops.
	FoldSnapshot(opIndex int, st *netsim.NetState)
	// FoldIngest consumes one A2I session record.
	FoldIngest(rec core.QoERecord)
	// FoldPoll consumes one looking-glass poll result.
	FoldPoll(pr journal.PollRecord)
	// FoldFault consumes one fault-plan event.
	FoldFault(ev faults.Event)
	// EncodeState appends the folder's state to buf and returns it. The
	// encoding is binary, in the journal's payload fields
	// (journal.PayloadReader and the Append helpers), for the reason op
	// records are: aggregator state carries values JSON cannot (±Inf
	// demands in link-utilization inputs), and encode(decode(p)) == p is
	// what lets a Fingerprint be compared across processes.
	EncodeState(buf []byte) []byte
	// DecodeState replaces the folder's state with a previously encoded
	// one.
	DecodeState(p []byte) error
}

// Base is a no-op fold for embedding: a folder overrides the records it
// consumes and inherits ignores for the rest.
type Base struct{}

func (Base) FoldTopo(netsim.TopoState)          {}
func (Base) FoldOp(netsim.Op, uint64)           {}
func (Base) FoldSnapshot(int, *netsim.NetState) {}
func (Base) FoldIngest(core.QoERecord)          {}
func (Base) FoldPoll(journal.PollRecord)        {}
func (Base) FoldFault(faults.Event)             {}

// StateDigest fingerprints a folder's current state — the value a
// checkpoint frame records, and the equality differential tests compare.
func StateDigest(f Folder) uint64 {
	return journal.Fingerprint(f.EncodeState(nil))
}

// DefaultCheckpointEvery is the checkpoint cadence (in folded records) when
// Config.CheckpointEvery is zero.
const DefaultCheckpointEvery = 64

// Config parameterizes NewEngine.
type Config struct {
	// Writer is the journal the engine appends through. Nil runs the
	// engine fold-only: records fold into the read models but nothing is
	// persisted (benchmarks, ephemeral nodes).
	Writer *journal.Writer
	// CheckpointEvery commits each folder's checkpoint after this many
	// folded records (default DefaultCheckpointEvery). Ignored when
	// Writer is nil.
	CheckpointEvery int
}

// Engine owns a folder set and keeps fold order equal to journal order:
// every record is appended to the journal and folded into each folder under
// one lock. All appends must route through the engine — a record written
// directly to the shared Writer would be journaled but never folded, and
// the read models would silently diverge from the log.
//
// Engine implements netsim.OpSink, so it drops into every slot the bare
// Writer used to fill.
type Engine struct {
	mu      sync.RWMutex
	w       *journal.Writer
	folders []Folder
	every   int
	since   int // records folded since the last checkpoint
	ops     int // op records folded (stamps live snapshot folds)
	buf     []byte
}

// NewEngine builds an engine folding into folders. Folder names must be
// unique — they key checkpoint frames.
func NewEngine(cfg Config, folders ...Folder) (*Engine, error) {
	seen := make(map[string]bool, len(folders))
	for _, f := range folders {
		if seen[f.Name()] {
			return nil, fmt.Errorf("projection: duplicate folder name %q", f.Name())
		}
		seen[f.Name()] = true
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Engine{w: cfg.Writer, folders: folders, every: every}, nil
}

// Read runs fn holding the engine's read lock: queries against folder state
// are consistent with concurrent appends. fn must not call engine append
// methods.
func (e *Engine) Read(fn func()) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn()
}

// Err surfaces the journal writer's latched error, nil in fold-only mode.
// Folding continues past a write error — the read models stay live even
// when the disk is gone — so operators check Err.
func (e *Engine) Err() error {
	if e.w == nil {
		return nil
	}
	return e.w.Err()
}

// folded accounts one folded record and commits checkpoints on cadence.
// Callers hold e.mu.
func (e *Engine) folded() {
	e.since++
	if e.w == nil || e.since < e.every {
		return
	}
	e.checkpointLocked()
}

// checkpointLocked commits every folder's state. The data records each
// folder has folded are already in the log (appends happen before folds
// under the same lock), so the offset the writer assigns is a true
// low-water mark.
func (e *Engine) checkpointLocked() {
	for _, f := range e.folders {
		e.buf = f.EncodeState(e.buf[:0])
		_ = e.w.AppendCheckpoint(f.Name(), e.buf)
	}
	e.since = 0
}

// AppendTopology journals and folds the topology record.
func (e *Engine) AppendTopology(ts netsim.TopoState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendTopology(ts)
	}
	for _, f := range e.folders {
		f.FoldTopo(ts)
	}
	e.folded()
	return err
}

// AppendOp implements netsim.OpSink.
func (e *Engine) AppendOp(op netsim.Op, digest uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendOp(op, digest)
	}
	for _, f := range e.folders {
		f.FoldOp(op, digest)
	}
	e.ops++
	e.folded()
	return err
}

// AppendSnapshot implements netsim.OpSink.
func (e *Engine) AppendSnapshot(st netsim.NetState, digest uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendSnapshot(st, digest)
	}
	for _, f := range e.folders {
		f.FoldSnapshot(e.ops, &st)
	}
	e.folded()
	return err
}

// AppendOpaque is a stub kept only because bench/node.go still names it;
// nothing calls it, and netsim.OpSink no longer has the method.
func (*Engine) AppendOpaque() error { return errors.New("projection: no opaque records") }

// AppendFault journals and folds one fault event.
func (e *Engine) AppendFault(ev faults.Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendFault(ev)
	}
	for _, f := range e.folders {
		f.FoldFault(ev)
	}
	e.folded()
	return err
}

// AppendIngest journals and folds one A2I session record.
func (e *Engine) AppendIngest(rec core.QoERecord) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendIngest(rec)
	}
	for _, f := range e.folders {
		f.FoldIngest(rec)
	}
	e.folded()
	return err
}

// AppendPoll journals and folds one looking-glass poll result.
func (e *Engine) AppendPoll(pr journal.PollRecord) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if e.w != nil {
		err = e.w.AppendPoll(pr)
	}
	for _, f := range e.folders {
		f.FoldPoll(pr)
	}
	e.folded()
	return err
}

var _ netsim.OpSink = (*Engine)(nil)

// ResumeStats reports what Resume did per folder: how many tail records
// were folded on top of the recovered checkpoint (TailFolded == total
// stream length means no checkpoint survived and the folder refolded
// everything).
type ResumeStats struct {
	TailFolded map[string]int
}

// Resume rebuilds every folder from a recovered journal: the newest
// surviving checkpoint is decoded and verified (the decoded state must
// re-encode to the recorded fingerprint, so schema drift is caught loudly,
// not folded over), then the record tail past its committed offset is
// folded. A folder with no checkpoint refolds the whole stream. Cost per
// folder is O(tail), bounded by the checkpoint cadence — the whole point.
func (e *Engine) Resume(rec *journal.Recovered) (ResumeStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	stats := ResumeStats{TailFolded: make(map[string]int, len(e.folders))}
	for _, f := range e.folders {
		from := 0
		f.Reset()
		if cp, ok := rec.LatestCheckpoint(f.Name()); ok {
			var err error
			if e.buf, err = restore(f, cp, e.buf); err != nil {
				return stats, fmt.Errorf("projection: resume %q: %w", f.Name(), err)
			}
			from = int(cp.Offset)
		}
		if err := foldStream(rec, f, from, len(rec.Stream)); err != nil {
			return stats, fmt.Errorf("projection: resume %q: %w", f.Name(), err)
		}
		stats.TailFolded[f.Name()] = len(rec.Stream) - from
	}
	e.ops = len(rec.Ops)
	e.since = 0
	return stats, nil
}
