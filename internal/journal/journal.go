package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/netsim"
)

// SyncPolicy selects when the writer fsyncs the active segment.
type SyncPolicy int

const (
	// SyncAppend fsyncs after every appended record: a record that was
	// acknowledged is on disk. The default, and the policy the durability
	// contract is stated against.
	SyncAppend SyncPolicy = iota
	// SyncRotate fsyncs only at segment rotation and Close. A crash can
	// lose the unsynced suffix of the active segment, but recovery still
	// truncates cleanly at the last valid frame.
	SyncRotate
	// SyncNever leaves all syncing to the OS. Fastest; weakest.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAppend:
		return "append"
	case SyncRotate:
		return "rotate"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps the flag spellings ("append", "rotate", "never") to
// a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "append", "":
		return SyncAppend, nil
	case "rotate":
		return SyncRotate, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want append, rotate or never)", s)
}

// DefaultSegmentBytes is the rotation threshold when Config.SegmentBytes is
// zero.
const DefaultSegmentBytes = 8 << 20

// Config parameterizes Open.
type Config struct {
	// Dir is the journal directory (created if absent). One journal per
	// directory.
	Dir string
	// SegmentBytes rotates the active segment once it grows past this many
	// bytes (default DefaultSegmentBytes). Rotation happens between
	// records; frames never straddle segments.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAppend).
	Sync SyncPolicy
}

// segName formats the i'th segment's file name. Fixed-width indices make
// lexical order equal numeric order.
func segName(i int) string { return fmt.Sprintf("journal-%06d.eoj", i) }

// segmentFiles lists dir's segment files sorted by index.
func segmentFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		var i int
		if !e.IsDir() && len(e.Name()) == len(segName(0)) {
			if _, err := fmt.Sscanf(e.Name(), "journal-%06d.eoj", &i); err == nil {
				segs = append(segs, e.Name())
			}
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// Writer is the append side of a journal. Safe for concurrent use: the
// SharedNetwork owner goroutine, the fault scheduler and a collector wrapper
// may all append. The first write error latches (Err); later appends return
// it without touching the file, so a full disk cannot interleave torn
// frames.
type Writer struct {
	mu      sync.Mutex
	cfg     Config
	f       *os.File
	size    int64 // bytes written to the active segment
	seg     int   // active segment index
	opCount uint64
	// recCount counts every valid record in the journal (recovered +
	// appended this process), of all types including checkpoints. It is the
	// offset a checkpoint frame commits: the count of records that precede
	// it in the stream.
	recCount uint64
	buf      []byte // frame-encode scratch, reused per record
	payload  []byte // payload-encode scratch, reused per record
	err      error
}

// Open opens (or creates) the journal in cfg.Dir for appending. An existing
// journal is first repaired: the last segment's torn tail — the residue of a
// crash mid-write — is truncated at the last valid frame boundary, and any
// segments after a torn one (residue of a crash mid-rotation) are deleted.
// Appends then continue the surviving log; the op count resumes so snapshot
// offsets stay consistent across restarts. A segment of another format
// version is not a tear: Open fails with ErrVersion and leaves every file as
// it found it.
func Open(cfg Config) (*Writer, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("journal: Config.Dir is required")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := segmentFiles(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w := &Writer{cfg: cfg}
	if len(segs) == 0 {
		if err := w.openSegment(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Walk existing segments counting ops and locating the first tear.
	last := len(segs) - 1
	for i, name := range segs {
		path := filepath.Join(cfg.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		valid, serr := scanSegment(data, func(typ byte, _ []byte) error {
			if typ == recOp {
				w.opCount++
			}
			w.recCount++
			return nil
		})
		if errors.Is(serr, ErrVersion) {
			return nil, fmt.Errorf("journal: segment %s: %w", name, serr)
		}
		if serr != nil {
			// Torn segment: truncate it and drop everything after it.
			if err := os.Truncate(path, int64(valid)); err != nil {
				return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
			}
			for _, later := range segs[i+1:] {
				if err := os.Remove(filepath.Join(cfg.Dir, later)); err != nil {
					return nil, fmt.Errorf("journal: drop post-tear segment: %w", err)
				}
			}
			last = i
			break
		}
	}
	var idx int
	fmt.Sscanf(segs[last], "journal-%06d.eoj", &idx)
	path := filepath.Join(cfg.Dir, segs[last])
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	w.f, w.seg, w.size = f, idx, st.Size()
	if w.size < int64(len(segMagic)) {
		// A zero-length or sub-magic segment (crash between create and
		// magic write) is rewritten from scratch.
		f.Close()
		if err := w.openSegment(idx); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// openSegment creates segment i, writes its magic and makes it active.
func (w *Writer) openSegment(i int) error {
	path := filepath.Join(w.cfg.Dir, segName(i))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if w.cfg.Sync != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		syncDir(w.cfg.Dir)
	}
	w.f, w.seg, w.size = f, i, int64(len(segMagic))
	return nil
}

// syncDir fsyncs a directory so a freshly created segment's entry is
// durable. Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// append frames and writes one record under the lock, honoring the sync
// policy and rotating afterwards when the active segment is past its bound.
func (w *Writer) append(typ byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(typ, payload)
}

func (w *Writer) appendLocked(typ byte, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	w.buf = appendFrame(w.buf[:0], typ, payload)
	n, err := w.f.Write(w.buf)
	if err != nil {
		// A partial write leaves a torn frame; recovery truncates it.
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	w.size += int64(n)
	w.recCount++
	if w.cfg.Sync == SyncAppend {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
			return w.err
		}
	}
	if w.size >= w.cfg.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) rotateLocked() error {
	if w.cfg.Sync != SyncNever {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync at rotate: %w", err)
			return w.err
		}
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("journal: close segment: %w", err)
		return w.err
	}
	if err := w.openSegment(w.seg + 1); err != nil {
		w.err = err
		return err
	}
	return nil
}

// AppendTopology records the topology the op log runs over. Write it once,
// right after Open on a fresh journal, so recovery can rebuild the graph
// without the scenario code.
func (w *Writer) AppendTopology(ts netsim.TopoState) error {
	p, err := marshalJSONPayload("topology", ts)
	if err != nil {
		return err
	}
	return w.append(recTopo, p)
}

// AppendOp implements netsim.OpSink: one committed mutation plus the state
// digest after applying it.
func (w *Writer) AppendOp(op netsim.Op, digest uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payload = appendOpPayload(w.payload[:0], op, digest)
	if err := w.appendLocked(recOp, w.payload); err != nil {
		return err
	}
	w.opCount++
	return nil
}

// AppendSnapshot implements netsim.OpSink: a full NetState checkpoint.
// Recovery imports the newest snapshot and replays only the ops behind it.
func (w *Writer) AppendSnapshot(st netsim.NetState, digest uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payload = appendSnapPayload(w.payload[:0], w.opCount, st, digest)
	return w.appendLocked(recNetSnap, w.payload)
}

// AppendCheckpoint commits one projection checkpoint: the folder's encoded
// state plus the offset it is durable through — the count of records that
// precede the checkpoint frame in the record stream. Offset, fingerprint
// and state travel in a single CRC-covered frame, so the commit is atomic
// under the journal's torn-tail contract: either the whole checkpoint
// survives a crash or recovery falls back to the previous one. Because the
// offset is assigned under the writer lock, data records a folder already
// folded are always at stream positions below it — the fold-then-checkpoint
// ordering callers follow makes the offset a true low-water mark.
func (w *Writer) AppendCheckpoint(name string, state []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payload = appendCkptPayload(w.payload[:0], name, w.recCount, Fingerprint(state), state)
	return w.appendLocked(recProjCkpt, w.payload)
}

// AppendOpaque implements netsim.OpSink: marks an opaque Batch mutation the
// journal could not capture op-by-op. Replay past this marker is unsound and
// recovery says so.
func (w *Writer) AppendOpaque() error { return w.append(recOpaque, nil) }

// AppendFault records one fault event.
func (w *Writer) AppendFault(ev faults.Event) error {
	p, err := marshalJSONPayload("fault event", ev)
	if err != nil {
		return err
	}
	return w.append(recFault, p)
}

// AppendIngest records one collector ingest.
func (w *Writer) AppendIngest(rec core.QoERecord) error {
	p, err := marshalJSONPayload("ingest", rec)
	if err != nil {
		return err
	}
	return w.append(recIngest, p)
}

// AppendPoll records one looking-glass poll result.
func (w *Writer) AppendPoll(pr PollRecord) error {
	p, err := marshalJSONPayload("poll", pr)
	if err != nil {
		return err
	}
	return w.append(recPoll, p)
}

// Sync forces the active segment to disk regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: sync: %w", err)
	}
	return w.err
}

// Err returns the writer's latched first error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Ops returns the number of op records in the journal (recovered + appended
// this process).
func (w *Writer) Ops() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.opCount
}

// Records returns the number of records of all types in the journal
// (recovered + appended this process) — the offset the next AppendCheckpoint
// would commit.
func (w *Writer) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.recCount
}

// Close syncs (per policy) and closes the active segment. The writer is
// unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if w.cfg.Sync != SyncNever && w.err == nil {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("journal: sync at close: %w", err)
		}
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = fmt.Errorf("journal: close: %w", err)
	}
	w.f = nil
	return w.err
}

var _ netsim.OpSink = (*Writer)(nil)
