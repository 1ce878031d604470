package netsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// OpKind enumerates the mutations a SharedNetwork accepts and records.
type OpKind uint8

const (
	// OpStart attaches a flow (Links = path, Value = demand, Tag = tag;
	// Flow = the ID the network assigned at apply time).
	OpStart OpKind = iota
	// OpStop detaches flow Flow.
	OpStop
	// OpSetDemand sets flow Flow's demand ceiling to Value.
	OpSetDemand
	// OpSetWeight sets flow Flow's fair-share weight to Value.
	OpSetWeight
	// OpSetPath re-routes flow Flow onto Links.
	OpSetPath
	// OpSetLinkCapacity sets link Link's capacity to Value.
	OpSetLinkCapacity
)

// String returns the op kind's lowercase name.
func (k OpKind) String() string {
	switch k {
	case OpStart:
		return "start"
	case OpStop:
		return "stop"
	case OpSetDemand:
		return "set-demand"
	case OpSetWeight:
		return "set-weight"
	case OpSetPath:
		return "set-path"
	case OpSetLinkCapacity:
		return "set-link-capacity"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one committed mutation, as a SharedNetwork hands it to its OpSink: a
// value type that can be replayed onto a fresh serial Network (Replay) or
// serialized for a future multi-process cluster mode. Ops reach the sink in
// application order, so replaying them serially reproduces the shared run's
// flow and link rates bit for bit (pinned by TestSharedDifferentialOnFixtures).
type Op struct {
	Kind  OpKind
	Flow  FlowID
	Links []LinkID // path for OpStart / OpSetPath
	Value float64  // demand, weight or capacity
	Link  LinkID   // target of OpSetLinkCapacity
	Tag   string
}

// pathOf resolves a recorded link-ID sequence back to a Path.
func (t *Topology) pathOf(ids []LinkID) (Path, error) {
	p := make(Path, len(ids))
	for i, id := range ids {
		l := t.Link(id)
		if l == nil {
			return nil, fmt.Errorf("netsim: replay references unknown link %d", id)
		}
		p[i] = l
	}
	return p, nil
}

// OpSink receives every committed op (and periodic state snapshots) as
// they apply — the hook a durable journal implements (internal/journal) so
// a SharedNetwork's history survives the process. All methods are called
// in commit order with the network's write path held — the writer lock in
// immediate mode, the owner goroutine in deterministic mode — so
// implementations need no locking against the network, but must not call
// back into it: a mutation or Commit from inside a sink deadlocks. A sink
// that panics leaves the network unusable (see SharedNetwork).
type OpSink interface {
	// AppendOp records one committed op together with the post-apply
	// StateDigest of the network (a fingerprint of the allocator inputs,
	// O(links) to read), which replay tools compare per op to bisect
	// divergence.
	AppendOp(op Op, digest uint64) error
	// AppendSnapshot records a full state snapshot; recovery loads the
	// latest snapshot and replays only the ops after it. st is valid only
	// during the call: the owner exports every snapshot into the same
	// scratch, so an implementation encodes or folds st before returning
	// and keeps none of its slices.
	AppendSnapshot(st NetState, digest uint64) error
}

// OpLog is the in-memory OpSink: it keeps every committed op, in commit
// order, for Replay-based differential checks and op-sequence export.
// Snapshots are not kept — the ops alone replay the run. The network's
// writers append to it, so read it only after Close.
type OpLog struct {
	Ops []Op
}

func (l *OpLog) AppendOp(op Op, _ uint64) error        { l.Ops = append(l.Ops, op); return nil }
func (l *OpLog) AppendSnapshot(NetState, uint64) error { return nil }

// SharedConfig configures a SharedNetwork.
type SharedConfig struct {
	// Deterministic buffers mutations instead of applying them on arrival:
	// nothing commits until Commit(), which applies the buffered window
	// sorted by (driver, per-driver sequence). Concurrent drivers that
	// synchronize on Commit barriers therefore produce bit-identical runs
	// regardless of goroutine scheduling. In this mode mutation calls
	// return before their op is applied: a StartFlow handle's ID and Rate
	// are unspecified until the next Commit, and reads see the previous
	// commit's snapshot. A Commit publishes at most one snapshot, and none
	// when no op was buffered since the last one.
	Deterministic bool
	// Journal, when set, receives every committed op (and, on the
	// SnapshotEvery cadence, full state snapshots) in commit order: a
	// durable journal, or an OpLog to keep the ops in memory. Sink errors
	// do not fail mutations; the first one is retained and surfaced by
	// JournalError.
	Journal OpSink
	// SnapshotEvery appends a state snapshot to Journal after that many
	// journaled ops, always at a commit boundary (never mid-window in
	// deterministic mode). Zero disables automatic snapshots.
	SnapshotEvery int
}

// sharedQueue is the deterministic-mode command channel capacity: the
// backpressure bound for drivers. It only has to absorb a burst of buffered
// ops between owner wake-ups.
const sharedQueue = 128

type cmdKind uint8

const (
	cmdOp cmdKind = iota
	cmdCommit
	cmdClose
)

type sharedCmd struct {
	kind   cmdKind
	op     Op    // parameters for cmdOp (Flow field unset until apply)
	flow   *Flow // target handle; for OpStart, the placeholder to attach
	path   Path  // resolved path for OpStart / OpSetPath
	driver uint64
	seq    uint64
	reply  chan struct{} // cap-1; the owner sends when the command is done (unused for buffered det-mode ops)
}

// cmdPool recycles sharedCmd structs (with their reply channels) across
// mutations: an immediate-mode writer returns its command once applied, and
// in deterministic mode the owner returns the whole window after commit —
// the command path allocates nothing in steady state.
var cmdPool = sync.Pool{New: func() any {
	return &sharedCmd{reply: make(chan struct{}, 1)}
}}

func getCmd() *sharedCmd { return cmdPool.Get().(*sharedCmd) }

func putCmd(c *sharedCmd) {
	c.op = Op{}
	c.flow = nil
	c.path = nil
	c.driver, c.seq = 0, 0
	cmdPool.Put(c)
}

// SharedNetwork makes one Network drivable from many goroutines without a
// lock on the read path. Every mutation is a command carrying the caller's
// *Flow handle, so callers keep the same handles and (in the default
// immediate mode) the same synchronous semantics as the serial API. At
// every commit the writer publishes an immutable *Snapshot through an
// atomic pointer; Snapshot() is one atomic load, so readers never block
// writers and writers never block readers.
//
// Two modes:
//
//   - Immediate (default): each mutation applies and commits before the
//     call returns, exactly like the serial Network. The calling goroutine
//     applies it itself under one writer lock, so any number of goroutines
//     may write; the interleaving (and thus flow-ID assignment) follows
//     lock order, so distinct runs may differ — an OpLog journal still
//     makes any single run exactly replayable. If an op panics mid-apply
//     (a panicking OpSink, say), the lock is released but the network is
//     torn: every later mutation and Commit panics with the same message,
//     Snapshot keeps returning the last published snapshot, and Close
//     still returns the inner Network.
//
//   - Deterministic (SharedConfig.Deterministic): mutations buffer into a
//     window and Commit() applies the window as one batch, ordered by
//     (driver ID, per-driver sequence). Give each concurrent goroutine its
//     own Driver and synchronize goroutines with the Commit barrier, and a
//     run's rates, flow IDs and op log are bit-identical across executions
//     regardless of scheduling. One owner goroutine has exclusive access to
//     the Network and drains a bounded command channel.
//
// Callers must not touch the inner Network directly between NewShared and
// Close: every mutation is an op, so the journal records all of them.
type SharedNetwork struct {
	net  *Network
	cfg  SharedConfig
	snap atomic.Pointer[Snapshot]

	// Immediate mode: mu is the writer lock, and torn marks a network whose
	// last op panicked before it committed.
	mu   sync.Mutex
	torn bool

	// Deterministic mode: the owner goroutine's command channel, and done,
	// closed when it exits.
	cmds chan *sharedCmd
	done chan struct{}

	closed atomic.Bool
	seq0   atomic.Uint64 // op sequence for driver 0 (the SharedNetwork's own methods)
	// buffered counts deterministic-mode ops sent since the last Commit;
	// drivers on worker goroutines bump it, Commit swaps it to zero.
	buffered atomic.Int64

	// Write-path state: held by the writer lock in immediate mode, owned by
	// the owner goroutine in deterministic mode.
	window       []*sharedCmd // deterministic mode: ops buffered until Commit
	pubSeq       uint64
	opsSinceSnap int
	// snapState and snapLinks are the journal snapshot's export scratch,
	// reused by every maybeSnapshot (Network.exportState).
	snapState NetState
	snapLinks []LinkID

	// journalErr is the first sink error: stored once by the write path,
	// readable from any goroutine while the network runs.
	journalErr atomic.Pointer[error]
}

// NewShared wraps a serial Network, taking ownership of n (the caller must
// not use n directly afterwards); in deterministic mode it starts the owner
// goroutine, in immediate mode no goroutine at all. The initial snapshot
// reflects n's state at handoff, so n may be pre-populated serially before
// sharing.
func NewShared(n *Network, cfg SharedConfig) *SharedNetwork {
	s := &SharedNetwork{net: n, cfg: cfg}
	// The initial publication is a full snapshot that also consumes the
	// pending delta flags, so the first delta publish diffs against an
	// accurate baseline even when the network was mutated serially first.
	s.snap.Store(n.snapshotDelta(0, nil))
	if cfg.Deterministic {
		s.cmds = make(chan *sharedCmd, sharedQueue)
		s.done = make(chan struct{})
		go s.run()
	}
	return s
}

// Snapshot returns the latest published read snapshot: one atomic load,
// never nil, safe from any goroutine. It is the read surface: take one
// Snapshot and read every value from it, so they all describe one commit.
func (s *SharedNetwork) Snapshot() *Snapshot { return s.snap.Load() }

// NumFlows returns the number of active flows at the last commit.
func (s *SharedNetwork) NumFlows() int { return s.Snapshot().NumFlows() }

// Stats returns the allocator work counters at the last commit.
func (s *SharedNetwork) Stats() Stats { return s.Snapshot().Stats() }

// --- Write surface ----------------------------------------------------------

// StartFlow attaches a flow, like Network.StartFlow. In immediate mode the
// returned handle is fully attached (ID and Rate valid) when the call
// returns; in deterministic mode it is a placeholder the next Commit
// attaches. The path is validated before the op enters the write path, so
// a scenario bug panics the caller and leaves the network usable.
func (s *SharedNetwork) StartFlow(path Path, demand float64, tag string) *Flow {
	return s.startFlow(path, demand, tag, 0, s.seq0.Add(1))
}

// StopFlow detaches a flow. Unknown or already-stopped flows are a no-op.
func (s *SharedNetwork) StopFlow(f *Flow) {
	s.flowOp(Op{Kind: OpStop}, f, nil, 0, s.seq0.Add(1))
}

// SetDemand updates a flow's demand ceiling.
func (s *SharedNetwork) SetDemand(f *Flow, demand float64) {
	s.flowOp(Op{Kind: OpSetDemand, Value: demand}, f, nil, 0, s.seq0.Add(1))
}

// SetWeight updates a flow's fair-share weight.
func (s *SharedNetwork) SetWeight(f *Flow, weight float64) {
	s.flowOp(Op{Kind: OpSetWeight, Value: weight}, f, nil, 0, s.seq0.Add(1))
}

// SetPath re-routes a flow. The path is validated caller-side.
func (s *SharedNetwork) SetPath(f *Flow, path Path) {
	if !path.Valid("", "") {
		panic(fmt.Sprintf("netsim: disconnected path %v", path))
	}
	s.flowOp(Op{Kind: OpSetPath}, f, path, 0, s.seq0.Add(1))
}

// SetLinkCapacity changes a link's capacity. The link and capacity are
// validated caller-side (the topology's link set is immutable); the
// equal-capacity no-op check runs in apply, where reading Capacity is
// race-free.
func (s *SharedNetwork) SetLinkCapacity(id LinkID, capacity float64) {
	s.linkOp(id, capacity, 0, s.seq0.Add(1))
}

// Commit is a synchronization barrier. In deterministic mode it applies the
// buffered window — sorted by (driver, sequence) — as one batch and
// publishes the resulting snapshot; with no op buffered since the last
// Commit it returns at once, publishing nothing, so Snapshot and its Seq
// stay as they were. In immediate mode it republishes under the writer
// lock (every mutation already committed), moving Seq: ctlplane serves that
// numbering on /v1.
func (s *SharedNetwork) Commit() {
	if !s.cfg.Deterministic {
		s.write(nil)
		return
	}
	if s.buffered.Swap(0) == 0 {
		if s.closed.Load() {
			panic(closedMsg)
		}
		return
	}
	c := getCmd()
	c.kind = cmdCommit
	s.send(c)
	<-c.reply
	putCmd(c)
}

// Close commits any buffered window, publishes a final snapshot (none on a
// torn network), stops the owner goroutine in deterministic mode and
// returns the inner Network for serial inspection. Callers must quiesce
// writers first: a mutation issued concurrently with (or after) Close may
// panic or block forever. Close is idempotent.
func (s *SharedNetwork) Close() *Network {
	if !s.cfg.Deterministic {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed.Swap(true) && !s.torn {
			s.publish()
		}
		return s.net
	}
	if s.closed.Swap(true) {
		<-s.done
		return s.net
	}
	c := getCmd()
	c.kind = cmdClose
	s.cmds <- c
	<-c.reply
	<-s.done
	putCmd(c)
	return s.net
}

// JournalError returns the first error the journal sink reported, nil while
// the journal is healthy. It may be polled from any goroutine at any time;
// once Close has returned the answer is final. A run whose JournalError is
// non-nil has an incomplete journal; its recovery is untrustworthy.
func (s *SharedNetwork) JournalError() error {
	if p := s.journalErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Driver returns a command handle with its own deterministic op sequence.
// In deterministic mode, give each concurrent goroutine a distinct driver
// ID (≥1; 0 is the SharedNetwork's own methods): the Commit sort key is
// (driver ID, issue order within the driver), which no scheduler
// interleaving can perturb. A Driver must not be shared between goroutines.
func (s *SharedNetwork) Driver(id uint64) *Driver { return &Driver{s: s, id: id} }

// Driver issues ops on behalf of one logical writer, stamping each with the
// driver's ID and a local sequence number. See SharedNetwork.Driver.
type Driver struct {
	s   *SharedNetwork
	id  uint64
	seq uint64
}

func (d *Driver) next() uint64 { d.seq++; return d.seq }

// StartFlow is SharedNetwork.StartFlow stamped with this driver's order.
func (d *Driver) StartFlow(path Path, demand float64, tag string) *Flow {
	return d.s.startFlow(path, demand, tag, d.id, d.next())
}

// StopFlow is SharedNetwork.StopFlow stamped with this driver's order.
func (d *Driver) StopFlow(f *Flow) {
	d.s.flowOp(Op{Kind: OpStop}, f, nil, d.id, d.next())
}

// SetDemand is SharedNetwork.SetDemand stamped with this driver's order.
func (d *Driver) SetDemand(f *Flow, demand float64) {
	d.s.flowOp(Op{Kind: OpSetDemand, Value: demand}, f, nil, d.id, d.next())
}

// SetWeight is SharedNetwork.SetWeight stamped with this driver's order.
func (d *Driver) SetWeight(f *Flow, weight float64) {
	d.s.flowOp(Op{Kind: OpSetWeight, Value: weight}, f, nil, d.id, d.next())
}

// SetPath is SharedNetwork.SetPath stamped with this driver's order.
func (d *Driver) SetPath(f *Flow, path Path) {
	if !path.Valid("", "") {
		panic(fmt.Sprintf("netsim: disconnected path %v", path))
	}
	d.s.flowOp(Op{Kind: OpSetPath}, f, path, d.id, d.next())
}

// SetLinkCapacity is SharedNetwork.SetLinkCapacity stamped with this
// driver's order.
func (d *Driver) SetLinkCapacity(id LinkID, capacity float64) {
	d.s.linkOp(id, capacity, d.id, d.next())
}

// --- Command plumbing -------------------------------------------------------

func (s *SharedNetwork) send(c *sharedCmd) {
	if s.closed.Load() {
		panic(closedMsg)
	}
	s.cmds <- c
}

// enqueue ships one mutation: buffered (fire into the window, recycled by
// the owner after commit) in deterministic mode, applied here under the
// writer lock (and recycled) in immediate mode. A buffered op is counted
// after it is sent, so the Commit that sees the count is queued behind it.
func (s *SharedNetwork) enqueue(c *sharedCmd) {
	if s.cfg.Deterministic {
		s.send(c)
		s.buffered.Add(1)
		return
	}
	s.write(c)
	putCmd(c)
}

// closedMsg is the panic of every mutation and Commit after Close.
const closedMsg = "netsim: SharedNetwork used after Close"

// tornMsg is the panic of every mutation and Commit on an immediate-mode
// network whose earlier op panicked before it committed.
const tornMsg = "netsim: SharedNetwork torn: an earlier op panicked mid-apply"

// write is one immediate-mode commit under the writer lock: apply c (none
// for a bare Commit), append a journal snapshot when one is due, publish.
// torn is set for the duration, so a panic anywhere in between leaves it
// set while the deferred Unlock still frees the lock: later writers panic
// with tornMsg instead of deadlocking or running on a half-applied op.
func (s *SharedNetwork) write(c *sharedCmd) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		panic(closedMsg)
	}
	if s.torn {
		panic(tornMsg)
	}
	s.torn = true
	if c != nil {
		s.apply(c)
		s.maybeSnapshot()
	}
	s.publish()
	s.torn = false
}

func (s *SharedNetwork) startFlow(path Path, demand float64, tag string, driver, seq uint64) *Flow {
	if !path.Valid("", "") {
		panic(fmt.Sprintf("netsim: disconnected path %v", path))
	}
	f := &Flow{}
	c := getCmd()
	c.kind, c.op = cmdOp, Op{Kind: OpStart, Value: demand, Tag: tag}
	c.flow, c.path, c.driver, c.seq = f, path, driver, seq
	s.enqueue(c)
	return f
}

func (s *SharedNetwork) flowOp(op Op, f *Flow, path Path, driver, seq uint64) {
	c := getCmd()
	c.kind, c.op = cmdOp, op
	c.flow, c.path, c.driver, c.seq = f, path, driver, seq
	s.enqueue(c)
}

func (s *SharedNetwork) linkOp(id LinkID, capacity float64, driver, seq uint64) {
	l := s.net.topo.Link(id)
	if l == nil {
		panic(fmt.Sprintf("netsim: SetLinkCapacity on unknown link %d", id))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: non-positive capacity %v for link %s->%s", capacity, l.From, l.To))
	}
	c := getCmd()
	c.kind, c.op = cmdOp, Op{Kind: OpSetLinkCapacity, Link: id, Value: capacity}
	c.driver, c.seq = driver, seq
	s.enqueue(c)
}

// --- Deterministic-mode owner goroutine -------------------------------------

func (s *SharedNetwork) run() {
	defer close(s.done)
	for c := range s.cmds {
		switch c.kind {
		case cmdOp:
			s.window = append(s.window, c)
		case cmdCommit:
			s.commitWindow()
			s.maybeSnapshot()
			s.publish()
			c.reply <- struct{}{}
		case cmdClose:
			s.commitWindow()
			s.publish()
			c.reply <- struct{}{}
			return
		}
	}
}

// commitWindow applies the deterministic window, sorted by (driver, seq),
// as one batch. A no-op when the window is empty.
func (s *SharedNetwork) commitWindow() {
	if len(s.window) == 0 {
		return
	}
	slices.SortStableFunc(s.window, func(a, b *sharedCmd) int {
		if a.driver != b.driver {
			if a.driver < b.driver {
				return -1
			}
			return 1
		}
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		default:
			return 0
		}
	})
	s.net.Batch(func() {
		for _, c := range s.window {
			s.apply(c)
		}
	})
	for i, c := range s.window {
		putCmd(c)
		s.window[i] = nil
	}
	s.window = s.window[:0]
}

// apply performs one mutation on the inner network and records it. Ops on
// detached flows are no-ops and are not recorded (their handles may carry a
// stale or zero ID that would corrupt a replay). Recording happens after
// the mutation so the journal sink sees the post-apply state digest; the Op
// value (and its Links slice) is only materialized when a journal is
// attached, so unjournaled runs pay nothing for it.
func (s *SharedNetwork) apply(c *sharedCmd) {
	n := s.net
	live := true
	switch c.op.Kind {
	case OpStart:
		n.startFlowAs(c.flow, c.path, c.op.Value, c.op.Tag)
	case OpStop:
		live = n.attached(c.flow)
		n.StopFlow(c.flow)
	case OpSetDemand:
		live = n.attached(c.flow)
		n.SetDemand(c.flow, c.op.Value)
	case OpSetWeight:
		live = n.attached(c.flow)
		n.SetWeight(c.flow, c.op.Value)
	case OpSetPath:
		live = n.attached(c.flow)
		n.SetPath(c.flow, c.path)
	case OpSetLinkCapacity:
		n.SetLinkCapacity(c.op.Link, c.op.Value)
	}
	if !live || s.cfg.Journal == nil {
		return
	}
	var op Op
	switch c.op.Kind {
	case OpStart:
		op = Op{Kind: OpStart, Flow: c.flow.ID, Links: linkIDs(c.path), Value: c.op.Value, Tag: c.op.Tag}
	case OpStop:
		op = Op{Kind: OpStop, Flow: c.flow.ID}
	case OpSetDemand:
		op = Op{Kind: OpSetDemand, Flow: c.flow.ID, Value: c.op.Value}
	case OpSetWeight:
		op = Op{Kind: OpSetWeight, Flow: c.flow.ID, Value: c.op.Value}
	case OpSetPath:
		op = Op{Kind: OpSetPath, Flow: c.flow.ID, Links: linkIDs(c.path)}
	case OpSetLinkCapacity:
		op = Op{Kind: OpSetLinkCapacity, Link: c.op.Link, Value: c.op.Value}
	}
	s.noteJournalErr(s.cfg.Journal.AppendOp(op, s.net.StateDigest()))
	s.opsSinceSnap++
}

// maybeSnapshot appends a journal snapshot once SnapshotEvery ops have been
// journaled since the last one. Called only at commit boundaries (after an
// immediate-mode apply or a deterministic-mode commitWindow), never inside
// an open batch window.
func (s *SharedNetwork) maybeSnapshot() {
	j := s.cfg.Journal
	if j == nil || s.cfg.SnapshotEvery <= 0 || s.opsSinceSnap < s.cfg.SnapshotEvery {
		return
	}
	s.opsSinceSnap = 0
	s.snapLinks = s.net.exportState(&s.snapState, s.snapLinks)
	s.noteJournalErr(j.AppendSnapshot(s.snapState, s.net.StateDigest()))
}

func (s *SharedNetwork) noteJournalErr(err error) {
	if err != nil && s.journalErr.Load() == nil {
		// Store a copy: taking the parameter's address would heap-allocate
		// it on every call, including the healthy ones.
		first := err
		s.journalErr.Store(&first)
	}
}

func (s *SharedNetwork) publish() {
	s.pubSeq++
	s.snap.Store(s.net.snapshotDelta(s.pubSeq, s.snap.Load()))
}

func linkIDs(p Path) []LinkID {
	ids := make([]LinkID, len(p))
	for i, l := range p {
		ids[i] = l.ID
	}
	return ids
}
