package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/netsim"
	"eona/internal/projection"
)

// E17 — projection resume: recovery cost vs history length.
//
// internal/projection claims a restarted node rebuilds its read models from
// (checkpoint state, committed offset) by folding only the record tail —
// O(checkpoint delta), not O(history). E17 quantifies that claim: one seeded
// mixed workload (netsim op churn + session ingests + looking-glass polls +
// fault events, all journaled through a projection.Engine with snapshot and
// checkpoint cadence E17Every) is recorded at several history lengths, then
// recovered three ways:
//
//   - replay-all: serial op replay from the topology record plus a
//     from-scratch fold of the entire stream — ignores snapshots and
//     checkpoints both; the naive O(history) baseline.
//   - net-snapshot: snapshot-accelerated network recovery, but read models
//     still folded from scratch — what PR7's journal alone could do.
//   - projection-resume: snapshot-accelerated network recovery plus
//     checkpoint resume of every folder — the full O(tail) path.
//
// Every arm is digest-verified: the rebuilt network must match the live
// pre-crash digest and every folder's state fingerprint must match its live
// counterpart. The journal scan (Recover: segment read + decode, O(history)
// for every arm by construction) is timed separately from the rebuild so the
// arms compare what actually differs.
//
// Expected shape: replay-all and net-snapshot rebuild costs grow with
// history (both refold the whole stream); projection-resume stays flat —
// its folded tail is bounded by the checkpoint cadence, not the log length.

// E17RecordCounts is the swept journal length (records of all kinds).
var E17RecordCounts = []int{400, 1600, 6400}

// E17Every is the snapshot and checkpoint cadence of the journaled runs.
const E17Every = 256

// E17Arm names one recovery strategy.
type E17Arm string

const (
	E17ReplayAll   E17Arm = "replay-all"
	E17NetSnapshot E17Arm = "net-snapshot"
	E17ProjResume  E17Arm = "projection-resume"
)

// E17Point is one (history length, recovery strategy) measurement.
type E17Point struct {
	Records int // requested history length
	Stream  int // actual recovered record-stream length
	Ops     int // netsim ops in the history
	Arm     E17Arm
	// ScanMS is the Recover wall time (segment read + decode), identical
	// work for every arm.
	ScanMS float64
	// RebuildMS is the arm's rebuild wall time: network replay/import plus
	// read-model fold/resume.
	RebuildMS float64
	// TailOps counts ops replayed to rebuild the network.
	TailOps int
	// TailRecords counts stream records folded to rebuild the read models
	// (the maximum over folders; replay-all folds the whole stream).
	TailRecords int
	// Verified reports network digest and every folder fingerprint matched
	// the live pre-crash state.
	Verified bool
}

// E17Result is the full sweep.
type E17Result struct {
	Seed   int64
	Points []E17Point
}

// RunE17 executes the sweep.
func RunE17(seed int64) E17Result {
	r := E17Result{Seed: seed}
	for _, records := range E17RecordCounts {
		r.Points = append(r.Points, runE17History(seed, records)...)
	}
	return r
}

// e17Folders builds the standard read-model set.
func e17Folders() (*projection.QoE, *projection.Hints, *projection.Engagement, *projection.LinkUtil) {
	cfg := core.CollectorConfig{AppP: "appp-e17", Window: 5 * time.Minute, Seed: 99}
	return projection.NewQoE(cfg), projection.NewHints(), projection.NewEngagement(), projection.NewLinkUtil()
}

// runE17History journals one seeded history of the requested length and
// measures all three recovery arms against it.
func runE17History(seed int64, records int) []E17Point {
	dir, err := os.MkdirTemp("", "eona-e17-*")
	if err != nil {
		panic(fmt.Sprintf("expt: E17 temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	w, err := journal.Open(journal.Config{Dir: dir, SegmentBytes: 256 << 10, Sync: journal.SyncNever})
	if err != nil {
		panic(fmt.Sprintf("expt: E17 journal: %v", err))
	}
	qoe, hints, eng, lutil := e17Folders()
	e, err := projection.NewEngine(projection.Config{Writer: w, CheckpointEvery: E17Every},
		qoe, hints, eng, lutil)
	if err != nil {
		panic(fmt.Sprintf("expt: E17 engine: %v", err))
	}

	topo, paths := e16Topo()
	if err := e.AppendTopology(netsim.ExportTopology(topo)); err != nil {
		panic(fmt.Sprintf("expt: E17 topology record: %v", err))
	}
	s := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{
		Deterministic: true, Journal: e, SnapshotEvery: E17Every,
	})
	churn := s.Driver(1)
	rng := rand.New(rand.NewSource(seed + int64(records)))
	isps := []string{"isp-a", "isp-b", "isp-c"}
	cdns := []string{"cdnX", "cdnY"}
	var handles []*netsim.Flow
	round := 0
	for int(w.Records()) < records {
		// One round: a burst of ops, a commit fence, then the A2I/I2A side.
		for k := 0; k < 16; k++ {
			switch p := rng.Intn(5); {
			case p == 0 || len(handles) == 0:
				handles = append(handles, churn.StartFlow(paths[rng.Intn(len(paths))], float64(1+rng.Intn(40))*1e6, "e17"))
			case p == 1 && len(handles) > 8:
				i := rng.Intn(len(handles))
				churn.StopFlow(handles[i])
				handles = append(handles[:i], handles[i+1:]...)
			default:
				churn.SetDemand(handles[rng.Intn(len(handles))], float64(1+rng.Intn(80))*1e6)
			}
		}
		s.Commit()
		for k := 0; k < 8; k++ {
			rec := core.QoERecord{
				SessionID: fmt.Sprintf("s%d-%d", round, k),
				Timestamp: time.Duration(round) * time.Second,
				AppP:      "appp-e17",
				ClientISP: isps[rng.Intn(len(isps))],
				CDN:       cdns[rng.Intn(len(cdns))],
				Cluster:   "c1",
				Score:     40 + 60*rng.Float64(),
				PlayTime:  time.Duration(60+rng.Intn(600)) * time.Second,
				Abandoned: rng.Intn(10) == 0,
			}
			if err := e.AppendIngest(rec); err != nil {
				panic(fmt.Sprintf("expt: E17 ingest: %v", err))
			}
		}
		if err := e.AppendPoll(journal.PollRecord{
			Source: "peer-" + isps[round%len(isps)],
			At:     time.Unix(0, int64(round)*1e9).UTC(),
			// Non-nil payload: a nil RawMessage marshals as JSON null and
			// recovers as the literal bytes "null", which would make the
			// live and recovered hint states differ.
			Data: json.RawMessage(`{}`),
		}); err != nil {
			panic(fmt.Sprintf("expt: E17 poll: %v", err))
		}
		if round%16 == 7 {
			if err := e.AppendFault(faults.Event{At: time.Duration(round) * time.Second}); err != nil {
				panic(fmt.Sprintf("expt: E17 fault: %v", err))
			}
		}
		round++
	}
	live := s.Close()
	if err := s.JournalError(); err != nil {
		panic(fmt.Sprintf("expt: E17 journal error: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("expt: E17 close: %v", err))
	}
	liveNetDigest := live.StateDigest()
	liveFolderDigests := map[string]uint64{
		qoe.Name():   projection.StateDigest(qoe),
		hints.Name(): projection.StateDigest(hints),
		eng.Name():   projection.StateDigest(eng),
		lutil.Name(): projection.StateDigest(lutil),
	}

	var points []E17Point
	for _, arm := range []E17Arm{E17ReplayAll, E17NetSnapshot, E17ProjResume} {
		points = append(points, runE17Arm(dir, records, arm, liveNetDigest, liveFolderDigests))
	}
	return points
}

// runE17Arm recovers the journaled history one way and verifies it.
func runE17Arm(dir string, records int, arm E17Arm, liveNetDigest uint64, liveFolderDigests map[string]uint64) E17Point {
	p := E17Point{Records: records, Arm: arm}

	t0 := time.Now()
	rec, err := journal.Recover(dir)
	if err != nil {
		panic(fmt.Sprintf("expt: E17 recover: %v", err))
	}
	p.ScanMS = float64(time.Since(t0)) / float64(time.Millisecond)
	p.Stream = len(rec.Stream)
	p.Ops = len(rec.Ops)

	qoe, hints, eng, lutil := e17Folders()
	folders := []projection.Folder{qoe, hints, eng, lutil}

	var net *netsim.Network
	t1 := time.Now()
	switch arm {
	case E17ReplayAll:
		net, err = rec.ReplayPrefix(len(rec.Ops))
		if err != nil {
			panic(fmt.Sprintf("expt: E17 replay-all: %v", err))
		}
		p.TailOps = len(rec.Ops)
		for _, f := range folders {
			if err := projection.Fold(rec, f, len(rec.Stream)); err != nil {
				panic(fmt.Sprintf("expt: E17 replay-all fold: %v", err))
			}
		}
		p.TailRecords = len(rec.Stream)
	case E17NetSnapshot:
		var tail int
		net, tail, err = rec.RecoverNetwork()
		if err != nil {
			panic(fmt.Sprintf("expt: E17 net-snapshot: %v", err))
		}
		p.TailOps = tail
		for _, f := range folders {
			if err := projection.Fold(rec, f, len(rec.Stream)); err != nil {
				panic(fmt.Sprintf("expt: E17 net-snapshot fold: %v", err))
			}
		}
		p.TailRecords = len(rec.Stream)
	case E17ProjResume:
		var tail int
		net, tail, err = rec.RecoverNetwork()
		if err != nil {
			panic(fmt.Sprintf("expt: E17 projection-resume: %v", err))
		}
		p.TailOps = tail
		engine, err := projection.NewEngine(projection.Config{}, folders...)
		if err != nil {
			panic(fmt.Sprintf("expt: E17 resume engine: %v", err))
		}
		stats, err := engine.Resume(rec)
		if err != nil {
			panic(fmt.Sprintf("expt: E17 resume: %v", err))
		}
		for _, tf := range stats.TailFolded {
			if tf > p.TailRecords {
				p.TailRecords = tf
			}
		}
	}
	p.RebuildMS = float64(time.Since(t1)) / float64(time.Millisecond)

	p.Verified = net.StateDigest() == liveNetDigest
	for _, f := range folders {
		if projection.StateDigest(f) != liveFolderDigests[f.Name()] {
			p.Verified = false
		}
	}
	return p
}

// Table renders the sweep.
func (r E17Result) Table() *Table {
	t := &Table{
		Title: "E17: projection resume — recovery cost vs history length (projection)",
		Columns: []string{
			"records", "ops", "arm", "scan ms", "rebuild ms", "tail ops", "tail records", "verified",
		},
	}
	for _, p := range r.Points {
		ok := "yes"
		if !p.Verified {
			ok = "NO"
		}
		t.AddRow(strconv.Itoa(p.Stream), strconv.Itoa(p.Ops), string(p.Arm),
			Cell(p.ScanMS), Cell(p.RebuildMS),
			strconv.Itoa(p.TailOps), strconv.Itoa(p.TailRecords), ok)
	}
	t.Notes = append(t.Notes,
		"scan = journal.Recover (segment read + decode), identical work for every arm; rebuild = network replay/import + read-model fold/resume",
		"replay-all refolds the whole stream and replays every op; net-snapshot bounds the op tail only; projection-resume bounds both via folder checkpoints",
		fmt.Sprintf("snapshot and checkpoint cadence %d records; every arm digest-verified against the live pre-crash network and folder fingerprints", E17Every))
	return t
}
