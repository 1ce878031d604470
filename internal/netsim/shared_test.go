package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sharedFixtures mirrors the registry differential's fixture set: every
// topology shape the allocator is pinned on, as (fresh network, candidate
// paths) builders.
func sharedFixtures() map[string]func() (*Network, []Path) {
	return map[string]func() (*Network, []Path){
		"line": func() (*Network, []Path) {
			topo, p := line(100, 80, 120)
			return NewNetwork(topo), []Path{p, {p[0]}, {p[1], p[2]}}
		},
		"rails": func() (*Network, []Path) {
			topo, links := rails(4, 3, 90)
			n := NewNetwork(topo)
			var ps []Path
			for i := range links {
				ps = append(ps,
					Path(links[i]),
					Path{links[i][0]},
					Path{links[i][1], links[i][2]})
			}
			return n, ps
		},
		"e1": func() (*Network, []Path) {
			n, p1, p2 := e1SetupTopology()
			return n, []Path{p1, p2}
		},
		"skewed": func() (*Network, []Path) {
			topo := NewTopology()
			hub := topo.AddLink("hubA", "hubB", 1000, time.Millisecond, "")
			ps := []Path{{hub}}
			for i := 0; i < 4; i++ {
				from := NodeID(rune('a' + i))
				to := NodeID(rune('A' + i))
				ps = append(ps, Path{topo.AddLink(from, to, 90, time.Millisecond, "")})
			}
			return NewNetwork(topo), ps
		},
	}
}

// requireIdenticalNetworks asserts two networks agree bit for bit: same
// flows (ID, rate, demand, weight, tag), same link rates, same capacities.
func requireIdenticalNetworks(t *testing.T, label string, a, b *Network) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.NumFlows() != sb.NumFlows() {
		t.Fatalf("%s: %d flows vs %d", label, sa.NumFlows(), sb.NumFlows())
	}
	for id := 0; id < a.Topology().NumLinks(); id++ {
		l := LinkID(id)
		if sa.LinkRate(l) != sb.LinkRate(l) {
			t.Fatalf("%s: link %d rate %v != %v", label, id, sa.LinkRate(l), sb.LinkRate(l))
		}
		if sa.Headroom(l) != sb.Headroom(l) {
			t.Fatalf("%s: link %d headroom %v != %v (capacity drift)", label, id, sa.Headroom(l), sb.Headroom(l))
		}
	}
	sa.Flows(func(v FlowView) {
		w, ok := sb.Flow(v.ID)
		if !ok {
			t.Fatalf("%s: flow %d missing from mirror", label, v.ID)
		}
		if v != w {
			t.Fatalf("%s: flow %d state %+v != %+v", label, v.ID, v, w)
		}
	})
}

// driveSharedDeterministic runs the canonical concurrent workload: drivers
// goroutines issue seeded random op streams against a deterministic-mode
// SharedNetwork, synchronizing on Commit barriers between rounds. It
// returns the op log and the final (closed) network.
func driveSharedDeterministic(t *testing.T, build func() (*Network, []Path), seed int64, drivers, rounds, opsPerRound int) ([]Op, *Network) {
	t.Helper()
	net, paths := build()
	// The sink asserts the digest handed to a journal equals the oracle
	// after every op, mid-window included.
	sink := &oracleSink{t: t, net: net}
	s := NewShared(net, SharedConfig{Deterministic: true, Journal: sink})
	drv := make([]*Driver, drivers)
	handles := make([][]*Flow, drivers)
	for d := range drv {
		drv[d] = s.Driver(uint64(d + 1))
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1_000_000 + int64(d)*1_000 + int64(r)))
				h := handles[d]
				for k := 0; k < opsPerRound; k++ {
					op := rng.Intn(6)
					if len(h) == 0 {
						op = 0
					}
					pi := rng.Intn(len(paths))
					val := float64(1 + rng.Intn(300))
					if rng.Intn(6) == 0 {
						val = math.Inf(1)
					}
					switch op {
					case 0:
						h = append(h, drv[d].StartFlow(paths[pi], val, "shared"))
					case 1:
						drv[d].StopFlow(h[rng.Intn(len(h))])
					case 2:
						drv[d].SetDemand(h[rng.Intn(len(h))], val)
					case 3:
						drv[d].SetWeight(h[rng.Intn(len(h))], float64(1+rng.Intn(4)))
					case 4:
						drv[d].SetPath(h[rng.Intn(len(h))], paths[pi])
					case 5:
						p := paths[pi]
						drv[d].SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
					}
				}
				handles[d] = h
			}(d)
		}
		wg.Wait()
		s.Commit()
	}
	final := s.Close()
	return sink.Ops, final
}

// TestSharedDifferentialOnFixtures is the tentpole pin: on every topology
// fixture, a deterministic-mode SharedNetwork driven by 4 concurrent
// goroutines with Commit barriers (a) reproduces the identical op log and
// final state when run twice — scheduling cannot perturb it — and (b)
// matches a serial Network replaying the committed op sequence bit for
// bit, flows and links alike.
func TestSharedDifferentialOnFixtures(t *testing.T) {
	for name, build := range sharedFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				ops1, net1 := driveSharedDeterministic(t, build, seed, 4, 6, 12)
				ops2, net2 := driveSharedDeterministic(t, build, seed, 4, 6, 12)
				if !reflect.DeepEqual(ops1, ops2) {
					t.Fatalf("seed %d: two runs produced different op logs (%d vs %d ops)", seed, len(ops1), len(ops2))
				}
				requireIdenticalNetworks(t, "run1 vs run2", net1, net2)

				mirror, _ := build()
				r := NewReplayer(mirror)
				for i, op := range ops1 {
					if err := r.Apply(op); err != nil {
						t.Fatalf("seed %d: replay: %v", seed, err)
					}
					requireOracle(t, mirror, fmt.Sprintf("seed %d: replayed op %d", seed, i))
				}
				requireOracle(t, net1, fmt.Sprintf("seed %d: shared final", seed))
				requireIdenticalNetworks(t, "shared vs serial replay", net1, mirror)
				if a, b := net1.StateDigest(), mirror.StateDigest(); a != b {
					t.Fatalf("seed %d: shared digest %016x != serial replay %016x", seed, a, b)
				}
			}
		})
	}
}

// TestSharedImmediateHammer exercises immediate mode under -race: writer
// goroutines doing lifecycle churn, reader goroutines spinning on
// snapshots, and a capacity churner — all concurrent. A journal snapshot
// every 8 ops runs the export's shared scratch on whichever writer holds
// the lock. Afterwards the op log replayed serially must reproduce the
// final state exactly (immediate mode logs ops in application order).
func TestSharedImmediateHammer(t *testing.T) {
	build := sharedFixtures()["rails"]
	net, paths := build()
	log := &OpLog{}
	s := NewShared(net, SharedConfig{Journal: log, SnapshotEvery: 8})
	nl := net.Topology().NumLinks()

	const writers = 4
	const opsPerWriter = 150
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: pure snapshot consumers, stopped once writers finish.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				id := LinkID(i % nl)
				_ = sn.Utilization(id)
				_ = sn.Congestion(id)
				_ = sn.QueueDelay(id)
				for _, l := range paths[i%len(paths)] {
					_ = sn.QueueDelay(l.ID)
				}
				_ = sn.Stats()
				_ = s.NumFlows()
				i++
			}
		}(g)
	}

	var writerWG sync.WaitGroup
	for d := 0; d < writers; d++ {
		writerWG.Add(1)
		go func(d int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(d)))
			var h []*Flow
			for k := 0; k < opsPerWriter; k++ {
				op := rng.Intn(6)
				if len(h) == 0 {
					op = 0
				}
				pi := rng.Intn(len(paths))
				switch op {
				case 0:
					h = append(h, s.StartFlow(paths[pi], float64(1+rng.Intn(300)), "hammer"))
				case 1:
					s.StopFlow(h[rng.Intn(len(h))])
				case 2:
					s.SetDemand(h[rng.Intn(len(h))], float64(1+rng.Intn(300)))
				case 3:
					s.SetWeight(h[rng.Intn(len(h))], float64(1+rng.Intn(4)))
				case 4:
					s.SetPath(h[rng.Intn(len(h))], paths[pi])
				case 5:
					p := paths[pi]
					s.SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
				}
			}
		}(d)
	}
	writerWG.Wait()
	close(stop)
	wg.Wait()

	final := s.Close()
	ops := log.Ops
	// No-ops on already-stopped handles are not logged, so the log is at
	// most one op per issued mutation.
	if len(ops) == 0 || len(ops) > writers*opsPerWriter {
		t.Fatalf("logged %d ops, want 1..%d", len(ops), writers*opsPerWriter)
	}
	mirror, _ := build()
	if err := Replay(mirror, ops); err != nil {
		t.Fatalf("replay: %v", err)
	}
	requireIdenticalNetworks(t, "hammer vs serial replay", final, mirror)
}

func TestSharedImmediateBasics(t *testing.T) {
	topo, p := line(100)
	log := &OpLog{}
	s := NewShared(NewNetwork(topo), SharedConfig{Journal: log})
	f1 := s.StartFlow(p, math.Inf(1), "a")
	f2 := s.StartFlow(p, math.Inf(1), "b")
	// Single-writer immediate mode keeps serial semantics: the commit
	// happened before StartFlow returned, so handle fields are current.
	if f1.Rate != 50 || f2.Rate != 50 {
		t.Fatalf("rates = %v, %v, want 50, 50", f1.Rate, f2.Rate)
	}
	sn := s.Snapshot()
	if got := sn.LinkRate(p[0].ID); got != 100 {
		t.Errorf("snapshot link rate = %v, want 100", got)
	}
	if v, ok := sn.Flow(f1.ID); !ok || v.Rate != 50 || v.Tag != "a" {
		t.Errorf("snapshot flow view = %+v, %v", v, ok)
	}
	if got := sn.Utilization(p[0].ID); got != 1 {
		t.Errorf("snapshot utilization = %v, want 1", got)
	}
	s.SetDemand(f1, 20)
	if f1.Rate != 20 || f2.Rate != 80 {
		t.Errorf("after SetDemand rates = %v, %v, want 20, 80", f1.Rate, f2.Rate)
	}
	if s.Snapshot().Seq == sn.Seq {
		t.Error("commit did not publish a new snapshot")
	}
	s.StopFlow(f2)
	s.StopFlow(f2) // no-op, must not log
	net := s.Close()
	// 2 starts + 1 set-demand + 1 stop; the second stop is a detached
	// no-op and must not be logged.
	if len(log.Ops) != 4 {
		t.Fatalf("log = %d ops, want 4", len(log.Ops))
	}
	if net.NumFlows() != 1 {
		t.Errorf("final flows = %d, want 1", net.NumFlows())
	}
}

// settledGoroutines reads runtime.NumGoroutine once it has held still for
// a few milliseconds, so goroutines that other tests left exiting do not
// count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n && i >= 5 {
			break
		}
		n = m
	}
	return n
}

// TestSharedImmediateStartsNoGoroutine pins immediate mode's write path on
// the caller: NewShared, 100 ops and a Close start no goroutine, while the
// network is open or after.
func TestSharedImmediateStartsNoGoroutine(t *testing.T) {
	topo, p := line(100)
	before := settledGoroutines()
	s := NewShared(NewNetwork(topo), SharedConfig{Journal: &OpLog{}, SnapshotEvery: 8})
	f := s.StartFlow(p, 1, "")
	for i := 0; i < 99; i++ {
		s.SetDemand(f, float64(2+i))
	}
	if open := settledGoroutines(); open != before {
		t.Errorf("goroutines %d before NewShared, %d after 100 ops", before, open)
	}
	s.Close()
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines %d before NewShared, %d after Close", before, after)
	}
}

// panicSink is an OpSink whose AppendOp panics on call number at.
type panicSink struct{ at, calls int }

func (p *panicSink) AppendOp(Op, uint64) error {
	if p.calls++; p.calls == p.at {
		panic("sink exploded")
	}
	return nil
}
func (p *panicSink) AppendSnapshot(NetState, uint64) error { return nil }

// TestSharedSinkPanicTearsNetwork pins the panic contract of the writer
// lock: the op whose sink panics (the 5th) propagates the sink's panic to
// its caller and leaves the lock free, so every later mutation and Commit —
// here from another goroutine, as a recovered HTTP handler's successor
// would be — panics with tornMsg instead of deadlocking or running on the
// half-applied op. Snapshot keeps the last published snapshot, and Close
// still returns the inner Network without publishing.
func TestSharedSinkPanicTearsNetwork(t *testing.T) {
	topo, p := line(100)
	inner := NewNetwork(topo)
	s := NewShared(inner, SharedConfig{Journal: &panicSink{at: 5}})
	f := s.StartFlow(p, 10, "")
	for i := 0; i < 3; i++ {
		s.SetDemand(f, float64(20+i))
	}
	last := s.Snapshot()

	panicOf := func(op func()) (v any) {
		defer func() { v = recover() }()
		op()
		return nil
	}
	if v := panicOf(func() { s.SetDemand(f, 50) }); v != "sink exploded" {
		t.Fatalf("5th op panicked with %v, want the sink's panic", v)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tc := range []struct {
			name string
			op   func()
		}{
			{"StartFlow", func() { s.StartFlow(p, 1, "") }},
			{"StopFlow", func() { s.StopFlow(f) }},
			{"SetDemand", func() { s.SetDemand(f, 60) }},
			{"SetWeight", func() { s.SetWeight(f, 2) }},
			{"SetPath", func() { s.SetPath(f, p) }},
			{"SetLinkCapacity", func() { s.SetLinkCapacity(p[0].ID, 70) }},
			{"Driver.SetDemand", func() { s.Driver(1).SetDemand(f, 80) }},
			{"Commit", s.Commit},
		} {
			if v := panicOf(tc.op); v != tornMsg {
				t.Errorf("%s on a torn network: panic %v, want %q", tc.name, v, tornMsg)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writers still blocked after 10 s: the panicking op left the writer lock held")
	}

	if got := s.Snapshot(); got != last {
		t.Errorf("Snapshot moved on a torn network: Seq %d -> %d", last.Seq, got.Seq)
	}
	if got := s.Close(); got != inner {
		t.Errorf("Close returned %p, want the inner network %p", got, inner)
	}
	if got := s.Snapshot(); got != last {
		t.Errorf("Close published on a torn network: Seq %d -> %d", last.Seq, got.Seq)
	}
	if got := s.Close(); got != inner {
		t.Errorf("second Close returned %p, want %p", got, inner)
	}
}

func TestSharedDeterministicPlaceholders(t *testing.T) {
	topo, p := line(100)
	s := NewShared(NewNetwork(topo), SharedConfig{Deterministic: true})
	f := s.StartFlow(p, math.Inf(1), "")
	if got := s.NumFlows(); got != 0 {
		t.Errorf("flow visible before Commit: NumFlows = %d", got)
	}
	s.SetDemand(f, 30) // targets the placeholder, applied after its start
	s.Commit()
	if got := s.NumFlows(); got != 1 {
		t.Fatalf("NumFlows after Commit = %d, want 1", got)
	}
	if v, ok := s.Snapshot().Flow(f.ID); !ok || v.Rate != 30 {
		t.Errorf("flow view = %+v, %v; want rate 30", v, ok)
	}
	s.Close()
}

// TestDeterministicEmptyCommitPublishesNothing pins the idle barrier: a
// deterministic Commit with no op buffered since the last one returns at
// once, leaving the published Snapshot (pointer and Seq) as it was and
// allocating nothing, while one buffered op — from a Driver or from the
// SharedNetwork's own driver-0 methods — makes the next Commit publish
// exactly once. Close still commits a pending window.
func TestDeterministicEmptyCommitPublishesNothing(t *testing.T) {
	topo, p := line(100)
	s := NewShared(NewNetwork(topo), SharedConfig{Deterministic: true})
	d := s.Driver(1)
	f := d.StartFlow(p, 40, "")
	s.Commit()

	idle := s.Snapshot()
	if a := testing.AllocsPerRun(100, s.Commit); a != 0 {
		t.Errorf("empty Commit: %v allocs, want 0", a)
	}
	if got := s.Snapshot(); got != idle || got.Seq != idle.Seq {
		t.Fatalf("empty Commits published: Seq %d -> %d", idle.Seq, got.Seq)
	}

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"driver", func() { d.SetDemand(f, 20) }},
		{"driver-0", func() { s.SetDemand(f, 30) }},
	} {
		before := s.Snapshot()
		tc.op()
		s.Commit()
		after := s.Snapshot()
		if after.Seq != before.Seq+1 {
			t.Errorf("%s op: Commit moved Seq %d -> %d, want one publish", tc.name, before.Seq, after.Seq)
		}
		s.Commit()
		if s.Snapshot() != after {
			t.Errorf("%s op: the Commit after it published again", tc.name)
		}
	}

	d.SetDemand(f, 10)
	net := s.Close()
	if r := net.LinkRate(p[0].ID); r != 10 {
		t.Errorf("Close left the pending window uncommitted: link rate %v, want 10", r)
	}
}

func TestSharedUseAfterClosePanics(t *testing.T) {
	topo, p := line(100)
	s := NewShared(NewNetwork(topo), SharedConfig{})
	s.Close()
	s.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("mutation after Close did not panic")
		}
	}()
	s.StartFlow(p, 1, "")
}

// failAfterSink is an OpSink that accepts the first ok ops and fails every
// append after them with a distinct error.
type failAfterSink struct {
	ok, calls int
}

func (f *failAfterSink) fail() error {
	f.calls++
	if f.calls <= f.ok {
		return nil
	}
	return fmt.Errorf("sink full at append %d", f.calls)
}

func (f *failAfterSink) AppendOp(Op, uint64) error             { return f.fail() }
func (f *failAfterSink) AppendSnapshot(NetState, uint64) error { return f.fail() }

// TestSharedJournalErrorPollable pins JournalError as callable while the
// owner goroutine runs (it used to panic before Close): nil while the sink
// is healthy, the first sink error from the moment it happens, unchanged by
// later errors and by Close. The poller spins concurrently with the
// mutations, so under -race this also pins the read as synchronised.
func TestSharedJournalErrorPollable(t *testing.T) {
	topo, p := line(100)
	const healthy = 20
	s := NewShared(NewNetwork(topo), SharedConfig{Journal: &failAfterSink{ok: healthy}, SnapshotEvery: 8})
	if err := s.JournalError(); err != nil {
		t.Fatalf("JournalError before any op = %v", err)
	}

	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var first error
		for {
			if err := s.JournalError(); err != nil {
				if first == nil {
					first = err
				} else if err != first {
					t.Errorf("JournalError changed from %v to %v", first, err)
				}
			}
			select {
			case <-stop:
				polled <- first
				return
			default:
			}
		}
	}()

	f := s.StartFlow(p, 1e6, "")
	for i := 0; i < 200; i++ {
		s.SetDemand(f, float64(2+i)*1e6)
		if i < healthy/2 {
			if err := s.JournalError(); err != nil {
				t.Fatalf("JournalError = %v with the sink still healthy", err)
			}
		}
	}
	s.Commit()
	live := s.JournalError()
	if live == nil {
		t.Fatal("JournalError still nil while running, after the sink failed")
	}
	if want := fmt.Sprintf("sink full at append %d", healthy+1); live.Error() != want {
		t.Errorf("JournalError = %q, want the first failure %q", live, want)
	}
	close(stop)
	if first := <-polled; first != nil && first != live {
		t.Errorf("poller saw %v, owner reports %v", first, live)
	}
	s.Close()
	if after := s.JournalError(); after != live {
		t.Errorf("JournalError after Close = %v, want %v", after, live)
	}
}

// TestSharedJournalAddsNoMutationAllocs pins the journal hook at zero
// allocations per mutation while the sink is healthy: the digest, the
// AppendOp call and the error bookkeeping must add nothing to what an
// unjournaled mutation (command, apply, snapshot publish) already costs —
// at a flow count where a digest that walked the flows would need scratch.
func TestSharedJournalAddsNoMutationAllocs(t *testing.T) {
	measure := func(sink OpSink) float64 {
		n, _, live := churnLike(1000)
		s := NewShared(n, SharedConfig{Journal: sink})
		defer s.Close()
		f := live[0]
		i := 0
		return testing.AllocsPerRun(500, func() {
			i++
			s.SetDemand(f, float64(1+i%7)*1e6)
		})
	}
	if base, with := measure(nil), measure(&failAfterSink{ok: 1 << 30}); with > base {
		t.Errorf("journaled SetDemand allocates %v allocs/op, unjournaled %v: the journal hook must add 0", with, base)
	}
}

// BenchmarkSharedReadScaling measures snapshot reads under RunParallel —
// the acceptance pin that the read path is one atomic load plus array
// indexing, with no mutex to serialize behind: the under-writes arm keeps
// a writer goroutine committing demand churn (and thus publishing
// snapshots) for the whole measurement.
func BenchmarkSharedReadScaling(b *testing.B) {
	setup := func() (*SharedNetwork, []Path, int) {
		topo, links := rails(16, 3, 1e8)
		n := NewNetwork(topo)
		var paths []Path
		n.Batch(func() {
			for i := range links {
				p := Path(links[i])
				paths = append(paths, p)
				for k := 0; k < 8; k++ {
					n.StartFlow(p, 1e6*float64(1+k), "bench")
				}
			}
		})
		return NewShared(n, SharedConfig{}), paths, topo.NumLinks()
	}
	readLoop := func(b *testing.B, s *SharedNetwork, paths []Path, nl int) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sn := s.Snapshot()
				id := LinkID(i % nl)
				_ = sn.Utilization(id)
				_ = sn.Congestion(id)
				_ = sn.Headroom(id)
				p := paths[i%len(paths)]
				rtt := 2 * p.PropDelay()
				for _, l := range p {
					rtt += sn.QueueDelay(l.ID)
				}
				_ = rtt
				i++
			}
		})
	}
	b.Run("idle", func(b *testing.B) {
		s, paths, nl := setup()
		defer s.Close()
		b.ResetTimer()
		readLoop(b, s, paths, nl)
	})
	b.Run("under-writes", func(b *testing.B) {
		s, paths, nl := setup()
		f := s.StartFlow(paths[0], 1e6, "churn")
		stop := make(chan struct{})
		done := make(chan struct{})
		// One writer churning a flow's demand as fast as the owner accepts.
		go func() {
			defer close(done)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.SetDemand(f, 1e6*float64(1+i%16))
				i++
			}
		}()
		b.ResetTimer()
		readLoop(b, s, paths, nl)
		b.StopTimer()
		close(stop)
		<-done
		s.Close()
	})
}
