package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// The order oracle: script bytes decode into a program of schedules,
// tickers and tick-end hooks, nested inside each other's callbacks, cut
// into phases by Run(h) or RunUntilIdle. The program runs on an Engine, on
// a one-partition ParallelEngine and on sortModel, a plain slice of (at,
// insertion counter) entries read by linear-scan min. All three must agree
// on the fire trace, Processed, the final clock and the sequence numbers
// consumed; the parallel run must also drain exactly the model's instants.

// Script vocabulary. Delays and periods come from small sets so that ties
// on one instant are common. Periods take a dozen distinct values, so a
// long script runs tickers on many lanes at once.
var (
	oracleDelays   = []time.Duration{0, 1, 1, 2, 3, 5}
	oraclePeriods  = []time.Duration{1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	oracleHorizons = []time.Duration{0, 1, 2, 4, 7}
)

type actKind int

const (
	actSchedule actKind = iota // Schedule(delay) a callback
	actEvery                   // Every(period) a ticker
	actTickEnd                 // OnTickEnd a callback
)

// How a ticker ends. Every ticker ends, so RunUntilIdle terminates.
const (
	endReturnFalse = iota // fn returns false on tick n
	endStopInside         // fn calls stop on tick n and returns true
	endStopNow            // stop is called right after Every returns
	endStopLater          // a scheduled event calls stop; fn returns false on tick n as a cap
	endModes
)

// act is one step of a decoded script. kids run each time the act's
// callback fires (every tick, for a ticker).
type act struct {
	id     int
	kind   actKind
	delay  time.Duration // Schedule delay, ticker period, or the endStopLater delay
	end, n int           // ticker: how it ends, and on which tick
	kids   []*act
}

// phase is the acts issued from outside any callback, then one run.
type phase struct {
	acts    []*act
	horizon time.Duration // Run(Now()+horizon); < 0 is RunUntilIdle
}

// firing is one trace entry: which act fired, and when. A ticker's
// endStopLater event fires as -id.
type firing struct {
	id int
	at Time
}

type scriptReader struct {
	b   []byte
	ids int
}

func (r *scriptReader) byte() int {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return int(c)
}

func (r *scriptReader) act(depth int) *act {
	r.ids++
	a := &act{id: r.ids, kind: actKind(r.byte() % 3)}
	switch a.kind {
	case actEvery:
		a.delay = oraclePeriods[r.byte()%len(oraclePeriods)]
		a.end = r.byte() % endModes
		a.n = 1 + r.byte()%4
	default:
		a.delay = oracleDelays[r.byte()%len(oracleDelays)]
	}
	if depth < 2 {
		for k := r.byte() % 3; k > 0; k-- {
			a.kids = append(a.kids, r.act(depth+1))
		}
	}
	return a
}

// decodeScript reads phases until the bytes run out; the last phase always
// ends in RunUntilIdle so every queued event gets its chance to fire.
func decodeScript(b []byte) []phase {
	r := &scriptReader{b: b}
	var out []phase
	cur := phase{horizon: -1}
	for len(r.b) > 0 {
		if c := r.byte(); c%4 == 3 {
			if h := r.byte() % (len(oracleHorizons) + 1); h < len(oracleHorizons) {
				cur.horizon = oracleHorizons[h]
			}
			out = append(out, cur)
			cur = phase{horizon: -1}
			continue
		}
		cur.acts = append(cur.acts, r.act(0))
	}
	return append(out, cur)
}

// oracleResult is what every runner must agree on.
type oracleResult struct {
	trace     []firing
	processed uint64
	now       Time
	seq       uint64
	instants  int // drained instants; -1 where the runner has no barrier
}

// engineRunner drives the script on an Engine.
type engineRunner struct{ trace []firing }

func (r *engineRunner) issue(e *Engine, a *act) {
	switch a.kind {
	case actSchedule:
		e.Schedule(a.delay, func(en *Engine) { r.fire(en, a) })
	case actTickEnd:
		e.OnTickEnd(func(en *Engine) { r.fire(en, a) })
	case actEvery:
		ticks := 0
		var stop func()
		stop = e.Every(a.delay, func(en *Engine) bool {
			ticks++
			r.fire(en, a)
			if a.end == endStopInside {
				if ticks == a.n {
					stop()
				}
				return true
			}
			return ticks < a.n
		})
		switch a.end {
		case endStopNow:
			stop()
		case endStopLater:
			e.Schedule(time.Duration(a.n)*a.delay-1, func(en *Engine) {
				r.trace = append(r.trace, firing{-a.id, en.Now()})
				stop()
			})
		}
	}
}

func (r *engineRunner) fire(e *Engine, a *act) {
	r.trace = append(r.trace, firing{a.id, e.Now()})
	for _, k := range a.kids {
		r.issue(e, k)
	}
}

func runOnEngine(script []phase) oracleResult {
	e := NewEngine(1)
	r := &engineRunner{}
	for _, ph := range script {
		for _, a := range ph.acts {
			r.issue(e, a)
		}
		if ph.horizon < 0 {
			e.RunUntilIdle()
		} else {
			e.Run(e.Now() + ph.horizon)
		}
	}
	return oracleResult{r.trace, e.Processed, e.Now(), e.seq, -1}
}

func runOnParallel(script []phase) oracleResult {
	pe := NewParallel(1, 1, 1)
	e := pe.Partition(0)
	r := &engineRunner{}
	instants := 0
	pe.OnInstantEnd(func(*ParallelEngine) { instants++ })
	for _, ph := range script {
		for _, a := range ph.acts {
			r.issue(e, a)
		}
		if ph.horizon < 0 {
			pe.RunUntilIdle()
		} else {
			pe.Run(pe.Now() + ph.horizon)
		}
	}
	return oracleResult{r.trace, pe.Processed(), pe.Now(), e.seq, instants}
}

// sortModel is the definition of the engine's order: a plain slice of
// entries, the next one found by linear scan for the least (at, ctr). A
// stopped ticker's entry is removed from the slice at once.
type sortModel struct {
	now       Time
	ctr       uint64
	q         []modelEntry
	tickEnd   []func()
	processed uint64
	trace     []firing

	instants int
	lastAt   Time
	inPhase  bool // an instant has drained in the current phase
}

type modelEntry struct {
	at     Time
	ctr    uint64
	fn     func()
	ticker *bool // the owning ticker's stop flag; nil for one-shot events
}

func (m *sortModel) add(d time.Duration, fn func(), ticker *bool) {
	m.q = append(m.q, modelEntry{at: m.now + d, ctr: m.ctr, fn: fn, ticker: ticker})
	m.ctr++
}

func (m *sortModel) min() int {
	best := -1
	for i, x := range m.q {
		if best < 0 || x.at < m.q[best].at || (x.at == m.q[best].at && x.ctr < m.q[best].ctr) {
			best = i
		}
	}
	return best
}

func (m *sortModel) stop(ticker *bool) {
	*ticker = true
	kept := m.q[:0]
	for _, x := range m.q {
		if x.ticker != ticker {
			kept = append(kept, x)
		}
	}
	m.q = kept
}

func (m *sortModel) issue(a *act) {
	switch a.kind {
	case actSchedule:
		m.add(a.delay, func() { m.fire(a) }, nil)
	case actTickEnd:
		m.tickEnd = append(m.tickEnd, func() { m.fire(a) })
	case actEvery:
		stopped := new(bool)
		ticks := 0
		var tick func()
		tick = func() {
			ticks++
			m.fire(a)
			more := ticks < a.n
			if a.end == endStopInside {
				more = true
				if ticks == a.n {
					m.stop(stopped)
				}
			}
			if more && !*stopped {
				m.add(a.delay, tick, stopped)
			} else {
				*stopped = true
			}
		}
		m.add(a.delay, tick, stopped)
		switch a.end {
		case endStopNow:
			m.stop(stopped)
		case endStopLater:
			m.add(time.Duration(a.n)*a.delay-1, func() {
				m.trace = append(m.trace, firing{-a.id, m.now})
				m.stop(stopped)
			}, nil)
		}
	}
}

func (m *sortModel) fire(a *act) {
	m.trace = append(m.trace, firing{a.id, m.now})
	for _, k := range a.kids {
		m.issue(k)
	}
}

// mark counts an instant the first time work happens at m.now in a phase.
func (m *sortModel) mark() {
	if !m.inPhase || m.lastAt != m.now {
		m.instants++
		m.inPhase, m.lastAt = true, m.now
	}
}

func (m *sortModel) run(horizon Time, advance bool) {
	m.inPhase = false
	for {
		i := m.min()
		if len(m.tickEnd) > 0 && (i < 0 || m.q[i].at > m.now) {
			m.mark()
			fns := m.tickEnd
			m.tickEnd = nil
			for _, fn := range fns {
				fn()
			}
			continue
		}
		if i < 0 || m.q[i].at > horizon {
			break
		}
		x := m.q[i]
		m.q = append(m.q[:i], m.q[i+1:]...)
		m.now = x.at
		m.mark()
		m.processed++
		x.fn()
	}
	if advance && m.now < horizon {
		m.now = horizon
	}
}

func runOnModel(script []phase) oracleResult {
	m := &sortModel{}
	for _, ph := range script {
		for _, a := range ph.acts {
			m.issue(a)
		}
		if ph.horizon < 0 {
			m.run(Time(1<<63-1), false)
		} else {
			m.run(m.now+ph.horizon, true)
		}
	}
	return oracleResult{m.trace, m.processed, m.now, m.ctr, m.instants}
}

func diffResults(name string, got, want oracleResult) error {
	for i := range got.trace {
		if i >= len(want.trace) {
			return fmt.Errorf("%s fired %d callbacks, model %d", name, len(got.trace), len(want.trace))
		}
		if got.trace[i] != want.trace[i] {
			return fmt.Errorf("%s diverges at firing %d: %v, model %v", name, i, got.trace[i], want.trace[i])
		}
	}
	switch {
	case len(got.trace) != len(want.trace):
		return fmt.Errorf("%s fired %d callbacks, model %d", name, len(got.trace), len(want.trace))
	case got.processed != want.processed:
		return fmt.Errorf("%s Processed = %d, model %d", name, got.processed, want.processed)
	case got.now != want.now:
		return fmt.Errorf("%s final clock = %v, model %v", name, got.now, want.now)
	case got.seq != want.seq:
		return fmt.Errorf("%s consumed %d seqs, model %d", name, got.seq, want.seq)
	case got.instants >= 0 && got.instants != want.instants:
		return fmt.Errorf("%s drained %d instants, model %d", name, got.instants, want.instants)
	}
	return nil
}

func checkSortOracle(b []byte) error {
	script := decodeScript(b)
	want := runOnModel(script)
	if err := diffResults("engine", runOnEngine(script), want); err != nil {
		return err
	}
	return diffResults("parallel", runOnParallel(script), want)
}

func TestEngineMatchesSortOracle(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 4+rng.Intn(200))
		rng.Read(b)
		if err := checkSortOracle(b); err != nil {
			t.Fatalf("seed %d (script %x): %v", seed, b, err)
		}
	}
}

func FuzzEngineMatchesSortOracle(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 3, 4, 1, 1, 1, 1, 0})
	f.Add([]byte{0, 1, 2, 2, 0, 0, 1, 0, 2, 2, 2, 1, 3, 1, 1, 5, 2, 0, 1})
	f.Add([]byte{1, 1, 3, 3, 0, 2, 0, 4, 1, 7, 7, 7, 1, 0, 1, 1, 3, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 256 {
			b = b[:256] // bound the program's size, not its shape
		}
		if err := checkSortOracle(b); err != nil {
			t.Fatal(err)
		}
	})
}
