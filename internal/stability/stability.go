// Package stability makes control-loop oscillation (Figure 5, §5 "control
// conflicts and instabilities") a first-class observable, and implements
// the dampening mechanisms the paper speculates about ("some sort of
// dampening or backoff algorithms can help here"): hysteresis bands and
// randomized exponential backoff on control actions.
package stability

import (
	"math/rand"
	"time"
)

// Tracker records the successive values of one decision variable (an ISP's
// egress choice, an AppP's CDN choice) and counts switches.
type Tracker struct {
	values []string
}

// Record notes the next decision value. Only changes count as switches;
// recording the same value repeatedly is free.
func (t *Tracker) Record(value string) {
	if n := len(t.values); n > 0 && t.values[n-1] == value {
		return
	}
	t.values = append(t.values, value)
}

// Current returns the most recent value ("" before any Record).
func (t *Tracker) Current() string {
	if len(t.values) == 0 {
		return ""
	}
	return t.values[len(t.values)-1]
}

// Switches returns the number of value changes (transitions), excluding the
// initial assignment.
func (t *Tracker) Switches() int {
	if len(t.values) == 0 {
		return 0
	}
	return len(t.values) - 1
}

// History returns a copy of the recorded values.
func (t *Tracker) History() []string { return append([]string(nil), t.values...) }

// DetectCycle reports whether the tail of a decision sequence is a limit
// cycle: the smallest period p ≥ 2 such that the last 2p (or more, up to
// the full sequence) entries repeat with period p and are not constant.
// Returns (0, false) for acyclic or constant sequences.
func DetectCycle(states []string) (period int, ok bool) {
	n := len(states)
	for p := 2; p <= n/2; p++ {
		// Verify the last 2p entries (at least two full periods).
		tail := states[n-2*p:]
		periodic := true
		for i := p; i < 2*p; i++ {
			if tail[i] != tail[i-p] {
				periodic = false
				break
			}
		}
		if !periodic {
			continue
		}
		// Reject constant cycles (no actual oscillation).
		constant := true
		for i := 1; i < p; i++ {
			if tail[i] != tail[0] {
				constant = false
				break
			}
		}
		if !constant {
			return p, true
		}
	}
	return 0, false
}

// Hysteresis gates a switch decision: a candidate must beat the incumbent's
// score by a relative margin before the switch is taken. This is the
// dampening that stops marginal, oscillation-prone switches.
type Hysteresis struct {
	// Margin is the required relative improvement (0.1 = 10% better).
	Margin float64
	// current is the incumbent choice.
	current string
}

// Current returns the incumbent ("" before the first decision).
func (h *Hysteresis) Current() string { return h.current }

// Decide returns the choice to use, given the incumbent's score and the
// best challenger with its score. The first call always adopts the
// challenger (there is no incumbent).
func (h *Hysteresis) Decide(incumbentScore float64, challenger string, challengerScore float64) string {
	if h.current == "" {
		h.current = challenger
		return h.current
	}
	if challenger != h.current && challengerScore > incumbentScore*(1+h.Margin) {
		h.current = challenger
	}
	return h.current
}

// Backoff rate-limits control actions with randomized exponential backoff:
// after each action the next one is allowed only Base×Factor^n (±jitter)
// later, where n is the count of recent consecutive actions. Quiet periods
// reset the streak.
type Backoff struct {
	// Base is the initial hold-down after an action.
	Base time.Duration
	// Max caps the hold-down.
	Max time.Duration
	// Factor multiplies the hold-down per consecutive action (≥ 1).
	Factor float64
	// Jitter is the relative randomization (0.1 = ±10%); 0 disables.
	Jitter float64

	rng         *rand.Rand
	nextAllowed time.Duration
	streak      int
	lastAction  time.Duration
}

// NewBackoff builds a backoff with a deterministic jitter source.
func NewBackoff(base, max time.Duration, factor, jitter float64, seed int64) *Backoff {
	if base <= 0 || max < base || factor < 1 {
		panic("stability: invalid backoff parameters")
	}
	return &Backoff{Base: base, Max: max, Factor: factor, Jitter: jitter, rng: rand.New(rand.NewSource(seed))}
}

// Allow reports whether an action may be taken at virtual time now.
func (b *Backoff) Allow(now time.Duration) bool {
	return now >= b.nextAllowed
}

// OnAction records that an action was taken at now and schedules the next
// permitted action.
func (b *Backoff) OnAction(now time.Duration) {
	// A long quiet period (4× the current hold-down) resets the streak.
	hold := b.holdDown()
	if b.streak > 0 && now-b.lastAction > 4*hold {
		b.streak = 0
	}
	b.streak++
	b.lastAction = now
	d := b.holdDown()
	if b.Jitter > 0 {
		j := 1 + b.Jitter*(2*b.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	b.nextAllowed = now + d
}

func (b *Backoff) holdDown() time.Duration {
	d := float64(b.Base)
	for i := 1; i < b.streak; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			return b.Max
		}
	}
	if d > float64(b.Max) {
		return b.Max
	}
	return time.Duration(d)
}

// Streak returns the current consecutive-action count.
func (b *Backoff) Streak() int { return b.streak }
