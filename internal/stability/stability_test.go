package stability

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTrackerCountsOnlyChanges(t *testing.T) {
	var tr Tracker
	tr.Record("B")
	tr.Record("B") // no change
	tr.Record("C")
	tr.Record("B")
	if tr.Switches() != 2 {
		t.Errorf("switches = %d, want 2", tr.Switches())
	}
	if tr.Current() != "B" {
		t.Errorf("current = %q", tr.Current())
	}
	if got := tr.History(); len(got) != 3 {
		t.Errorf("history = %v", got)
	}
}

func TestTrackerEmpty(t *testing.T) {
	var tr Tracker
	if tr.Switches() != 0 || tr.Current() != "" {
		t.Error("empty tracker should be all-zero")
	}
}

func TestDetectCycleOscillation(t *testing.T) {
	// The Figure 5 pattern: B,C,B,C,...
	states := []string{"B", "C", "B", "C", "B", "C"}
	p, ok := DetectCycle(states)
	if !ok || p != 2 {
		t.Errorf("DetectCycle = %d,%v want 2,true", p, ok)
	}
}

func TestDetectCycleLongerPeriod(t *testing.T) {
	states := []string{"x", "A", "B", "C", "A", "B", "C"}
	p, ok := DetectCycle(states)
	if !ok || p != 3 {
		t.Errorf("DetectCycle = %d,%v want 3,true", p, ok)
	}
}

func TestDetectCycleConstantIsNotCycle(t *testing.T) {
	states := []string{"B", "B", "B", "B", "B", "B"}
	if _, ok := DetectCycle(states); ok {
		t.Error("constant sequence reported as cycle")
	}
}

func TestDetectCycleAcyclic(t *testing.T) {
	states := []string{"A", "B", "C", "D", "E", "F"}
	if _, ok := DetectCycle(states); ok {
		t.Error("acyclic sequence reported as cycle")
	}
	if _, ok := DetectCycle([]string{"A"}); ok {
		t.Error("singleton reported as cycle")
	}
	if _, ok := DetectCycle(nil); ok {
		t.Error("empty reported as cycle")
	}
}

func TestDetectCycleConvergedTail(t *testing.T) {
	// Oscillation that settles: the tail is constant, so no live cycle.
	states := []string{"B", "C", "B", "C", "C", "C", "C", "C"}
	if p, ok := DetectCycle(states); ok {
		t.Errorf("settled sequence reported as cycle with period %d", p)
	}
}

func TestHysteresisBlocksMarginalSwitch(t *testing.T) {
	h := &Hysteresis{Margin: 0.2}
	if got := h.Decide(0, "X", 50); got != "X" {
		t.Fatalf("first decision = %q, want X", got)
	}
	// 10% better: below the 20% margin, stay.
	if got := h.Decide(50, "Y", 55); got != "X" {
		t.Errorf("marginal challenger adopted: %q", got)
	}
	// 50% better: switch.
	if got := h.Decide(50, "Y", 75); got != "Y" {
		t.Errorf("clear winner rejected: %q", got)
	}
}

func TestHysteresisSameChoiceNoOp(t *testing.T) {
	h := &Hysteresis{Margin: 0.1}
	h.Decide(0, "X", 50)
	if got := h.Decide(50, "X", 500); got != "X" {
		t.Errorf("re-choosing incumbent changed state: %q", got)
	}
}

func TestBackoffEscalates(t *testing.T) {
	b := NewBackoff(time.Second, time.Minute, 2, 0, 1)
	if !b.Allow(0) {
		t.Fatal("first action should be allowed")
	}
	b.OnAction(0)
	if b.Allow(500 * time.Millisecond) {
		t.Error("action allowed during base hold-down")
	}
	if !b.Allow(time.Second) {
		t.Error("action denied after base hold-down")
	}
	b.OnAction(time.Second) // streak 2: hold-down 2s
	if b.Allow(2 * time.Second) {
		t.Error("action allowed during doubled hold-down")
	}
	if !b.Allow(3 * time.Second) {
		t.Error("action denied after doubled hold-down")
	}
	if b.Streak() != 2 {
		t.Errorf("streak = %d, want 2", b.Streak())
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	b := NewBackoff(time.Second, 4*time.Second, 10, 0, 1)
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		b.OnAction(now)
		now += 4 * time.Second
		if !b.Allow(now) {
			t.Fatalf("action %d denied after max hold-down", i)
		}
	}
}

func TestBackoffQuietPeriodResets(t *testing.T) {
	b := NewBackoff(time.Second, time.Minute, 2, 0, 1)
	b.OnAction(0)
	b.OnAction(time.Second)
	if b.Streak() != 2 {
		t.Fatalf("streak = %d", b.Streak())
	}
	// Long quiet: streak resets on the next action.
	b.OnAction(time.Hour)
	if b.Streak() != 1 {
		t.Errorf("streak after quiet period = %d, want 1", b.Streak())
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	mk := func() []bool {
		b := NewBackoff(time.Second, time.Minute, 2, 0.3, 42)
		var out []bool
		now := time.Duration(0)
		for i := 0; i < 10; i++ {
			now += 700 * time.Millisecond
			if b.Allow(now) {
				b.OnAction(now)
				out = append(out, true)
			} else {
				out = append(out, false)
			}
		}
		return out
	}
	a, bb := mk(), mk()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("jittered backoff not deterministic per seed")
		}
	}
}

func TestBackoffValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewBackoff(0, time.Second, 2, 0, 1) },
		func() { NewBackoff(time.Second, time.Millisecond, 2, 0, 1) },
		func() { NewBackoff(time.Second, time.Minute, 0.5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: DetectCycle on a truly periodic non-constant suffix always
// reports a divisor-compatible period.
func TestQuickDetectCyclePeriodic(t *testing.T) {
	f := func(a, b uint8, reps uint8) bool {
		if a%26 == b%26 {
			return true
		}
		r := int(reps%6) + 2
		var states []string
		for i := 0; i < r; i++ {
			states = append(states, string(rune('A'+a%26)), string(rune('A'+b%26)))
		}
		p, ok := DetectCycle(states)
		return ok && p == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
