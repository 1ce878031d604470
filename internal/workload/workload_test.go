package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestConstantRate(t *testing.T) {
	r := Constant(5)
	if r(0) != 5 || r(time.Hour) != 5 {
		t.Error("constant rate not constant")
	}
}

func TestFlashCrowdProfile(t *testing.T) {
	fc := FlashCrowd{Base: 1, Peak: 11, Start: 10 * time.Second,
		RampUp: 10 * time.Second, Hold: 20 * time.Second, Down: 10 * time.Second}
	r := fc.Rate()
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 1}, {9 * time.Second, 1},
		{15 * time.Second, 6},  // halfway up the ramp
		{20 * time.Second, 11}, // peak start
		{30 * time.Second, 11}, // holding
		{45 * time.Second, 6},  // halfway down
		{60 * time.Second, 1},  // back to base
		{time.Hour, 1},
	}
	for _, c := range cases {
		if got := r(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("rate(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestDiurnalProfile(t *testing.T) {
	d := Diurnal{Mean: 10, Amplitude: 5, Period: 24 * time.Hour}
	r := d.Rate()
	if got := r(0); math.Abs(got-15) > 1e-9 {
		t.Errorf("peak rate = %v, want 15", got)
	}
	if got := r(12 * time.Hour); math.Abs(got-5) > 1e-9 {
		t.Errorf("trough rate = %v, want 5", got)
	}
	// Clamps at zero when amplitude exceeds mean.
	neg := Diurnal{Mean: 1, Amplitude: 5, Period: 24 * time.Hour}
	if got := neg.Rate()(12 * time.Hour); got != 0 {
		t.Errorf("clamped rate = %v, want 0", got)
	}
}

func TestDiurnalZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	Diurnal{Mean: 1, Period: 0}.Rate()
}

func TestArrivalsRateMatchesExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := Arrivals(rng, Constant(10), 10, 1000*time.Second)
	// Expect ~10000 arrivals; Poisson sd ≈ 100.
	if n := len(got); n < 9500 || n > 10500 {
		t.Errorf("arrivals = %d, want ≈10000", n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("arrivals not sorted")
	}
}

func TestArrivalsThinning(t *testing.T) {
	// Rate 2 during first half, 8 during second half.
	rate := func(t time.Duration) float64 {
		if t < 500*time.Second {
			return 2
		}
		return 8
	}
	rng := rand.New(rand.NewSource(2))
	got := Arrivals(rng, rate, 8, 1000*time.Second)
	var first, second int
	for _, at := range got {
		if at < 500*time.Second {
			first++
		} else {
			second++
		}
	}
	if first < 800 || first > 1200 {
		t.Errorf("first-half arrivals = %d, want ≈1000", first)
	}
	if second < 3600 || second > 4400 {
		t.Errorf("second-half arrivals = %d, want ≈4000", second)
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := Arrivals(rand.New(rand.NewSource(7)), Constant(5), 5, 100*time.Second)
	b := Arrivals(rand.New(rand.NewSource(7)), Constant(5), 5, 100*time.Second)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

func TestArrivalsBadMaxRate(t *testing.T) {
	for _, maxRate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("maxRate %v did not panic", maxRate)
				}
			}()
			Arrivals(rand.New(rand.NewSource(1)), Constant(1), maxRate, time.Second)
		}()
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(rng, 1.2, 1000)
	counts := make(map[int]int)
	for i := 0; i < 20000; i++ {
		id := z.Draw()
		if id < 0 || id >= 1000 {
			t.Fatalf("Zipf draw out of range: %d", id)
		}
		counts[id]++
	}
	if counts[0] <= counts[500] {
		t.Error("Zipf head not more popular than tail")
	}
	// The head item should carry a large share.
	if counts[0] < 2000 {
		t.Errorf("head share = %d/20000, suspiciously flat", counts[0])
	}
}

func TestZipfBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		s float64
		n int
	}{{1.2, 0}, {0.5, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(s=%v,n=%d) did not panic", tc.s, tc.n)
				}
			}()
			NewZipf(rng, tc.s, tc.n)
		}()
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewWeightedChoice([]string{"comcast", "verizon", "att"}, []float64{6, 3, 1})
	counts := map[string]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[w.Pick(rng)]++
	}
	if got := float64(counts["comcast"]) / n; math.Abs(got-0.6) > 0.02 {
		t.Errorf("comcast share = %v, want ≈0.6", got)
	}
	if got := float64(counts["att"]) / n; math.Abs(got-0.1) > 0.02 {
		t.Errorf("att share = %v, want ≈0.1", got)
	}
}

func TestWeightedChoiceValidation(t *testing.T) {
	for _, tc := range []struct {
		labels  []string
		weights []float64
	}{
		{[]string{"a"}, []float64{1, 2}},
		{nil, nil},
		{[]string{"a"}, []float64{-1}},
		{[]string{"a", "b"}, []float64{0, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWeightedChoice(%v,%v) did not panic", tc.labels, tc.weights)
				}
			}()
			NewWeightedChoice(tc.labels, tc.weights)
		}()
	}
}

func TestWeightedChoiceZeroWeightNeverPicked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w := NewWeightedChoice([]string{"never", "always"}, []float64{0, 1})
	for i := 0; i < 1000; i++ {
		if w.Pick(rng) == "never" {
			t.Fatal("zero-weight label picked")
		}
	}
}

func TestGenerateDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sessions := Generate(rng, Spec{
		Rate:    Constant(5),
		MaxRate: 5,
		Horizon: 200 * time.Second,
		Groups:  NewWeightedChoice([]string{"ispA", "ispB"}, []float64{1, 1}),
	})
	if len(sessions) < 800 || len(sessions) > 1200 {
		t.Fatalf("session count = %d, want ≈1000", len(sessions))
	}
	for _, s := range sessions {
		if s.IntendedDuration < 30*time.Second {
			t.Fatalf("duration %v below floor", s.IntendedDuration)
		}
		if s.ContentID < 0 || s.ContentID >= 1000 {
			t.Fatalf("content ID %d outside default catalog", s.ContentID)
		}
		if s.ClientGroup != "ispA" && s.ClientGroup != "ispB" {
			t.Fatalf("unexpected group %q", s.ClientGroup)
		}
	}
}

// Property: arrival times always fall inside the horizon and are sorted, for
// any seed and horizon.
func TestQuickArrivalsInHorizon(t *testing.T) {
	f := func(seed int64, horizonSec uint8) bool {
		h := time.Duration(horizonSec) * time.Second
		got := Arrivals(rand.New(rand.NewSource(seed)), Constant(3), 3, h)
		for i, at := range got {
			if at < 0 || at >= h {
				return false
			}
			if i > 0 && got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
