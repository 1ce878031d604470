package agg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(64, 4)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(200))
		cm.Add(key, 1)
		truth[key]++
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < want {
			t.Errorf("Estimate(%s) = %d < true %d", k, got, want)
		}
	}
	if cm.Total() != 5000 {
		t.Errorf("Total = %d, want 5000", cm.Total())
	}
}

func TestCountMinErrorBound(t *testing.T) {
	cm := NewCountMinWithError(0.01, 0.01)
	const n = 100000
	rng := rand.New(rand.NewSource(2))
	truth := map[string]uint64{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(1000))
		cm.Add(key, 1)
		truth[key]++
	}
	// With ε=0.01 the overcount should be ≤ εN = 1000 for (nearly) all
	// keys; tolerate a handful of violations per the δ bound.
	bad := 0
	for k, want := range truth {
		if cm.Estimate(k) > want+n/100 {
			bad++
		}
	}
	if bad > 20 {
		t.Errorf("%d keys exceeded the εN error bound", bad)
	}
	if cm.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

func TestCountMinValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewCountMin(0, 1) },
		func() { NewCountMin(1, 0) },
		func() { NewCountMinWithError(0, 0.5) },
		func() { NewCountMinWithError(0.5, 1) },
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

func TestP2Median(t *testing.T) {
	p := NewP2(0.5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		p.Add(rng.NormFloat64()*10 + 100)
	}
	if got := p.Value(); math.Abs(got-100) > 1 {
		t.Errorf("P² median = %v, want ≈100", got)
	}
	if p.Count() != 50000 {
		t.Errorf("Count = %d", p.Count())
	}
}

func TestP2TailQuantile(t *testing.T) {
	p := NewP2(0.95)
	for i := 1; i <= 10000; i++ {
		p.Add(float64(i % 1000))
	}
	if got := p.Value(); got < 900 || got > 1000 {
		t.Errorf("p95 of uniform[0,1000) = %v, want ≈950", got)
	}
}

func TestP2SmallSamples(t *testing.T) {
	p := NewP2(0.5)
	if p.Value() != 0 {
		t.Error("empty P2 should report 0")
	}
	p.Add(7)
	if p.Value() != 7 {
		t.Errorf("single-sample value = %v, want 7", p.Value())
	}
	p.Add(1)
	p.Add(9)
	if got := p.Value(); got != 7 {
		t.Errorf("3-sample median = %v, want 7", got)
	}
}

func TestP2Validation(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v) did not panic", q)
				}
			}()
			NewP2(q)
		}()
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 {
		t.Error("empty Welford should be zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.Count() != 8 {
		t.Errorf("Count = %d", w.Count())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	if math.Abs(w.Variance()-4) > 1e-12 {
		t.Errorf("Variance = %v, want 4", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWindowedSum(t *testing.T) {
	w := NewWindowed(6, 10*time.Second) // 60s window
	w.Add(5*time.Second, 1)
	w.Add(15*time.Second, 2)
	w.Add(25*time.Second, 3)
	if got := w.Sum(30 * time.Second); got != 6 {
		t.Errorf("Sum(30s) = %v, want 6", got)
	}
	// At t=70s the first bucket (start 0s) has aged out.
	if got := w.Sum(70 * time.Second); got != 5 {
		t.Errorf("Sum(70s) = %v, want 5", got)
	}
}

func TestWindowedBucketReuse(t *testing.T) {
	w := NewWindowed(2, time.Second)
	w.Add(0, 10)
	// t=2s reuses bucket 0; the old value must be discarded.
	w.Add(2*time.Second, 1)
	if got := w.Sum(2 * time.Second); got != 1 {
		t.Errorf("Sum after reuse = %v, want 1", got)
	}
}

func TestWindowedValidation(t *testing.T) {
	for i, fn := range []func(){
		func() { NewWindowed(0, time.Second) },
		func() { NewWindowed(2, 0) },
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

func TestRollupGroups(t *testing.T) {
	type key struct{ ISP, CDN string }
	r := NewRollup[key]()
	r.Observe(key{"isp1", "cdnX"}, "score", 80)
	r.Observe(key{"isp1", "cdnX"}, "score", 60)
	r.Observe(key{"isp1", "cdnY"}, "score", 40)
	r.Observe(key{"isp1", "cdnX"}, "bufratio", 0.1)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	g := r.Group(key{"isp1", "cdnX"})
	if g == nil {
		t.Fatal("group missing")
	}
	if got := g.Metric("score").Mean(); got != 70 {
		t.Errorf("mean score = %v, want 70", got)
	}
	names := g.Metrics()
	if len(names) != 2 || names[0] != "bufratio" || names[1] != "score" {
		t.Errorf("metric names = %v", names)
	}
	if r.Group(key{"isp2", "cdnX"}) != nil {
		t.Error("missing group should be nil")
	}
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != (key{"isp1", "cdnX"}) {
		t.Errorf("Keys = %v (want first-observation order)", keys)
	}
}

// Property: Welford mean/variance match the naive two-pass computation.
func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
			w.Add(vals[i])
		}
		mean := 0.0
		for _, v := range vals {
			mean += v
		}
		mean /= float64(len(vals))
		variance := 0.0
		for _, v := range vals {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(len(vals))
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: P² estimates stay within the observed min/max.
func TestQuickP2Bounded(t *testing.T) {
	f := func(raw []uint16, qSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := []float64{0.1, 0.5, 0.9}[int(qSel)%3]
		p := NewP2(q)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			x := float64(v)
			p.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		got := p.Value()
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestP2AccuracyAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		p := NewP2(q)
		var all []float64
		for i := 0; i < 20000; i++ {
			v := rng.ExpFloat64() * 100
			p.Add(v)
			all = append(all, v)
		}
		sort.Float64s(all)
		exact := all[int(q*float64(len(all)-1))]
		rel := math.Abs(p.Value()-exact) / exact
		if rel > 0.1 {
			t.Errorf("q=%v: P²=%v exact=%v (rel err %.3f)", q, p.Value(), exact, rel)
		}
	}
}

func BenchmarkCountMinAdd(b *testing.B) {
	cm := NewCountMinWithError(0.001, 0.001)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("isp%d/cdn%d", i%32, i%7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Add(keys[i%len(keys)], 1)
	}
}

func BenchmarkP2Add(b *testing.B) {
	p := NewP2(0.95)
	for i := 0; i < b.N; i++ {
		p.Add(float64(i % 10000))
	}
}
