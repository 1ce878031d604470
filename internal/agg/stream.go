package agg

import (
	"fmt"
	"sort"
	"time"
)

// P2 estimates a single quantile online with O(1) memory using the P²
// algorithm (Jain & Chlamtac, 1985), for the high-rate A2I ingest path.
type P2 struct {
	q       float64
	n       int
	heights [5]float64
	pos     [5]float64
	desired [5]float64
	incr    [5]float64
	initial []float64
}

// NewP2 estimates quantile q in (0,1).
func NewP2(q float64) *P2 {
	if q <= 0 || q >= 1 {
		panic(fmt.Sprintf("agg: P2 quantile %v out of (0,1)", q))
	}
	p := &P2{q: q}
	p.desired = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	p.incr = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Add feeds an observation.
func (p *P2) Add(v float64) {
	if p.n < 5 {
		p.initial = append(p.initial, v)
		p.n++
		if p.n == 5 {
			sort.Float64s(p.initial)
			copy(p.heights[:], p.initial)
			p.pos = [5]float64{1, 2, 3, 4, 5}
			p.initial = nil
		}
		return
	}
	p.n++
	var k int
	switch {
	case v < p.heights[0]:
		p.heights[0] = v
		k = 0
	case v >= p.heights[4]:
		p.heights[4] = v
		k = 3
	default:
		for i := 1; i < 5; i++ {
			if v < p.heights[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := 0; i < 5; i++ {
		p.desired[i] += p.incr[i]
	}
	// Adjust interior markers.
	for i := 1; i < 4; i++ {
		d := p.desired[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := p.parabolic(i, sign)
			if p.heights[i-1] < h && h < p.heights[i+1] {
				p.heights[i] = h
			} else {
				p.heights[i] = p.linear(i, sign)
			}
			p.pos[i] += sign
		}
	}
}

func (p *P2) parabolic(i int, d float64) float64 {
	return p.heights[i] + d/(p.pos[i+1]-p.pos[i-1])*
		((p.pos[i]-p.pos[i-1]+d)*(p.heights[i+1]-p.heights[i])/(p.pos[i+1]-p.pos[i])+
			(p.pos[i+1]-p.pos[i]-d)*(p.heights[i]-p.heights[i-1])/(p.pos[i]-p.pos[i-1]))
}

func (p *P2) linear(i int, d float64) float64 {
	return p.heights[i] + d*(p.heights[i+int(d)]-p.heights[i])/(p.pos[i+int(d)]-p.pos[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it returns the exact sample quantile.
func (p *P2) Value() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		s := append([]float64(nil), p.initial...)
		sort.Float64s(s)
		idx := int(p.q * float64(len(s)-1))
		return s[idx]
	}
	return p.heights[2]
}

// Count returns the number of observations fed.
func (p *P2) Count() int { return p.n }

// Welford accumulates count/mean/variance online.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add feeds an observation.
func (w *Welford) Add(v float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// Count returns the number of observations.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Min and Max return the observed extremes (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the maximum observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Windowed is a ring of time buckets accumulating a sum — the sliding
// window behind "sessions in the last N minutes" A2I summaries.
type Windowed struct {
	bucketDur time.Duration
	buckets   []float64
	starts    []time.Duration
}

// NewWindowed covers a window of n buckets of the given duration.
func NewWindowed(n int, bucket time.Duration) *Windowed {
	if n <= 0 || bucket <= 0 {
		panic("agg: Windowed needs positive bucket count and duration")
	}
	w := &Windowed{bucketDur: bucket, buckets: make([]float64, n), starts: make([]time.Duration, n)}
	for i := range w.starts {
		w.starts[i] = -1
	}
	return w
}

func (w *Windowed) bucketFor(at time.Duration) int {
	idx := int(at/w.bucketDur) % len(w.buckets)
	start := at - at%w.bucketDur
	if w.starts[idx] != start {
		w.buckets[idx] = 0
		w.starts[idx] = start
	}
	return idx
}

// Add accumulates v at virtual time at.
func (w *Windowed) Add(at time.Duration, v float64) {
	w.buckets[w.bucketFor(at)] += v
}

// Sum returns the windowed total as of virtual time now: the sum of buckets
// whose start is within the window ending at now.
func (w *Windowed) Sum(now time.Duration) float64 {
	window := w.bucketDur * time.Duration(len(w.buckets))
	total := 0.0
	for i, s := range w.starts {
		if s < 0 {
			continue
		}
		if s >= now-window && s <= now {
			total += w.buckets[i]
		}
	}
	return total
}
