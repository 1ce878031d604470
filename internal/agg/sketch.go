// Package agg provides the streaming-aggregation machinery an AppP needs to
// turn tens of millions of per-session QoE records per day (§5
// "Scalability") into the compact summaries exported over EONA-A2I:
// count-min sketches for heavy-hitter counting, P²
// streaming quantiles, windowed counters, and dimensional group-by rollups.
//
// Everything here is O(1) or O(log n) per record and bounded-memory — the
// paper's "big data platform" requirement scaled to a single process. The
// E7 benchmark measures ingest throughput of this path end to end.
package agg

import (
	"fmt"
	"hash/maphash"
	"math"
)

// CountMin is a count-min sketch: a fixed-memory frequency estimator whose
// Estimate never undercounts and overcounts by at most εN with probability
// 1-δ for width=⌈e/ε⌉, depth=⌈ln(1/δ)⌉.
type CountMin struct {
	width, depth int
	counts       [][]uint64
	seeds        []maphash.Seed
	total        uint64
}

// NewCountMin builds a sketch with the given width and depth.
func NewCountMin(width, depth int) *CountMin {
	if width <= 0 || depth <= 0 {
		panic(fmt.Sprintf("agg: invalid count-min dimensions %dx%d", width, depth))
	}
	cm := &CountMin{width: width, depth: depth}
	for i := 0; i < depth; i++ {
		cm.counts = append(cm.counts, make([]uint64, width))
		cm.seeds = append(cm.seeds, maphash.MakeSeed())
	}
	return cm
}

// NewCountMinWithError builds a sketch sized for additive error ε (as a
// fraction of total count) with failure probability δ.
func NewCountMinWithError(epsilon, delta float64) *CountMin {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("agg: invalid count-min error params ε=%v δ=%v", epsilon, delta))
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth)
}

func (cm *CountMin) index(row int, key string) int {
	var h maphash.Hash
	h.SetSeed(cm.seeds[row])
	h.WriteString(key)
	return int(h.Sum64() % uint64(cm.width))
}

// Add increments key's count by n.
func (cm *CountMin) Add(key string, n uint64) {
	for row := 0; row < cm.depth; row++ {
		cm.counts[row][cm.index(row, key)] += n
	}
	cm.total += n
}

// Estimate returns an upper-biased estimate of key's count.
func (cm *CountMin) Estimate(key string) uint64 {
	est := uint64(math.MaxUint64)
	for row := 0; row < cm.depth; row++ {
		if c := cm.counts[row][cm.index(row, key)]; c < est {
			est = c
		}
	}
	return est
}

// Total returns the sum of all added counts.
func (cm *CountMin) Total() uint64 { return cm.total }

// MemoryBytes returns the approximate memory footprint of the counters.
func (cm *CountMin) MemoryBytes() int { return cm.width * cm.depth * 8 }
