package netsim

import "math"

// State digest: a commutative multiset hash over the live flows.
//
// Every live flow contributes one 64-bit fingerprint of (ID, tag, path |
// demand, weight); the network keeps the wrapping sum of the fingerprints
// (flowSum) and each mutator replaces exactly the contribution it changed,
// so fingerprinting the state after an op costs the op's path length, not a
// pass over every flow. Addition commutes, which is what lets a stop remove
// a flow without knowing the order it arrived in; the finalizer on each
// fingerprint keeps the sum from cancelling across flows (two flows
// swapping demands moves it).
//
// Only the flow set is summed incrementally. nextID, MaxRate and the link
// capacities are hashed when the digest is read: ImportState assigns nextID
// directly, MaxRate is a single word, and capacities live in the *Topology,
// which several networks may share — a capacity edit through one of them is
// an early-return no-op on the others, so no mutator of this network sees it.
// Reading them costs O(links), and links do not grow with load.
//
// The digest is an integrity fingerprint beside the journal's frame CRC —
// it catches replay divergence and corruption the CRC cannot see — not a
// MAC: it makes no claim against an adversary choosing flows to collide.
// DESIGN.md §5 "State digest".

// digestSeed starts every hash chain (the 64-bit golden ratio); mixWord
// multiplies by it too.
const digestSeed = 0x9E3779B97F4A7C15

// mixWord folds one 64-bit word into a running hash: xor, multiply, and a
// shift so the high bits the multiply produced reach the low half.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * digestSeed
	return h ^ h>>32
}

// mixString folds a string in eight bytes at a time, length first so the
// zero padding of the last word is unambiguous.
func mixString(h uint64, s string) uint64 {
	h = mixWord(h, uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		k := min(len(s), 8)
		for i := 0; i < k; i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = mixWord(h, w)
		s = s[k:]
	}
	return h
}

// fmix64 is the murmur3 finalizer: every input bit flips every output bit
// with probability one half.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// flowStatic hashes the part of a flow only StartFlow and SetPath change:
// ID, tag and path.
func flowStatic(f *Flow) uint64 {
	h := mixWord(digestSeed, uint64(f.ID))
	h = mixString(h, f.Tag)
	h = mixWord(h, uint64(len(f.Path)))
	for _, l := range f.Path {
		h = mixWord(h, uint64(l.ID))
	}
	return h
}

// flowFingerprint completes a flow's static hash with its demand and raw
// weight into the value the flow contributes to the multiset sum.
func flowFingerprint(static uint64, demand, weight float64) uint64 {
	h := mixWord(static, math.Float64bits(demand))
	return fmix64(mixWord(h, math.Float64bits(weight)))
}

// refingerprint replaces f's contribution to flowSum after its demand or
// weight changed. The old contribution is the cached one, never recomputed
// from fields that have already moved.
func (n *Network) refingerprint(f *Flow) {
	i := f.idx
	fp := flowFingerprint(n.arStatic[i], f.Demand, f.Weight)
	n.flowSum += fp - n.arFP[i]
	n.arFP[i] = fp
}

// StateDigest fingerprints the network's allocator-input state — flow set
// (IDs, paths, demands, weights, tags), link capacities, ID counter and
// MaxRate — in O(links) with no allocation; the flow set enters as the
// incrementally maintained multiset sum described above. Rates are excluded
// on purpose: inputs are updated eagerly even inside an open Batch, while
// rates lag until the batch commits, so an input digest is a well-defined
// per-op fingerprint in both SharedNetwork modes, and rates are a pure
// function of the digested inputs anyway. Two networks with equal digests
// that share an allocator therefore allocate bit-identical rates; the
// journal records this digest per op, and bisect replays a log until the
// digests part ways.
func (n *Network) StateDigest() uint64 {
	h := mixWord(digestSeed, uint64(n.nextID))
	h = mixWord(h, math.Float64bits(n.maxRate))
	h = mixWord(h, uint64(len(n.flows)))
	h = mixWord(h, n.flowSum)
	for _, l := range n.topo.links {
		h = mixWord(h, math.Float64bits(l.Capacity))
	}
	return fmix64(h)
}
