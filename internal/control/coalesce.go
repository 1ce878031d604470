package control

import (
	"eona/internal/netsim"
	"eona/internal/sim"
)

// Coalescer folds every reaction deferred during one simulated instant into
// a single netsim batch committed at the end of the tick. Without it, M
// monitors tripping at the same instant (a flash crowd hitting one CDN, a
// server dying under a whole fleet) cost M reallocations; with it they cost
// one — the same amortize-the-recompute shape B4 and SWAN use for batched
// TE solves. Share one Coalescer between all monitors driving the same
// Network.
//
// Deferring moves a reaction from its monitor's check event to the end of
// the same simulated instant. No simulated time passes in between, but
// other same-instant events observe the pre-reaction network state; the
// simulation stays deterministic either way.
type Coalescer struct {
	eng     *sim.Engine
	net     *netsim.Network
	pending []func()
	// free is the previous flush's drained pending buffer, reused by the
	// next Defer so steady-state ticks don't grow a fresh slice. Kept
	// separate from pending because a reaction may Defer again while the
	// commit is still iterating the old buffer.
	free  []func()
	armed bool
}

// NewCoalescer returns a Coalescer committing deferred reactions on net at
// the end of each of eng's ticks.
func NewCoalescer(eng *sim.Engine, net *netsim.Network) *Coalescer {
	return &Coalescer{eng: eng, net: net}
}

// Defer queues fn for the shared end-of-tick commit. The first deferral of
// each tick arms the engine hook; N same-instant deferrals then cost one
// reallocation instead of N. fn must not assume it runs before other events
// at the same instant.
func (c *Coalescer) Defer(fn func()) {
	c.pending = append(c.pending, fn)
	if !c.armed {
		c.armed = true
		c.eng.OnTickEnd(c.flush)
	}
}

// flush commits all reactions deferred this tick in one batch. A reaction
// that defers further work re-arms the hook for the same instant; it lands
// in the spare buffer, never the one the commit is iterating.
func (c *Coalescer) flush(*sim.Engine) {
	fns := c.pending
	c.pending = c.free[:0]
	c.free = nil
	c.armed = false
	if len(fns) == 0 {
		c.free = fns
		return
	}
	c.net.NoteCoalescedReactions(uint64(len(fns)))
	c.net.Batch(func() {
		for _, fn := range fns {
			fn()
		}
	})
	for i := range fns {
		fns[i] = nil
	}
	c.free = fns[:0]
}
