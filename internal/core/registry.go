package core

import (
	"fmt"
	"sort"
	"sync"
)

// Surface names one exported interface surface, for per-collaborator
// gating.
type Surface string

// The exportable surfaces.
const (
	SurfaceQoESummaries Surface = "a2i.qoe_summaries"
	SurfaceTraffic      Surface = "a2i.traffic_estimates"
	SurfacePeering      Surface = "i2a.peering_info"
	SurfaceAttribution  Surface = "i2a.attribution"
	SurfaceServerHints  Surface = "i2a.server_hints"
)

// Partner is one collaborator's standing with this provider: which
// surfaces it may read and under which blinding policy — §3's "choose the
// subset of collaborators to export EONA interfaces [to]" plus §4's "must
// be able to specify what can or cannot be shared".
type Partner struct {
	Name string
	// Policy blinds this partner's A2I exports.
	Policy ExportPolicy
	// NoiseSeed keeps the partner's noise stream independent.
	NoiseSeed int64
	// Surfaces this partner may read.
	Surfaces map[Surface]bool
}

// Registry tracks collaborators. Safe for concurrent use (looking-glass
// handlers consult it per request).
type Registry struct {
	mu       sync.RWMutex
	partners map[string]*Partner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{partners: make(map[string]*Partner)}
}

// Register adds or replaces a partner. A copy is stored.
func (r *Registry) Register(p Partner) {
	if p.Name == "" {
		panic("core: partner needs a name")
	}
	cp := p
	cp.Surfaces = make(map[Surface]bool, len(p.Surfaces))
	for s, ok := range p.Surfaces {
		cp.Surfaces[s] = ok
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partners[p.Name] = &cp
}

// Partner returns a copy of the named partner's standing.
func (r *Registry) Partner(name string) (Partner, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.partners[name]
	if !ok {
		return Partner{}, false
	}
	cp := *p
	cp.Surfaces = make(map[Surface]bool, len(p.Surfaces))
	for s, v := range p.Surfaces {
		cp.Surfaces[s] = v
	}
	return cp, true
}

// Allowed reports whether the named partner may read a surface. Unknown
// partners may read nothing.
func (r *Registry) Allowed(name string, s Surface) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.partners[name]
	return ok && p.Surfaces[s]
}

// PolicyFor returns the partner's blinding policy and noise seed; unknown
// partners get the most restrictive default (suppress everything via an
// impossible group floor).
func (r *Registry) PolicyFor(name string) (ExportPolicy, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.partners[name]
	if !ok {
		return ExportPolicy{MinGroupSessions: ^uint64(0)}, 0
	}
	return p.Policy, p.NoiseSeed
}

// Names lists registered partners, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.partners))
	for n := range r.partners {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String summarizes the registry for operator logs.
func (r *Registry) String() string {
	names := r.Names()
	return fmt.Sprintf("core.Registry(%d partners: %v)", len(names), names)
}
