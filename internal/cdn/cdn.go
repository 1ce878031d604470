package cdn

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Server is one delivery server inside a cluster, with a finite concurrent
// session capacity. Servers can be administratively asleep (the §2
// energy-saving knob) or unhealthy (the §2 coarse-control failure).
type Server struct {
	ID       string
	Capacity int
	active   int
	healthy  bool
	asleep   bool
}

// NewServer returns a healthy, awake server.
func NewServer(id string, capacity int) *Server {
	if capacity <= 0 {
		panic(fmt.Sprintf("cdn: server %s needs positive capacity", id))
	}
	return &Server{ID: id, Capacity: capacity, healthy: true}
}

// Load returns active/capacity in [0, 1].
func (s *Server) Load() float64 { return float64(s.active) / float64(s.Capacity) }

// Available reports whether the server can accept another session.
func (s *Server) Available() bool {
	return s.healthy && !s.asleep && s.active < s.Capacity
}

// SetHealthy marks the server failed or recovered. Existing sessions on a
// failed server are the scenario's responsibility to migrate.
func (s *Server) SetHealthy(h bool) { s.healthy = h }

// SetAsleep powers the server down or up (energy-saving scenario, §2).
func (s *Server) SetAsleep(a bool) { s.asleep = a }

// ErrNoServer is returned when no server in a cluster can accept a session.
var ErrNoServer = errors.New("cdn: no available server in cluster")

// Cluster is a co-located group of servers sharing one content cache.
type Cluster struct {
	// OriginPenalty is the extra startup delay a cache miss costs
	// (origin round trip plus fill).
	OriginPenalty time.Duration

	Servers []*Server
	Cache   *Cache
}

// NewCluster builds a cluster of n identical servers, named after the
// cluster, with the given per-server session capacity and a cache of
// cacheObjects objects.
func NewCluster(name string, n, serverCapacity, cacheObjects int, originPenalty time.Duration) *Cluster {
	if n <= 0 {
		panic("cdn: cluster needs at least one server")
	}
	c := &Cluster{
		OriginPenalty: originPenalty,
		Cache:         NewCache(cacheObjects),
	}
	for i := 0; i < n; i++ {
		c.Servers = append(c.Servers, NewServer(fmt.Sprintf("%s-s%02d", name, i), serverCapacity))
	}
	return c
}

// TotalCapacity sums the capacity of awake, healthy servers.
func (c *Cluster) TotalCapacity() int {
	total := 0
	for _, s := range c.Servers {
		if s.healthy && !s.asleep {
			total += s.Capacity
		}
	}
	return total
}

// AwakeServers counts servers that are powered up (healthy or not).
func (c *Cluster) AwakeServers() int {
	n := 0
	for _, s := range c.Servers {
		if !s.asleep {
			n++
		}
	}
	return n
}

// PickServer returns the least-loaded available server, breaking ties by ID
// for determinism, or ErrNoServer.
func (c *Cluster) PickServer() (*Server, error) {
	var best *Server
	for _, s := range c.Servers {
		if !s.Available() {
			continue
		}
		if best == nil || s.Load() < best.Load() || (s.Load() == best.Load() && s.ID < best.ID) {
			best = s
		}
	}
	if best == nil {
		return nil, ErrNoServer
	}
	return best, nil
}

// Alternatives lists available servers other than exclude, least-loaded
// first — the raw data behind the I2A alternative-server hint of §2.
func (c *Cluster) Alternatives(exclude *Server) []*Server {
	var out []*Server
	for _, s := range c.Servers {
		if s == exclude || !s.Available() {
			continue
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load() != out[j].Load() {
			return out[i].Load() < out[j].Load()
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Assignment records a session placed on a server.
type Assignment struct {
	Server *Server
	// CacheHit reports whether the content was already cached.
	CacheHit bool
	// StartupPenalty is the extra startup delay from an origin fetch
	// (zero on a hit).
	StartupPenalty time.Duration

	released bool
}

// Assign admits a session for content onto the cluster's best server,
// performing the pull-through cache lookup. It returns ErrNoServer if the
// cluster is full.
func (c *Cluster) Assign(content ContentID) (*Assignment, error) {
	s, err := c.PickServer()
	if err != nil {
		return nil, err
	}
	return c.AssignTo(s, content)
}

// AssignTo admits a session onto a specific server (used when following an
// I2A alternative-server hint). The server must be available.
func (c *Cluster) AssignTo(s *Server, content ContentID) (*Assignment, error) {
	if !s.Available() {
		return nil, ErrNoServer
	}
	s.active++
	hit := c.Cache.Request(content)
	a := &Assignment{Server: s, CacheHit: hit}
	if !hit {
		a.StartupPenalty = c.OriginPenalty
	}
	return a, nil
}

// Release frees the session's server slot. Releasing twice is a no-op.
func (a *Assignment) Release() {
	if a == nil || a.released {
		return
	}
	a.released = true
	if a.Server.active > 0 {
		a.Server.active--
	}
}
