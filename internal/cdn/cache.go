// Package cdn models a content delivery network: named clusters attached to
// network nodes, servers with finite session capacity, and pull-through LRU
// content caches whose misses cost extra startup delay (an origin fetch).
//
// The model exists to make the paper's §2 "coarse control" scenario
// quantitative: switching to an alternative server *inside* the same CDN
// keeps cache locality (likely hit) and is cheap, while switching to a whole
// different CDN lands on a cold cache and disrupts the session. The CDN also
// exports the raw data behind EONA-I2A hints: per-server load and
// alternative-server lists.
package cdn

import "container/list"

// ContentID identifies an object in the catalog.
type ContentID int

// Cache is an LRU cache counted in objects. The zero value is unusable;
// construct with NewCache.
type Cache struct {
	capacity int
	ll       *list.List // front = most recent; values are ContentID
	index    map[ContentID]*list.Element

	hits, misses uint64
}

// NewCache returns an LRU cache holding up to capacity objects.
// A capacity of zero is legal and models a cacheless proxy: every lookup
// misses.
func NewCache(capacity int) *Cache {
	if capacity < 0 {
		panic("cdn: negative cache capacity")
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[ContentID]*list.Element),
	}
}

// Len returns the number of cached objects.
func (c *Cache) Len() int { return c.ll.Len() }

// Contains reports whether id is cached, without touching recency or
// hit/miss counters.
func (c *Cache) Contains(id ContentID) bool {
	_, ok := c.index[id]
	return ok
}

// Request performs a pull-through lookup: on hit the object is refreshed to
// most-recently-used and true is returned; on miss the object is fetched
// (inserted, evicting the LRU entry if full) and false is returned.
func (c *Cache) Request(id ContentID) (hit bool) {
	if e, ok := c.index[id]; ok {
		c.ll.MoveToFront(e)
		c.hits++
		return true
	}
	c.misses++
	if c.capacity == 0 {
		return false
	}
	if c.ll.Len() >= c.capacity {
		lru := c.ll.Back()
		c.ll.Remove(lru)
		delete(c.index, lru.Value.(ContentID))
	}
	c.index[id] = c.ll.PushFront(id)
	return false
}

// Warm inserts objects without counting misses — used to set up
// already-popular content at scenario start. Warming an already-cached
// object refreshes it to most-recently-used: re-warmed popular content must
// not linger at the LRU tail where the next fill wave would evict it first.
func (c *Cache) Warm(ids ...ContentID) {
	for _, id := range ids {
		if e, ok := c.index[id]; ok {
			c.ll.MoveToFront(e)
			continue
		}
		if c.capacity == 0 {
			continue
		}
		if c.ll.Len() >= c.capacity {
			lru := c.ll.Back()
			c.ll.Remove(lru)
			delete(c.index, lru.Value.(ContentID))
		}
		c.index[id] = c.ll.PushFront(id)
	}
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// HitRatio returns hits/(hits+misses), or 0 before any request.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
