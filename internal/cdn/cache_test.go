package cdn

import (
	"testing"
	"testing/quick"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(2)
	if c.Request(1) {
		t.Error("first request should miss")
	}
	if !c.Request(1) {
		t.Error("second request should hit")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d, want 1/1", hits, misses)
	}
	if c.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", c.HitRatio())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Request(1)
	c.Request(2)
	c.Request(1) // 1 is now MRU
	c.Request(3) // evicts 2
	if !c.Contains(1) {
		t.Error("recently used object evicted")
	}
	if c.Contains(2) {
		t.Error("LRU object not evicted")
	}
	if !c.Contains(3) {
		t.Error("new object not inserted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(0)
	if c.Request(1) {
		t.Error("zero-capacity cache hit")
	}
	if c.Request(1) {
		t.Error("zero-capacity cache cached an object")
	}
	if c.Len() != 0 {
		t.Error("zero-capacity cache stored an object")
	}
	c.Warm(1, 2)
	if c.Len() != 0 {
		t.Error("Warm stored into zero-capacity cache")
	}
}

func TestCacheNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity did not panic")
		}
	}()
	NewCache(-1)
}

func TestCacheWarm(t *testing.T) {
	c := NewCache(3)
	c.Warm(1, 2, 3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Error("Warm should not count hits or misses")
	}
	if !c.Request(2) {
		t.Error("warmed object should hit")
	}
	c.Warm(2) // already present: refreshed, not duplicated
	if c.Len() != 3 {
		t.Error("Warm duplicated an object")
	}
	c.Warm(4) // evicts LRU
	if c.Len() != 3 {
		t.Errorf("Len after over-warm = %d, want 3", c.Len())
	}
}

// Regression: re-warming an already-cached object must refresh its recency,
// otherwise re-warmed popular content sits at the LRU tail and is evicted
// first by the next insertion wave.
func TestCacheWarmRefreshesRecency(t *testing.T) {
	c := NewCache(2)
	c.Warm(1, 2) // order (MRU→LRU): 2, 1
	c.Warm(1)    // re-warm 1: order must become 1, 2
	c.Warm(3)    // evicts the true LRU
	if !c.Contains(1) {
		t.Error("re-warmed object evicted: Warm did not refresh recency")
	}
	if c.Contains(2) {
		t.Error("stale object survived over re-warmed one")
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 {
		t.Errorf("re-warm counted hits/misses: %d/%d", hits, misses)
	}
}

// Property: the cache never exceeds capacity and Contains is consistent with
// what Request reported.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(ids []uint8, capacity uint8) bool {
		cap := int(capacity%16) + 1
		c := NewCache(cap)
		for _, id := range ids {
			c.Request(ContentID(id))
			// Pull-through: the object must be cached after any
			// request, and the cache never exceeds capacity.
			if !c.Contains(ContentID(id)) || c.Len() > cap {
				return false
			}
			// An immediate re-request must hit.
			if !c.Request(ContentID(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
