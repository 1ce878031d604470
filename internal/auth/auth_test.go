package auth

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAuthorize(t *testing.T) {
	s := NewStore()
	s.Register("secret-isp1", "isp1", ScopeI2APeering, ScopeI2AAttrib)
	collab, err := s.Authorize("secret-isp1", ScopeI2APeering)
	if err != nil {
		t.Fatal(err)
	}
	if collab != "isp1" {
		t.Errorf("collaborator = %q", collab)
	}
}

func TestAuthorizeUnknownToken(t *testing.T) {
	s := NewStore()
	s.Register("real", "isp1", ScopeI2APeering)
	if _, err := s.Authorize("fake", ScopeI2APeering); !errors.Is(err, ErrUnauthorized) {
		t.Errorf("err = %v, want ErrUnauthorized", err)
	}
}

func TestAuthorizeMissingScope(t *testing.T) {
	s := NewStore()
	s.Register("tok", "isp1", ScopeI2APeering)
	if _, err := s.Authorize("tok", ScopeA2IQoE); !errors.Is(err, ErrForbidden) {
		t.Errorf("err = %v, want ErrForbidden", err)
	}
}

func TestAdminScopeGrantsEverything(t *testing.T) {
	s := NewStore()
	s.Register("root", "operator", ScopeAdmin)
	for _, sc := range []Scope{ScopeA2IQoE, ScopeA2ITraffic, ScopeI2APeering, ScopeI2AAttrib, ScopeI2AHints} {
		if _, err := s.Authorize("root", sc); err != nil {
			t.Errorf("admin denied %s: %v", sc, err)
		}
	}
}

func TestRevoke(t *testing.T) {
	s := NewStore()
	s.Register("tok", "isp1", ScopeI2APeering)
	s.Revoke("tok")
	if _, err := s.Authorize("tok", ScopeI2APeering); !errors.Is(err, ErrUnauthorized) {
		t.Error("revoked token still works")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewStore()
	for i, fn := range []func(){
		func() { s.Register("", "x") },
		func() { s.Register("x", "") },
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

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore()
	s.Register("tok", "isp1", ScopeI2APeering)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if i%4 == 0 {
					s.Register("tok2", "isp2", ScopeA2IQoE)
				}
				s.Authorize("tok", ScopeI2APeering)
			}
		}(i)
	}
	wg.Wait()
}

func TestRateLimiterBurstThenRefill(t *testing.T) {
	rl := NewRateLimiter(1, 3) // 1 rps, burst 3
	now := time.Unix(0, 0)
	for i := 0; i < 3; i++ {
		if !rl.Allow("isp1", now) {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if rl.Allow("isp1", now) {
		t.Error("4th immediate request allowed")
	}
	if !rl.Allow("isp1", now.Add(time.Second)) {
		t.Error("request after refill denied")
	}
	if rl.Allow("isp1", now.Add(time.Second)) {
		t.Error("only one token should have refilled")
	}
}

func TestRateLimiterPerKey(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	now := time.Unix(100, 0)
	if !rl.Allow("a", now) || !rl.Allow("b", now) {
		t.Error("separate keys should have separate buckets")
	}
	if rl.Allow("a", now) {
		t.Error("key a should be exhausted")
	}
}

func TestRateLimiterCapsAtBurst(t *testing.T) {
	rl := NewRateLimiter(100, 2)
	now := time.Unix(0, 0)
	rl.Allow("k", now)
	// A long quiet period must not accumulate more than burst tokens.
	later := now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 10; i++ {
		if rl.Allow("k", later) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Errorf("allowed %d after idle, want burst=2", allowed)
	}
}

func TestRateLimiterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad limiter params did not panic")
		}
	}()
	NewRateLimiter(0, 1)
}
