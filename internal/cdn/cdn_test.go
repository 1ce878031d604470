package cdn

import (
	"errors"
	"testing"
	"time"
)

func testCluster() *Cluster {
	return NewCluster("east", 3, 10, 100, 2*time.Second)
}

func TestNewClusterShape(t *testing.T) {
	c := testCluster()
	if len(c.Servers) != 3 {
		t.Fatalf("servers = %d, want 3", len(c.Servers))
	}
	if c.TotalCapacity() != 30 {
		t.Errorf("capacity = %d, want 30", c.TotalCapacity())
	}
	if c.Servers[0].ID != "east-s00" {
		t.Errorf("server ID = %q", c.Servers[0].ID)
	}
}

func TestPickServerLeastLoaded(t *testing.T) {
	c := testCluster()
	// Put 2 sessions on s00, 1 on s01.
	c.Servers[0].active = 2
	c.Servers[1].active = 1
	s, err := c.PickServer()
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "east-s02" {
		t.Errorf("picked %q, want east-s02 (empty)", s.ID)
	}
}

func TestPickServerTieBreakByID(t *testing.T) {
	c := testCluster()
	s, err := c.PickServer()
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "east-s00" {
		t.Errorf("tie-break picked %q, want east-s00", s.ID)
	}
}

func TestPickServerSkipsUnavailable(t *testing.T) {
	c := testCluster()
	c.Servers[0].SetHealthy(false)
	c.Servers[1].SetAsleep(true)
	s, err := c.PickServer()
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "east-s02" {
		t.Errorf("picked %q, want east-s02", s.ID)
	}
	c.Servers[2].active = 10 // full
	if _, err := c.PickServer(); !errors.Is(err, ErrNoServer) {
		t.Errorf("err = %v, want ErrNoServer", err)
	}
}

// activeSessions sums active sessions across the cluster's servers.
func activeSessions(c *Cluster) int {
	total := 0
	for _, s := range c.Servers {
		total += s.active
	}
	return total
}

func TestAssignAndRelease(t *testing.T) {
	c := testCluster()
	a, err := c.Assign(ContentID(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.CacheHit {
		t.Error("cold cache should miss")
	}
	if a.StartupPenalty != 2*time.Second {
		t.Errorf("penalty = %v, want 2s", a.StartupPenalty)
	}
	if activeSessions(c) != 1 {
		t.Errorf("active = %d, want 1", activeSessions(c))
	}
	b, err := c.Assign(ContentID(7))
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit || b.StartupPenalty != 0 {
		t.Error("second request for same content should hit with no penalty")
	}
	a.Release()
	b.Release()
	if activeSessions(c) != 0 {
		t.Errorf("active after release = %d, want 0", activeSessions(c))
	}
	a.Release() // double release is a no-op
	if activeSessions(c) != 0 {
		t.Error("double release decremented")
	}
	var nilA *Assignment
	nilA.Release()
}

func TestAssignToUnavailableServer(t *testing.T) {
	c := testCluster()
	c.Servers[0].SetHealthy(false)
	if _, err := c.AssignTo(c.Servers[0], 1); !errors.Is(err, ErrNoServer) {
		t.Errorf("err = %v, want ErrNoServer", err)
	}
}

func TestAlternativesSortedByLoad(t *testing.T) {
	c := testCluster()
	c.Servers[0].active = 5
	c.Servers[1].active = 2
	alts := c.Alternatives(c.Servers[2])
	if len(alts) != 2 {
		t.Fatalf("alternatives = %d, want 2", len(alts))
	}
	if alts[0].ID != "east-s01" || alts[1].ID != "east-s00" {
		t.Errorf("order = %s,%s want east-s01,east-s00", alts[0].ID, alts[1].ID)
	}
	c.Servers[1].SetHealthy(false)
	if got := c.Alternatives(c.Servers[2]); len(got) != 1 {
		t.Errorf("alternatives with failed server = %d, want 1", len(got))
	}
}

func TestClusterLoadAndSleep(t *testing.T) {
	c := testCluster()
	c.Servers[0].active = 10
	c.Servers[1].active = 5
	if got := c.TotalCapacity(); got != 30 {
		t.Errorf("capacity = %d, want 30", got)
	}
	c.Servers[2].SetAsleep(true)
	// capacity drops to 20 while its 15 sessions stay on the awake servers
	if got := c.TotalCapacity(); got != 20 {
		t.Errorf("capacity after sleep = %d, want 20", got)
	}
	if c.AwakeServers() != 2 {
		t.Errorf("awake = %d, want 2", c.AwakeServers())
	}
	for _, s := range c.Servers {
		s.SetAsleep(true)
	}
	if c.TotalCapacity() != 0 {
		t.Error("all-asleep cluster should have no capacity")
	}
}

func TestConstructorValidation(t *testing.T) {
	cases := []func(){
		func() { NewServer("s", 0) },
		func() { NewCluster("c", 0, 1, 1, 0) },
	}
	for i, fn := range cases {
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
