package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"eona"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want eona.Mode
		err  bool
	}{
		{"baseline", eona.ModeBaseline, false},
		{"base", eona.ModeBaseline, false},
		{"BASELINE", eona.ModeBaseline, false},
		{"eona", eona.ModeEONA, false},
		{"EONA", eona.ModeEONA, false},
		{"whatever", eona.ModeBaseline, true},
		{"", eona.ModeBaseline, true},
	}
	for _, c := range cases {
		got, err := parseMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseMode(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Errorf("parseMode(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTraceString(t *testing.T) {
	if got := traceString(nil); got != "(empty)" {
		t.Errorf("empty trace = %q", got)
	}
	if got := traceString([]string{"B", "C"}); got != "B C" {
		t.Errorf("short trace = %q", got)
	}
	long := make([]string, 40)
	for i := range long {
		long[i] = "B"
	}
	got := traceString(long)
	if !strings.Contains(got, "40 decisions total") {
		t.Errorf("long trace = %q, want elision note", got)
	}
	if strings.Count(got, "B") != 16 {
		t.Errorf("long trace shows %d entries, want 16", strings.Count(got, "B"))
	}
}

func TestCheckFlags(t *testing.T) {
	const (
		h = time.Hour
		e = time.Minute
	)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name           string
		horizon, epoch time.Duration
		staleness      time.Duration
		noise, demand  float64
		wantErr        string // "" = accepted
	}{
		{"defaults", h, e, 0, 0, 150e6, ""},
		{"stale noisy", 20 * time.Minute, 2 * e, 5 * e, 0.5, 80e6, ""},
		{"negative epoch", h, -time.Second, 0, 0, 150e6, "-epoch"},
		{"zero epoch", h, 0, 0, 0, 150e6, "-epoch"},
		{"negative horizon", -h, e, 0, 0, 150e6, "-horizon"},
		{"zero horizon", 0, e, 0, 0, 150e6, "-horizon"},
		{"negative staleness", h, e, -5 * e, 0, 150e6, "-staleness"},
		{"negative noise", h, e, 0, -1, 150e6, "-noise"},
		{"NaN noise", h, e, 0, nan, 150e6, "-noise"},
		{"infinite noise", h, e, 0, inf, 150e6, "-noise"},
		{"NaN demand", h, e, 0, 0, nan, "-demand"},
		{"negative demand", h, e, 0, 0, -1e9, "-demand"},
		{"zero demand", h, e, 0, 0, 0, "-demand"},
		{"infinite demand", h, e, 0, 0, inf, "-demand"},
	}
	for _, c := range cases {
		err := checkFlags(c.horizon, c.epoch, c.staleness, c.noise, c.demand)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want a %s error", c.name, c.wantErr)
		case c.wantErr != "" && !strings.HasPrefix(err.Error(), c.wantErr+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.wantErr)
		}
	}
}
