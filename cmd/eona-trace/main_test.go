package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const (
		base = 0.12
		peak = 1.2
		mean = 1.0
		h    = 14 * time.Minute
	)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name             string
		profile          string
		base, peak, mean float64
		horizon          time.Duration
		wantErr          string // "" = accepted
	}{
		{"defaults", "flashcrowd", base, peak, mean, h, ""},
		{"diurnal day", "diurnal", base, peak, mean, 24 * time.Hour, ""},
		{"constant", "constant", base, peak, mean, h, ""},
		{"zero base", "flashcrowd", 0, peak, mean, h, ""},
		{"base above peak off flash crowd", "diurnal", 2, 0.5, mean, h, ""},
		{"NaN peak", "flashcrowd", base, nan, mean, h, "-peak"},
		{"infinite peak", "flashcrowd", base, inf, mean, h, "-peak"},
		{"negative peak", "flashcrowd", base, -1, mean, h, "-peak"},
		{"NaN mean", "diurnal", base, peak, nan, h, "-mean"},
		{"infinite mean", "constant", base, peak, inf, h, "-mean"},
		{"zero mean", "constant", base, peak, 0, h, "-mean"},
		{"base above peak", "flashcrowd", 2, 0.5, mean, h, "-base"},
		{"negative base", "flashcrowd", -5, peak, mean, h, "-base"},
		{"NaN base", "flashcrowd", nan, peak, mean, h, "-base"},
		{"negative horizon", "flashcrowd", base, peak, mean, -time.Minute, "-horizon"},
		{"zero horizon", "flashcrowd", base, peak, mean, 0, "-horizon"},
	}
	for _, c := range cases {
		err := checkFlags(c.profile, c.base, c.peak, c.mean, c.horizon)
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
