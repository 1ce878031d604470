package core

import "time"

// CollectorConfig is the one constructor input for A2I collectors. The zero
// value is runnable: anonymous AppP, export-everything policy, 5-minute
// traffic window, seed 0.
type CollectorConfig struct {
	// AppP names the application provider the collector aggregates for.
	AppP string
	// Policy is the default blinding applied to exports.
	Policy ExportPolicy
	// Window sizes the traffic-estimate window (default 5 minutes).
	Window time.Duration
	// Seed feeds the privacy noisers; per-partner streams are derived from
	// it, so runs are reproducible.
	Seed int64
}
