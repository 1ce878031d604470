package expt

// The experiment registry is the one place the E-suite is enumerated.
// Callers used to reach for fifteen RunE* functions with drifting
// signatures (some take a seed, some a record count, some a config
// struct); the registry collapses that to a single shape — look up a
// Definition, run it under a Config — while the RunE* functions remain the
// typed per-experiment entry points underneath.

// Config carries every knob an experiment can draw from. Zero value is
// runnable: seed 0.
type Config struct {
	// Seed drives each experiment's private rand.New(rand.NewSource(Seed)).
	// E7 is a wall-clock measurement and ignores it.
	Seed int64
}

// Definition is one registered experiment: its identity plus a Run hook
// taking the shared Config. Definitions are static.
type Definition struct {
	// ID is the short name ("E7") used by eona-bench's -only filter and
	// Lookup.
	ID string
	// Title is the one-line description shown in listings (the table
	// renders its own full heading).
	Title string
	// Slow marks the experiments eona-bench's -skip-slow excludes.
	Slow bool
	// Run executes the experiment under cfg and renders its table.
	Run func(cfg Config) *Table
}

// Definitions returns the full E1–E15 registry in suite order. The slice
// is freshly allocated; callers may filter or reorder it.
func Definitions() []Definition {
	return []Definition{
		{ID: "E1", Title: "flash crowd at the ISP access link (Figure 3)", Slow: true,
			Run: func(c Config) *Table { return RunE1(c.Seed).Table() }},
		{ID: "E2", Title: "independent control loops oscillate; EONA converges (Figure 5)",
			Run: func(c Config) *Table { return RunE2(c.Seed).Table() }},
		{ID: "E3", Title: "inferring QoE from network metrics vs direct A2I (Figure 4)",
			Run: func(c Config) *Table { return RunE3(c.Seed).Table() }},
		{ID: "E4", Title: "server failure — CDN switch vs I2A server hint (§2)", Slow: true,
			Run: func(c Config) *Table { return RunE4(c.Seed).Table() }},
		{ID: "E5", Title: "off-peak server shutdown — energy vs experience (§2/§5)",
			Run: func(c Config) *Table { return RunE5(c.Seed).Table() }},
		{ID: "E6", Title: "control quality vs interface staleness (§5)",
			Run: func(c Config) *Table { return RunE6(c.Seed).Table() }},
		{ID: "E7", Title: "A2I pipeline scalability (§5)", Slow: true,
			Run: func(Config) *Table { return RunE7(0).Table() }},
		{ID: "E8", Title: "interface width vs control quality (§4)",
			Run: func(c Config) *Table { return RunE8(c.Seed).Table() }},
		{ID: "E9", Title: "timescale coupling — undampened vs dampened switching (§5)",
			Run: func(c Config) *Table { return RunE9(c.Seed).Table() }},
		{ID: "E10", Title: "fairness across AppPs sharing one peering (§5)",
			Run: func(c Config) *Table { return RunE10(c.Seed).Table() }},
		{ID: "E11", Title: "A2I volume-estimate blinding vs traffic-split quality (§4)",
			Run: func(c Config) *Table { return RunE11(c.Seed).Table() }},
		{ID: "E12", Title: "information gain over session attributes (§4)",
			Run: func(c Config) *Table { return RunE12(c.Seed).Table() }},
		{ID: "E13", Title: "cellular web experience — inference vs direct A2I (Figs 1a+4)",
			Run: func(c Config) *Table { return RunE13(c.Seed).Table() }},
		{ID: "E14", Title: "exhaustive vs EONA-guided knob search (§5)",
			Run: func(c Config) *Table { return RunE14(c.Seed).Table() }},
		{ID: "E15", Title: "chaos sweep — access flap + partner-exchange outage (§5)",
			Run: func(c Config) *Table { return RunE15(c.Seed).Table() }},
	}
}

// Lookup returns the Definition with the given ID ("E7"), if registered.
func Lookup(id string) (Definition, bool) {
	for _, d := range Definitions() {
		if d.ID == id {
			return d, true
		}
	}
	return Definition{}, false
}
