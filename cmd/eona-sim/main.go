// Command eona-sim runs a parameterized Figure 5 scenario — the AppP's CDN
// choice against the ISP's egress choice — and prints the decision traces,
// so the oscillation (and its EONA fix) can be watched epoch by epoch.
//
// Usage:
//
//	eona-sim                         # both parties baseline: oscillates
//	eona-sim -appp eona -infp eona   # both EONA: converges
//	eona-sim -staleness 5m           # EONA with stale interfaces
//	eona-sim -demand 80e6            # lighter offered load
//	eona-sim -dampening              # baseline loops with backoff+hysteresis
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"eona"
)

func parseMode(s string) (eona.Mode, error) {
	switch strings.ToLower(s) {
	case "baseline", "base":
		return eona.ModeBaseline, nil
	case "eona":
		return eona.ModeEONA, nil
	default:
		return eona.ModeBaseline, fmt.Errorf("unknown mode %q (want baseline or eona)", s)
	}
}

// checkFlags rejects the numeric flag values the scenario cannot run: a
// non-positive horizon or epoch, a negative staleness, and a negative or
// non-finite noise ε or demand (demand must also be positive).
func checkFlags(horizon, epoch, staleness time.Duration, noise, demand float64) error {
	switch {
	case horizon <= 0:
		return fmt.Errorf("-horizon must be positive, got %v", horizon)
	case epoch <= 0:
		return fmt.Errorf("-epoch must be positive, got %v", epoch)
	case staleness < 0:
		return fmt.Errorf("-staleness must not be negative, got %v", staleness)
	case math.IsNaN(noise) || math.IsInf(noise, 0) || noise < 0:
		return fmt.Errorf("-noise must be a finite ε ≥ 0, got %v", noise)
	case math.IsNaN(demand) || math.IsInf(demand, 0) || demand <= 0:
		return fmt.Errorf("-demand must be a finite positive rate, got %v", demand)
	}
	return nil
}

func main() {
	appp := flag.String("appp", "baseline", "AppP control mode: baseline | eona")
	infp := flag.String("infp", "baseline", "InfP control mode: baseline | eona")
	demand := flag.Float64("demand", 150e6, "offered load in bits/s")
	horizon := flag.Duration("horizon", time.Hour, "simulated duration")
	epoch := flag.Duration("epoch", time.Minute, "measurement/control epoch")
	staleness := flag.Duration("staleness", 0, "interface delay for EONA views")
	noise := flag.Float64("noise", 0, "Laplace ε for the A2I volume estimate (0 = exact)")
	dampening := flag.Bool("dampening", false, "wrap both loops in hysteresis + backoff")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	am, err := parseMode(*appp)
	if err != nil {
		log.Fatalf("eona-sim: %v", err)
	}
	im, err := parseMode(*infp)
	if err != nil {
		log.Fatalf("eona-sim: %v", err)
	}
	if err := checkFlags(*horizon, *epoch, *staleness, *noise, *demand); err != nil {
		log.Fatalf("eona-sim: %v", err)
	}

	cfg := eona.ScenarioConfig{
		Seed:         *seed,
		Horizon:      *horizon,
		Epoch:        *epoch,
		Demand:       func(time.Duration) float64 { return *demand },
		AppPMode:     am,
		InfPMode:     im,
		Staleness:    *staleness,
		NoiseEpsilon: *noise,
		Dampening:    *dampening,
	}
	res := eona.RunScenario(cfg)
	oracle := eona.ScenarioOracle(cfg)

	fmt.Printf("scenario: AppP=%s InfP=%s demand=%.0f Mbps staleness=%s dampening=%v\n",
		am, im, *demand/1e6, *staleness, *dampening)
	fmt.Printf("mean QoE score : %.1f (oracle %.1f)\n", res.MeanScore, oracle)
	fmt.Printf("knob switches  : ISP egress %d, AppP CDN %d over %d epochs\n",
		res.ISPSwitches, res.AppPSwitches, res.Epochs)
	if res.Oscillating {
		fmt.Printf("stability      : LIMIT CYCLE, period %d epochs\n", res.CyclePeriod)
	} else {
		fmt.Printf("stability      : converged\n")
	}
	fmt.Printf("egress trace   : %s\n", traceString(res.EgressHistory))
	fmt.Printf("CDN trace      : %s\n", traceString(res.CDNHistory))
	fmt.Printf("QoE timeline   : %s\n", res.Sparkline())
}

// traceString compresses a decision history for display, eliding long
// repeats: "B C B C ... (x30)".
func traceString(h []string) string {
	if len(h) == 0 {
		return "(empty)"
	}
	const maxShow = 16
	if len(h) <= maxShow {
		return strings.Join(h, " ")
	}
	head := strings.Join(h[:maxShow], " ")
	return fmt.Sprintf("%s ... (%d decisions total)", head, len(h))
}
