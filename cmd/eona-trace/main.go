// Command eona-trace generates and inspects workload traces — the synthetic
// stand-in for the production session logs the paper's scenarios come from.
// Traces are CSV (see internal/workload.WriteTrace) so an experiment's exact
// inputs can be archived, diffed and inspected.
//
// Generate a flash-crowd trace:
//
//	eona-trace -profile flashcrowd -peak 1.2 -horizon 14m -out crowd.csv
//
// Generate a diurnal day:
//
//	eona-trace -profile diurnal -mean 5 -horizon 24h -out day.csv
//
// Inspect any trace:
//
//	eona-trace -inspect crowd.csv
//
// Bisect a crash-safe event journal (see internal/journal): replay its op
// log, prefix by prefix, against a fresh serial netsim mirror and report
// the first op whose post-apply state digest disagrees with what the
// journal recorded — the first divergent op. Exits 0 when the whole log
// converges, 1 on divergence:
//
//	eona-trace -bisect /var/lib/eona/sim.journal
//
// Time-travel a journal (see internal/journal.MaterializeAt): rebuild the
// network as it stood after the first N ops — the nearest preceding
// snapshot plus an O(distance) tail replay, not a full-history replay —
// and print its state. -at -1 (the default) means the end of the log:
//
//	eona-trace -journal /var/lib/eona/sim.journal -at 120
//
// Journaled fault events — scripted chaos schedules or interactive
// impairments injected through the eona-lg control plane — are listed
// alongside the materialized state.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"time"

	"eona/internal/journal"
	"eona/internal/workload"
)

// checkFlags rejects the generator flag values no trace can be made from: a
// non-positive horizon, a non-finite or non-positive peak or mean rate, a
// non-finite or negative base rate, and a flash crowd whose base exceeds
// its peak.
func checkFlags(profile string, base, peak, mean float64, horizon time.Duration) error {
	switch {
	case horizon <= 0:
		return fmt.Errorf("-horizon must be positive, got %v", horizon)
	case math.IsNaN(peak) || math.IsInf(peak, 0) || peak <= 0:
		return fmt.Errorf("-peak must be a finite positive rate, got %v", peak)
	case math.IsNaN(mean) || math.IsInf(mean, 0) || mean <= 0:
		return fmt.Errorf("-mean must be a finite positive rate, got %v", mean)
	case math.IsNaN(base) || math.IsInf(base, 0) || base < 0:
		return fmt.Errorf("-base must be a finite rate ≥ 0, got %v", base)
	case profile == "flashcrowd" && base > peak:
		return fmt.Errorf("-base must not exceed -peak for a flash crowd, got %v > %v", base, peak)
	}
	return nil
}

func main() {
	profile := flag.String("profile", "flashcrowd", "workload profile: flashcrowd | diurnal | constant")
	base := flag.Float64("base", 0.12, "base arrival rate (sessions/s)")
	peak := flag.Float64("peak", 1.2, "flash-crowd peak rate (sessions/s)")
	mean := flag.Float64("mean", 1.0, "diurnal/constant mean rate (sessions/s)")
	horizon := flag.Duration("horizon", 14*time.Minute, "trace duration")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output CSV path (default stdout)")
	inspect := flag.String("inspect", "", "inspect an existing trace instead of generating")
	bisect := flag.String("bisect", "", "bisect an event journal's op log against a serial replay mirror")
	jdir := flag.String("journal", "", "materialize a network from an event journal (use with -at)")
	at := flag.Int("at", -1, "op index to materialize the journaled network at (-1 = end of log)")
	flag.Parse()

	if *jdir != "" {
		if err := materializeJournal(os.Stdout, *jdir, *at); err != nil {
			log.Fatalf("eona-trace: %v", err)
		}
		return
	}

	if *bisect != "" {
		diverged, err := bisectJournal(os.Stdout, *bisect)
		if err != nil {
			log.Fatalf("eona-trace: %v", err)
		}
		if diverged {
			os.Exit(1)
		}
		return
	}

	if *inspect != "" {
		if err := inspectTrace(*inspect); err != nil {
			log.Fatalf("eona-trace: %v", err)
		}
		return
	}

	if err := checkFlags(*profile, *base, *peak, *mean, *horizon); err != nil {
		log.Fatalf("eona-trace: %v", err)
	}

	var rate workload.RateFunc
	var maxRate float64
	switch *profile {
	case "flashcrowd":
		fc := workload.FlashCrowd{
			Base: *base, Peak: *peak,
			Start: *horizon / 5, RampUp: 30 * time.Second,
			Hold: *horizon / 2, Down: time.Minute,
		}
		rate, maxRate = fc.Rate(), *peak
	case "diurnal":
		d := workload.Diurnal{Mean: *mean, Amplitude: *mean * 0.7, Period: 24 * time.Hour}
		rate, maxRate = d.Rate(), *mean*1.7
	case "constant":
		rate, maxRate = workload.Constant(*mean), *mean
	default:
		log.Fatalf("eona-trace: unknown profile %q", *profile)
	}

	rng := rand.New(rand.NewSource(*seed))
	sessions := workload.Generate(rng, workload.Spec{
		Rate:    rate,
		MaxRate: maxRate,
		Horizon: *horizon,
		Groups:  workload.NewWeightedChoice([]string{"isp-a", "isp-b", "isp-c"}, []float64{5, 3, 2}),
	})

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("eona-trace: %v", err)
		}
		defer f.Close()
		dst = f
	}
	if err := workload.WriteTrace(dst, sessions); err != nil {
		log.Fatalf("eona-trace: %v", err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "eona-trace: wrote %d sessions to %s\n", len(sessions), *out)
	}
}

// materializeJournal rebuilds the journaled network as it stood after the
// first at ops (-1 = the whole log) and prints a summary of the rebuilt
// state. The heavy lifting is journal.MaterializeAt: newest snapshot at or
// before the index, then an O(distance) tail replay, each replayed op
// verified against the digest the journal recorded.
func materializeJournal(w io.Writer, dir string, at int) error {
	rec, err := journal.Recover(dir)
	if err != nil {
		return err
	}
	if at < 0 || at > len(rec.Ops) {
		at = len(rec.Ops)
	}
	net, tail, err := rec.MaterializeAt(at)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "journal      : %s\n", dir)
	fmt.Fprintf(w, "ops          : %d (%d records in %d segments)\n", len(rec.Ops), len(rec.Stream), rec.Segments)
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(w, "torn tail    : %d bytes discarded\n", rec.TruncatedBytes)
	}
	fmt.Fprintf(w, "materialized : op %d\n", at)
	if tail < at {
		fmt.Fprintf(w, "snapshot     : imported at op %d, replayed %d tail ops\n", at-tail, tail)
	} else {
		fmt.Fprintf(w, "snapshot     : none usable, replayed all %d ops\n", tail)
	}
	snap := net.Snapshot()
	fmt.Fprintf(w, "network      : %d flows over %d links\n", snap.NumFlows(), net.Topology().NumLinks())
	fmt.Fprintf(w, "digest       : %016x\n", net.StateDigest())
	if len(rec.Faults) > 0 {
		fmt.Fprintf(w, "faults       : %d journaled\n", len(rec.Faults))
		for i, ev := range rec.Faults {
			if len(ev.Changes) == 0 {
				// Empty-changes events annotate partner-exchange
				// impairments (outages, latency spikes) that alter no
				// link capacities.
				fmt.Fprintf(w, "  [%d] at %-10v partner-exchange impairment\n", i, ev.At)
				continue
			}
			for _, ch := range ev.Changes {
				fmt.Fprintf(w, "  [%d] at %-10v link %d -> %.0f bps\n", i, ev.At, ch.Link, ch.Bps)
			}
		}
	}
	return nil
}

// bisectJournal recovers the journal at dir and replays its op log against
// a fresh serial mirror, reporting the first divergent op index. Returns
// whether a divergence was found; errors are setup failures (unreadable or
// topology-less journals), not divergences.
func bisectJournal(w io.Writer, dir string) (diverged bool, err error) {
	rec, err := journal.Recover(dir)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "journal      : %s\n", dir)
	fmt.Fprintf(w, "segments     : %d (%d dropped after a tear)\n", rec.Segments, rec.DroppedSegments)
	fmt.Fprintf(w, "ops          : %d\n", len(rec.Ops))
	if rec.Snapshot != nil {
		fmt.Fprintf(w, "snapshot     : after op %d (%d flows)\n", rec.Snapshot.OpIndex, len(rec.Snapshot.State.Flows))
	} else {
		fmt.Fprintf(w, "snapshot     : none\n")
	}
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(w, "torn tail    : %d bytes discarded\n", rec.TruncatedBytes)
	}
	d, err := rec.Bisect()
	if err != nil {
		return false, err
	}
	if d == nil {
		fmt.Fprintf(w, "bisect       : all %d ops converge — journal reproduces the run\n", len(rec.Ops))
		return false, nil
	}
	fmt.Fprintf(w, "bisect       : FIRST DIVERGENT OP %d\n", d.Index)
	fmt.Fprintf(w, "  op         : %v flow=%d link=%d value=%v links=%v tag=%q\n",
		d.Op.Kind, d.Op.Flow, d.Op.Link, d.Op.Value, d.Op.Links, d.Op.Tag)
	if d.ApplyErr != nil {
		fmt.Fprintf(w, "  apply error: %v\n", d.ApplyErr)
	} else {
		fmt.Fprintf(w, "  digest     : mirror %016x, journal recorded %016x\n", d.Got, d.Want)
	}
	return true, nil
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sessions, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(sessions) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	groups := map[string]int{}
	var totalDur time.Duration
	peak, window := 0, 0
	// Concurrency estimate: sliding count of sessions active at each
	// arrival instant.
	ends := make([]time.Duration, 0, len(sessions))
	for _, s := range sessions {
		groups[s.ClientGroup]++
		totalDur += s.IntendedDuration
		end := s.Arrival + s.IntendedDuration
		ends = append(ends, end)
		window = 0
		for _, e := range ends {
			if e > s.Arrival {
				window++
			}
		}
		if window > peak {
			peak = window
		}
	}
	span := sessions[len(sessions)-1].Arrival
	fmt.Printf("sessions        : %d over %s\n", len(sessions), span.Round(time.Second))
	fmt.Printf("mean duration   : %s\n", (totalDur / time.Duration(len(sessions))).Round(time.Second))
	fmt.Printf("peak concurrency: ≈%d\n", peak)
	fmt.Printf("client groups   :")
	for g, n := range groups {
		fmt.Printf(" %s=%d", g, n)
	}
	fmt.Println()
	return nil
}
