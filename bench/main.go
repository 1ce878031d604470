// Command bench is the served-path benchmark: it assembles an EONA node
// in-process the way cmd/eona-lg wires it, serves it over loopback TCP, and
// drives four workloads against it. See README.md for what each workload and
// metric is for; BENCHMARK.json at the repository root is the contract.
//
//	bash bench/run.sh --workload lg-read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # all four workloads, untraced
//	bash bench/run.sh --trace 1 --trace-out .bench_build/spans.jsonl
//	bash bench/run.sh --selfcheck 3        # A/A: two sets of 3 runs per workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"lg-read", runLGRead},
	{"lg-mixed", runLGMixed},
	{"net-churn", runNetChurn},
	{"sim-arms", runSimArms},
}

// generators is how many closed-loop generator goroutines a workload may run:
// never more than the machine has CPUs, so the generators do not queue behind
// each other and report their own scheduling delay as the program's.
func generators() int { return min(clients, runtime.NumCPU()) }

// dirSet is the journal directories that exist right now, so that every exit
// path — return, failed check, signal, watchdog — can remove them.
type dirSet struct {
	mu   sync.Mutex
	dirs map[string]bool
}

var tempDirs = dirSet{dirs: map[string]bool{}}

func (s *dirSet) add(dir string) {
	s.mu.Lock()
	s.dirs[dir] = true
	s.mu.Unlock()
}

func (s *dirSet) drop(dir string) {
	s.mu.Lock()
	delete(s.dirs, dir)
	s.mu.Unlock()
}

func (s *dirSet) removeAll() {
	s.mu.Lock()
	for dir := range s.dirs {
		os.RemoveAll(dir)
	}
	s.mu.Unlock()
}

// exit removes what the run left on disk and ends the process.
func exit(code int) {
	tempDirs.removeAll()
	os.Exit(code)
}

// document is the last line of standard output.
type document struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name with its unit, then the document as the
// last line.
func report(name string, specs []metricSpec, values map[string]float64, attempted, failed int64) document {
	doc := document{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", name, s.Name)
			doc.Correct = false
			continue
		}
		doc.Metrics[s.Name] = metric{v, s.Unit}
		fmt.Printf("%-10s %-42s %14.4f %s\n", name, s.Name, v, s.Unit)
	}
	line, _ := json.Marshal(doc)
	fmt.Printf("%s\n", line)
	return doc
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		only      = flag.String("workload", "", "workload to run: lg-read, lg-mixed, net-churn or sim-arms (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 20, "length of the timed phase")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1, append the spans as JSON lines to this file")
		maxWall   = flag.Duration("max-wall", 170*time.Second, "watchdog: exit non-zero if the run takes longer")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many invocations per workload and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *only != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			os.Exit(2)
		}
	}
	if *selfcheck > 0 {
		os.Exit(selfCheck(selected, *selfcheck, *seed, *seconds))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		exit(130)
	}()
	env, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "generators": generators(), "seed": *seed, "seconds": *seconds, "trace": *trace,
	})
	fmt.Printf("env %s\n", env)
	if runtime.NumCPU() < clients {
		fmt.Fprintf(os.Stderr, "bench: %d CPU: closed-loop workloads run one generator; lg-mixed and net-churn still need their two roles, which will share it\n", runtime.NumCPU())
	}

	ok := true
	for _, w := range selected {
		// The watchdog covers one workload: the contract's limit is per
		// invocation, and the driver invokes one workload at a time.
		watchdog := time.AfterFunc(*maxWall, func() {
			fmt.Fprintf(os.Stderr, "bench: %s: still running after %v, giving up\n", w.name, *maxWall)
			exit(3)
		})
		var doc document
		var err error
		if *trace == 0 {
			doc, err = runUntraced(w, *seed, *seconds)
		} else {
			doc, err = runTraced(w, *seed, *seconds, *traceOut)
		}
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			exit(1)
		}
		ok = ok && doc.Correct
	}
	if !ok {
		exit(1)
	}
	exit(0)
}

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median, so one slow start does not read as a regression.
const setupRepeats = 5

func runUntraced(w workload, seed int64, seconds float64) (document, error) {
	res, err := w.run(runConfig{seed: seed, seconds: seconds, setups: setupRepeats})
	if err != nil {
		return document{}, err
	}
	return report(w.name, endToEnd, res.e2e, res.attempted, res.failed), nil
}

// runTraced produces every per-layer metric in one invocation. Each layer is
// measured on the workload that has it in its path, so the traced run passes
// over all four workloads with spans on, a fifth of the time each; the named
// workload also gets an untraced pass of the same length first, and the ratio
// of the two throughputs is the tracing overhead.
func runTraced(w workload, seed int64, seconds float64, traceOut string) (document, error) {
	pass := seconds / float64(len(workloads)+1)
	ref, err := w.run(runConfig{seed: seed, seconds: pass, setups: 1})
	if err != nil {
		return document{}, err
	}
	values := map[string]float64{}
	attempted, failed := ref.attempted, ref.failed
	for _, x := range workloads {
		tr := newTracer(x.name)
		res, err := x.run(runConfig{seed: seed, seconds: pass, setups: 1, tr: tr})
		if err != nil {
			return document{}, fmt.Errorf("traced pass over %s: %w", x.name, err)
		}
		for k, v := range res.layer {
			values[k] = v
		}
		attempted += res.attempted
		failed += res.failed
		if x.name == w.name {
			values["bench.trace_overhead_ratio"] = res.e2e["ops_per_s"] / ref.e2e["ops_per_s"]
			values["bench.spans"] = float64(tr.count())
		}
		if traceOut != "" {
			if err := tr.writeTo(traceOut); err != nil {
				return document{}, err
			}
		}
	}
	return report(w.name, perLayer, values, attempted, failed), nil
}
