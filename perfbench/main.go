// Command perfbench is the repository benchmark. It runs one of three
// closed-loop workloads over the pubsubcd packages and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Workloads:
//
//	sim-paper     the paper's evaluation: both full-scale traces through
//	              every catalog strategy via sim.Run
//	proxy-replay  the in-process service path: broker.Broker plus 100
//	              broker.Proxy running DC-LAP over the full NEWS trace
//	wire-churn    a durable broker behind the TCP server, driven by two
//	              clients, with subscription churn
//
// With --steady N it instead runs itself N times per workload with seeds
// 1..N and prints each end-to-end metric's median, quartiles and spread
// next to the bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is the outcome of one output check.
type check struct {
	name   string
	ok     bool
	detail string
}

// report collects a run's outcome.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	checks            []check
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a check outcome; detail explains a failure.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// outDir receives the span dump of a traced run and the journal
	// directories.
	outDir string
}

// buildDir is where run.sh builds the benchmark; runs write there too.
const buildDir = ".bench_build"

var workloads = map[string]func(options) (*report, error){
	"sim-paper":    runSimPaper,
	"proxy-replay": runProxyReplay,
	"wire-churn":   runWireChurn,
}

func main() {
	name := flag.String("workload", "", "workload: sim-paper, proxy-replay or wire-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 0, "how long the measured phase runs (steadiness mode: default run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	steady := flag.Int("steady", 0, "run each workload this many times (seeds 1..N) and print the spread of every metric")
	flag.Parse()

	// The runtime already defaults to the CPU count; pinning it keeps the
	// setting explicit and independent of GOMAXPROCS in the environment.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *steady > 0 {
		if err := runSteady("BENCHMARK.json", *name, *steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: buildDir}
	start := time.Now()
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if opts.trace {
		completeLayers(rep)
	}
	for _, c := range rep.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL: " + c.detail
		}
		fmt.Printf("check %-40s %s\n", c.name, status)
	}
	for _, k := range sortedKeys(rep.metrics) {
		m := rep.metrics[k]
		fmt.Printf("metric %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d failed %d wall %.1fs\n", rep.attempted, rep.failed, time.Since(start).Seconds())
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
