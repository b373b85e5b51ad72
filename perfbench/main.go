// Command perfbench is the repository benchmark. It drives the planner's
// public entry points from one process and prints one JSON result line:
//
//	bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three workloads in turn.
//
// Workloads (see README.md for why each exists and what it loads):
//
//	plan-cold   closed loop, one caller: distinct co-optimization problems
//	            (core.CoOptimize, cluster.Simulate in flow mode), no score cache
//	serve-zipf  two callers in a closed loop, then an open loop at a fixed
//	            rate, against an in-process momentd (/v1/plan, /v1/explain
//	            over loopback HTTP)
//	horizon     closed loop over long-horizon simulations
//	            (trainsim.SimulateDriftEpochs, trainsim.SimulateEpochs)
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 a separate traced run reports the per-layer
// metrics. Inputs are generated from --seed only; output checks run outside
// the timed region, and a failed check makes the run exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run produces.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// info is printed on the line before the result: details a reader
	// needs to interpret the metrics (sample counts, percentiles used,
	// check outcomes) that are not metrics themselves.
	info map[string]any
	// problems lists failed output checks.
	problems []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, info: map[string]any{}}
}

func (r *result) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"plan-cold":  runPlanCold,
	"serve-zipf": runServeZipf,
	"horizon":    runHorizon,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: plan-cold, serve-zipf or horizon")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Load comes from one process at GOMAXPROCS = the usable CPU count.
	runtime.GOMAXPROCS(runtime.NumCPU())

	code := 0
	for _, n := range names {
		if c := runOne(runConfig{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1}); c != 0 {
			code = c
		}
	}
	return code
}

// runOne runs one workload and prints its info and result lines.
func runOne(cfg runConfig) int {
	runner := workloads[cfg.workload]
	start := time.Now()
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res.info["workload"] = cfg.workload
	res.info["seed"] = cfg.seed
	res.info["trace"] = cfg.trace
	res.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.info["cpu"] = cpuModel()
	res.info["go"] = runtime.Version()
	res.info["wall_s"] = time.Since(start).Seconds()
	for name, m := range res.Metrics {
		// JSON has no infinities: a tail past the failed requests (which
		// count as +Inf latency) is reported as -1 and fails the run.
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			res.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	if len(res.problems) > 0 {
		res.info["check_failures"] = res.problems
	}
	info, err := json.Marshal(map[string]any{"info": res.info})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(info))
	fmt.Println(string(line))
	if !res.Correct {
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the CPU model name, or "unknown" off Linux.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
