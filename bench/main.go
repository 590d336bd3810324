// Command bench is the repository's performance benchmark: it boots the
// real kernel in-process (noded.Start over loopback UDP, or cluster.Build
// on the deterministic simulator), drives it with one seeded generator,
// checks every answer and prints every metric named in BENCHMARK.json.
//
// One measured run, the form the driver uses:
//
//	bench --workload read_closed --seed 1 --seconds 20 --trace 0
//
// The whole suite (every workload, untraced then traced, each in its own
// process) with a JSON report, and the comparison of two such reports:
//
//	bench -workload all -seed 1 -out bench/out/run.json
//	bench -compare a.json b.json
//
// Ten runs of every workload on unchanged code, recorded as the spreads the
// bounds are set from:
//
//	bench -calibrate 10
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runConfig is what one measured run is given.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // where a traced run writes its spans
}

// result is what one measured run produces. values holds every metric the
// run measured, end-to-end and per-layer alike; report picks the set the
// mode asks for.
type result struct {
	attempted int
	failed    int
	values    map[string]float64
	problems  []string // correctness failures; any makes the run incorrect
	notes     []string // diagnostics printed above the result line
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*result, error){
	"read_closed": runReadClosed,
	"mixed_open":  runMixedOpen,
	"jobs_open":   runJobsOpen,
	"sim_faults":  runSimFaults,
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		spin()
		return
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all for the suite")
		seed     = flag.Int64("seed", 1, "generator seed")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out      = flag.String("out", "bench/out/run.json", "suite report path")
		compare  = flag.Bool("compare", false, "compare two suite reports given as arguments")
		calRuns  = flag.Int("calibrate", 0, "run every workload this many times (seeds 1..n) and write bench/calibration.json")
	)
	flag.Parse()
	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *calRuns > 0 {
		if err := calibrate(spec, *calRuns, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if *workload == "all" {
		if err := runSuite(spec, *seed, *seconds, *out); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: filepath.Dir(*out)}
	stopSpinners := keepAwake()
	res, err := run(cfg)
	if err == nil {
		res.note("machine reference: shard.FromView at 32 partitions takes %.0f us right now (422 us in the quietest stretch seen, 645 us in the slowest)", machineReference())
	}
	stopSpinners()
	if err != nil {
		fatal(err)
	}
	line, err := report(os.Stdout, spec, cfg, res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

// The benchmark definition and the calibration, relative to the root of
// the repository, which is where the benchmark is run from.
const (
	specFile        = "BENCHMARK.json"
	calibrationPath = "bench/calibration.json"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line a measured run prints.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run's diagnostics and metric table and returns the
// result line: every end-to-end metric of the definition for an untraced
// run, every per-layer metric for a traced one. An end-to-end metric the
// run did not measure, or a measured name the definition does not list, is
// an error; a per-layer metric the workload does not exercise reads 0.
func report(w io.Writer, spec *benchSpec, cfg runConfig, res *result) (string, error) {
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
	}
	known := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		known[m.Name] = true
	}
	for name, v := range res.values {
		if !known[name] {
			return "", fmt.Errorf("%s measured %q, which BENCHMARK.json does not list", cfg.workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %q is not finite", cfg.workload, name)
		}
	}
	line := runLine{
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := res.values[m.Name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("%s did not measure end-to-end metric %q", cfg.workload, m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "# INCORRECT: "+p)
	}
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := line.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, mv.Value, mv.Unit)
	}
	raw, err := json.Marshal(line)
	return string(raw), err
}
