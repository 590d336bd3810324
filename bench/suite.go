package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/simhost"
)

// workloadReport is one workload's two runs: end-to-end metrics from the
// untraced run, per-layer metrics from the traced one.
type workloadReport struct {
	EndToEnd runLine `json:"end_to_end"`
	PerLayer runLine `json:"per_layer"`
}

// suiteReport is what `bench -workload all` writes: where and on what the
// numbers were taken, every setting the product ran with, every metric of
// every workload. It claims nothing.
type suiteReport struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`

	Params      config.Params     `json:"params"`
	Costs       simhost.Costs     `json:"costs"`
	WireOptions map[string]string `json:"wire_options"`

	Workloads map[string]workloadReport `json:"workloads"`
	Claim     *string                   `json:"claim"`
}

// child runs one measured run of this binary in a process of its own,
// passes its output through and returns its result line.
func child(workload string, seed int64, seconds float64, trace int) (runLine, error) {
	var line runLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	os.Stdout.Write(stdout.Bytes())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s (seed %d, trace %d) printed no result: %v (%v)", workload, seed, trace, err, runErr)
	}
	return line, nil
}

// runSuite runs every workload of the definition, untraced then traced,
// each in a process of its own so that set-up time, the resident-set
// high-water mark and the collector's state never leak from one workload
// into the next.
func runSuite(spec *benchSpec, seed int64, seconds float64, out string) error {
	rep := suiteReport{
		Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		Seed: seed, Seconds: seconds, Quick: seconds < float64(spec.RunSeconds),
		Params: config.FastParams(), Costs: simhost.DefaultCosts(),
		WireOptions: map[string]string{
			"planes": strconv.Itoa(planes), "batch_window": "0 (off)", "everything_else": "wire defaults",
			"sim_planes": "3",
		},
		Workloads: make(map[string]workloadReport),
	}
	incorrect := false
	for _, w := range spec.Workloads {
		var wr workloadReport
		for _, trace := range []int{0, 1} {
			fmt.Printf("== %s (trace %d)\n", w.Name, trace)
			line, err := child(w.Name, seed, seconds, trace)
			if err != nil {
				return err
			}
			incorrect = incorrect || !line.Correct
			if trace == 0 {
				wr.EndToEnd = line
			} else {
				wr.PerLayer = line
			}
		}
		rep.Workloads[w.Name] = wr
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("== report written to %s\n", out)
	if incorrect {
		return fmt.Errorf("a correctness check failed; see the INCORRECT lines above")
	}
	return nil
}

// calibrationFile is bench/calibration.json: how every end-to-end metric
// behaved over repeated untraced runs of unchanged code, one seed each.
type calibrationFile struct {
	Commit   string  `json:"commit"`
	Go       string  `json:"go"`
	NProc    int     `json:"nproc"`
	CPUModel string  `json:"cpu_model"`
	Runs     int     `json:"runs"`
	Seeds    string  `json:"seeds"`
	Seconds  float64 `json:"seconds"`
	// Per workload and metric: the runs' median; the distance between their
	// quartiles (Python's statistics.quantiles, n=4) as a share of it; and
	// their range as a share of it.
	Median map[string]map[string]float64 `json:"median"`
	Spread map[string]map[string]float64 `json:"spread"`
	Range  map[string]map[string]float64 `json:"range"`
}

// calibrate runs every workload untraced once per seed 1..runs and writes
// what it saw. The bounds of BENCHMARK.json are set from this file, and
// -compare reads it to tell "worse" from "cannot tell".
func calibrate(spec *benchSpec, runs int, seconds float64) error {
	cal := calibrationFile{
		Commit: gitCommit(), Go: runtime.Version(), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
		Runs: runs, Seeds: fmt.Sprintf("1..%d", runs), Seconds: seconds,
		Median: map[string]map[string]float64{}, Spread: map[string]map[string]float64{}, Range: map[string]map[string]float64{},
	}
	for _, w := range spec.Workloads {
		values := make(map[string]samples)
		for seed := int64(1); seed <= int64(runs); seed++ {
			fmt.Printf("== %s (seed %d)\n", w.Name, seed)
			line, err := child(w.Name, seed, seconds, 0)
			if err != nil {
				return err
			}
			if !line.Correct {
				return fmt.Errorf("%s seed %d: incorrect run; nothing to calibrate against", w.Name, seed)
			}
			for name, mv := range line.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		cal.Median[w.Name], cal.Spread[w.Name], cal.Range[w.Name] = map[string]float64{}, map[string]float64{}, map[string]float64{}
		for name, v := range values {
			sorted := v.sorted()
			med := (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
			cal.Median[w.Name][name] = med
			cal.Spread[w.Name][name] = quartileSpread(v)
			if med != 0 {
				cal.Range[w.Name][name] = (sorted[len(sorted)-1] - sorted[0]) / med
			}
			fmt.Printf("%-12s %-16s median %14.4f  spread %.3f  range %.3f\n", w.Name, name, med, cal.Spread[w.Name][name], cal.Range[w.Name][name])
		}
	}
	raw, err := json.MarshalIndent(cal, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(calibrationPath, append(raw, '\n'), 0o644)
}
