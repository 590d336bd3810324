package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadCalibration(path string) calibrationFile {
	var c calibrationFile
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &c) // a missing or unreadable calibration only disables "unresolved"
	}
	return c
}

func loadReport(path string) (*suiteReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteReport
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges b against a for one end-to-end metric: ok when b is no
// worse than a by more than bound (a share of a), worse when it is, and
// unresolved when the metric's own run-to-run spread is wider than the
// bound, so a single pair of runs cannot tell.
func verdict(m metricDef, a, b, spread float64) (worseBy float64, v string) {
	if a != 0 {
		worseBy = (b - a) / a
	}
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case worseBy <= m.Bound:
		return worseBy, "ok"
	case spread > m.Bound:
		return worseBy, "unresolved"
	default:
		return worseBy, "worse"
	}
}

// compareReports prints, per workload and metric, both values, how much
// worse the second is and the bound, and reports whether any end-to-end
// metric is worse.
func compareReports(w io.Writer, spec *benchSpec, cal calibrationFile, a, b *suiteReport) bool {
	anyWorse := false
	for _, wl := range spec.Workloads {
		ra, oka := a.Workloads[wl.Name]
		rb, okb := b.Workloads[wl.Name]
		if !oka || !okb {
			fmt.Fprintf(w, "%s: missing from a report\n", wl.Name)
			anyWorse = true
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd.Metrics[m.Name].Value, rb.EndToEnd.Metrics[m.Name].Value
			worseBy, v := verdict(m, va, vb, cal.Spread[wl.Name][m.Name])
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "  %-28s %14.4f %14.4f %-6s worse by %+7.2f%%  bound %5.1f%%  %s\n",
				m.Name, va, vb, m.Unit, 100*worseBy, 100*m.Bound, v)
		}
		if !ra.EndToEnd.Correct || !rb.EndToEnd.Correct || rb.EndToEnd.Failed > ra.EndToEnd.Failed {
			fmt.Fprintf(w, "  correctness: a correct=%v failed=%d, b correct=%v failed=%d  worse\n",
				ra.EndToEnd.Correct, ra.EndToEnd.Failed, rb.EndToEnd.Correct, rb.EndToEnd.Failed)
			anyWorse = true
		}
		for _, m := range spec.PerLayer {
			va, vb := ra.PerLayer.Metrics[m.Name].Value, rb.PerLayer.Metrics[m.Name].Value
			if va == 0 && vb == 0 {
				continue // a layer the workload leaves idle
			}
			diff := 0.0
			if va != 0 {
				diff = 100 * (vb - va) / va
			}
			fmt.Fprintf(w, "  %-28s %14.4f %14.4f %-6s %+8.2f%%\n", m.Name, va, vb, m.Unit, diff)
		}
	}
	return anyWorse
}

func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	cal := loadCalibration(calibrationPath)
	return compareReports(w, spec, cal, a, b), nil
}
