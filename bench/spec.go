package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric of BENCHMARK.json. Bound, present on end-to-end
// metrics only, is the share of the parent's median by which the metric
// may get worse before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec mirrors BENCHMARK.json, the single list of workloads and
// metric names the harness reports against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: incomplete benchmark definition", path)
	}
	return &s, nil
}
