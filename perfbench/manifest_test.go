package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the
// workloads and metrics this driver runs and prints.
func TestManifestMatchesDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Command, []string{"bash", "perfbench/run.sh"}) || !slices.Equal(m.Paths, []string{"perfbench"}) {
		t.Errorf("command %q, paths %q", m.Command, m.Paths)
	}
	// The driver may run more workloads than the manifest gates.
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q (why %d chars) does not match the driver", w.Name, len(w.Why))
		}
	}
	if len(m.Workloads) < 2 {
		t.Errorf("manifest lists %d workloads, want at least 2", len(m.Workloads))
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d printed", kind, len(got), len(want))
			return
		}
		setupBound, maxBound := 0.0, 0.0
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %s %s %s, driver prints %s %s %s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: %s bound presence wrong", kind, g.Name)
				continue
			}
			if bounded {
				if *g.Bound <= 0 || *g.Bound > 0.25 {
					t.Errorf("%s: bound %v out of (0, 0.25]", g.Name, *g.Bound)
				}
				maxBound = max(maxBound, *g.Bound)
				if g.Name == "setup_s" {
					setupBound = *g.Bound
				}
			}
		}
		if bounded && setupBound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
		}
	}
	check("end_to_end", m.EndToEnd, endToEndMetrics, true)
	check("per_layer", m.PerLayer, perLayerMetrics, false)
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}
