package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The sweep workload is not in BENCHMARK.json, so this test is what
// runs its issuing path: a short bag, untraced and traced, must pass
// the oracle with every call answered and print every metric.
func TestSweepRunsEndToEnd(t *testing.T) {
	bin := buildAll(t)
	for _, trace := range []string{"0", "1"} {
		t.Run("trace="+trace, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, "perfbench"), "-bin", bin, "-work", t.TempDir(),
				"--workload", "sweep", "--seed", "7", "--seconds", "1", "--trace", trace)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("sweep run: %v\n%s", err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			want := endToEndMetrics
			if trace == "1" {
				want = perLayerMetrics
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != workloads["sweep"].bagPerSecond {
				t.Errorf("correct %v, attempted %d, failed %d; want every one of %d calls answered",
					res.Correct, res.Attempted, res.Failed, workloads["sweep"].bagPerSecond)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
			}
			for _, d := range want {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
		})
	}
}
