package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEmitsEveryMetric runs every workload at a tenth of its size,
// untraced and traced, and checks that each run is correct and emits
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(runConfig{workload: wl.Name, seed: 7, trace: trace, smoke: true}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < inputsPerRun {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
					}
				}
			}
		}
	}
}
