package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// smallSizes shrinks every workload to a few seconds while keeping each
// verdict meaningful: enough runs that the planted predicate already
// ranks first for seed 1.
var smallSizes = map[string]sizes{
	"ccrypt-fleet": {Runs: 1000, Density: 0.1, FleetWorkers: 1, Batch: 64, Submitters: 1, SetupReps: 1,
		MinPasses: 1, IsolatePasses: 2, Orderings: 2},
	"bc-study": {Runs: 1500, Density: 0.2, FleetWorkers: 1, Batch: 64, Submitters: 1, SetupReps: 1,
		MinPasses: 1, IsolatePasses: 1, Orderings: 2},
	"replay-tree": {Runs: 1000, Density: 0.2, FleetWorkers: 2, Batch: 64, Submitters: 2, SetupReps: 1,
		MinPasses: 1, IsolatePasses: 1, Orderings: 2},
}

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at small size, untraced and traced, and
// requires every verdict to pass and every metric BENCHMARK.json names
// to be emitted with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, cw := range c.Workloads {
		w, ok := workloadByName(cw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", cw.Name)
		}
		small := *w
		small.sizes = smallSizes[w.name]
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(&small, 1, 0, traced, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s",
						w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d",
					w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
