package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced. Each must answer correctly, report every metric, and report a
// nonzero value for every per-layer metric of a layer it exercises — a
// layer field that is silently never filled fails here.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range allWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				o, err := w.run(runConfig{seed: defaultSeed, seconds: 0.3, trace: trace, tiny: true})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if o.attempted == 0 || o.failed != 0 || len(o.failures) > 0 {
					t.Fatalf("trace=%v: attempted %d, failed %d: %v", trace, o.attempted, o.failed, o.failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, m := range defs {
					v, ok := o.metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, m.Name)
					case math.IsNaN(v) || math.IsInf(v, 0):
						t.Errorf("trace=%v: metric %s is %v", trace, m.Name, v)
					case !trace && v <= 0:
						t.Errorf("end-to-end metric %s is %v", m.Name, v)
					}
				}
				if len(o.metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, want %d", trace, len(o.metrics), len(defs))
				}
				if !trace {
					continue
				}
				for _, name := range w.exercises {
					if o.metrics[name] == 0 {
						t.Errorf("%s is zero on a workload that exercises its layer", name)
					}
				}
			}
		})
	}
}

// TestExercisesNamePerLayerMetrics keeps the workload→metric mapping in
// step with the metric list.
func TestExercisesNamePerLayerMetrics(t *testing.T) {
	known := make(map[string]bool)
	for _, m := range perLayer {
		known[m.Name] = true
	}
	for _, w := range allWorkloads() {
		for _, name := range w.exercises {
			if !known[name] {
				t.Errorf("%s exercises unknown metric %s", w.name, name)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			bound := 0.0
			if g.Bound != nil {
				bound = *g.Bound
			}
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || bound != m.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v (bound %v), program %+v", kind, i, g, bound, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{0.5, 0.9, 0.7, 0.6}, 0.525, 0.85},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
}
