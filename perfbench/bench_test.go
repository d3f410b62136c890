package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// The benchmark's self-test: every workload at tiny sizes, untraced and
// traced, must answer correctly and report every registered metric; the
// metric tables must match BENCHMARK.json and metrics.json.

var workloadNames = []string{"solve-cold", "solve-exact", "serve-hot", "cluster-mixed"}

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(gomaxprocs)
	os.Exit(m.Run())
}

func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, _, err := run(name, 3, 300*time.Millisecond, traced, "", true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if v := res.Metrics[d.name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
					}
				}
			}
		}
	}
}

// span_mean must repeat exactly at a fixed seed.
func TestSpanMeanRepeats(t *testing.T) {
	var spans []float64
	for i := 0; i < 2; i++ {
		res, _, err := run("solve-cold", 5, 100*time.Millisecond, false, "", true)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, res.Metrics["span_mean"].Value)
	}
	if spans[0] != spans[1] {
		t.Fatalf("span_mean %v then %v at the same seed", spans[0], spans[1])
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, tables %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, table %+v", kind, i, got[i], d)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)

	var doc struct {
		EndToEnd map[string]json.RawMessage `json:"end_to_end"`
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	data, err = os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if doc.EndToEnd[d.name] == nil {
			t.Errorf("metrics.json does not define %s", d.name)
		}
	}
	for _, d := range perLayer {
		if doc.PerLayer[d.name] == nil {
			t.Errorf("metrics.json does not define %s", d.name)
		}
	}
}
