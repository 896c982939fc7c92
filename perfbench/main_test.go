package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared is the part of BENCHMARK.json this test checks.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

// TestWorkloads runs every workload BENCHMARK.json declares at minimal
// size, untraced and traced. Each run must pass its output checks and
// print exactly the declared metrics with their units, and the
// declarations must match this program's metric table.
func TestWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", d.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", d.PerLayer, perLayer)
	for _, w := range d.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q has no implementation", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			b := newBench(w.Name, 7, time.Millisecond, traced, smallSize)
			run(b)
			rep := b.report()
			if !rep.Correct {
				t.Errorf("%s traced=%t: %d of %d checks failed: %v", w.Name, traced, rep.Failed, rep.Attempted, b.errs)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics printed, %d declared", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s printed as %+v, declared in %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func sameDefs(t *testing.T, key string, decl []declaredMetric, defs []metricDef) {
	t.Helper()
	if len(decl) != len(defs) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, metrics.go %d", key, len(decl), len(defs))
		return
	}
	for i, m := range decl {
		if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json declares %+v, metrics.go %+v", key, i, m, d)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: %s has direction %q", key, m.Name, m.Better)
		}
	}
}
