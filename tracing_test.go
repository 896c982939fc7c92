package evm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// TestTraceExportByteIdentical is the observability determinism
// guarantee: the same (scenario, seed) pair produces byte-identical
// Chrome trace JSON on every run, and a different seed produces a
// different trace.
func TestTraceExportByteIdentical(t *testing.T) {
	run := func(seed uint64) []byte {
		res := (&Runner{Workers: 1, Trace: true}).RunOne(RunSpec{
			Scenario: ScenarioCampusFailover, Seed: seed, Horizon: 20 * time.Second,
		})
		if res.Err != nil {
			t.Fatalf("seed %d: %v", seed, res.Err)
		}
		if len(res.TraceJSON) == 0 {
			t.Fatalf("seed %d: no trace recorded", seed)
		}
		return res.TraceJSON
	}
	a, b := run(3), run(3)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed trace exports differ")
	}
	if bytes.Equal(a, run(4)) {
		t.Fatal("different seeds produced identical traces")
	}
	// The export must be a loadable Chrome trace: a traceEvents array of
	// events with phases, names and timestamps.
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(a, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	wantNames := map[string]bool{"slot": false, "frame": false, "tx": false, "escalation": false}
	for _, ev := range trace.TraceEvents {
		if _, ok := wantNames[ev.Name]; ok {
			wantNames[ev.Name] = true
		}
	}
	for name, seen := range wantNames {
		if !seen {
			t.Errorf("trace missing %q spans", name)
		}
	}
}

// TestRunnerTraceParallelMatchesSerial extends the multi-core guarantee
// to the observability surface: span-derived metrics and trace bytes
// are identical whether runs execute on one worker or eight.
func TestRunnerTraceParallelMatchesSerial(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioCampusFailover, ScenarioEightController},
		[]uint64{1, 2},
		[]FaultPlan{{}, crashNode2()},
		20*time.Second)
	serial := (&Runner{Workers: 1, Trace: true}).Run(specs)
	parallel := (&Runner{Workers: 8, Trace: true}).Run(specs)
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s: serial err %v, parallel err %v",
				specs[i].Label(), serial[i].Err, parallel[i].Err)
		}
		if !bytes.Equal(serial[i].TraceJSON, parallel[i].TraceJSON) {
			t.Fatalf("%s: trace bytes diverge between serial and parallel", specs[i].Label())
		}
		for k, v := range serial[i].Metrics {
			if pv := parallel[i].Metrics[k]; pv != v {
				t.Fatalf("%s: metric %s = %v serial vs %v parallel", specs[i].Label(), k, v, pv)
			}
		}
	}
}

// TestTraceMetricsFlowIntoRunner checks that span-derived latency
// percentiles land in RunResult.Metrics under span_<name>_* keys.
func TestTraceMetricsFlowIntoRunner(t *testing.T) {
	res := (&Runner{Workers: 1, Trace: true}).RunOne(RunSpec{
		Scenario: ScenarioCampusFailover, Seed: 1, Horizon: 30 * time.Second,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, key := range []string{
		"span_slot_count", "span_slot_p95_ms",
		"span_frame_p50_ms", "span_tx_p99_ms",
		"span_escalation_count", "span_actuation-interval_p50_ms",
	} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	if n := res.Metrics["span_escalation_count"]; n < 1 {
		t.Errorf("span_escalation_count = %v, want >= 1 (west crash escalates to east)", n)
	}
	// Tracing off: no span metrics, no trace bytes.
	off := (&Runner{Workers: 1}).RunOne(RunSpec{
		Scenario: ScenarioCampusFailover, Seed: 1, Horizon: 30 * time.Second,
	})
	if off.Err != nil {
		t.Fatal(off.Err)
	}
	if len(off.TraceJSON) != 0 {
		t.Error("trace recorded with Trace unset")
	}
	for k := range off.Metrics {
		if len(k) > 5 && k[:5] == "span_" {
			t.Errorf("span metric %s present with Trace unset", k)
		}
	}
}

// TestAggregatePercentiles pins the Aggregate summary statistics,
// including the p50/p95/p99 columns, to the nearest-rank convention.
func TestAggregatePercentiles(t *testing.T) {
	results := make([]RunResult, 100)
	for i := range results {
		results[i] = RunResult{
			Spec:    RunSpec{Scenario: "synthetic", Seed: uint64(i + 1)},
			Metrics: map[string]float64{"lat": float64(i + 1)},
		}
	}
	sum, ok := Aggregate(results)["synthetic"]["lat"]
	if !ok {
		t.Fatal("aggregate missing synthetic/lat")
	}
	if sum.N != 100 || sum.Min != 1 || sum.Max != 100 || sum.Mean != 50.5 {
		t.Fatalf("basic stats off: %+v", sum)
	}
	if sum.P50 != 50 || sum.P95 != 95 || sum.P99 != 99 {
		t.Fatalf("percentiles off: p50=%v p95=%v p99=%v", sum.P50, sum.P95, sum.P99)
	}
	want := "n=100 mean=50.500 min=1.000 max=100.000 p50=50.000 p95=95.000 p99=99.000"
	if got := sum.String(); got != want {
		t.Fatalf("summary string = %q, want %q", got, want)
	}
}

func TestSummarize(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	st := Summarize(vals)
	if st.N != 5 || st.Min != 1 || st.Max != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-3) > 1e-9 {
		t.Fatalf("mean = %f", st.Mean)
	}
	if st.P50 != 3 {
		t.Fatalf("p50 = %f", st.P50)
	}
	if st.P99 != 5 {
		t.Fatalf("p99 = %f", st.P99)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if st := Summarize(nil); st.N != 0 {
		t.Fatal("empty stats not zero")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if p := percentile(sorted, 0.5); p != 50 {
		t.Fatalf("p50 = %f", p)
	}
	if p := percentile(sorted, 0.95); p != 100 {
		t.Fatalf("p95 = %f", p)
	}
	if p := percentile(sorted, 0.01); p != 10 {
		t.Fatalf("p1 = %f", p)
	}
}

// TestRunnerHostStats checks the host-side accounting: wall time and
// allocation deltas are recorded outside Metrics, so enabling them
// cannot perturb the deterministic surface.
func TestRunnerHostStats(t *testing.T) {
	spec := RunSpec{Scenario: ScenarioEightController, Seed: 1, Horizon: 10 * time.Second}
	with := (&Runner{Workers: 1, HostStats: true}).RunOne(spec)
	without := (&Runner{Workers: 1}).RunOne(spec)
	if with.Err != nil || without.Err != nil {
		t.Fatalf("errs: %v / %v", with.Err, without.Err)
	}
	if with.HostWallMS <= 0 {
		t.Errorf("HostWallMS = %v, want > 0", with.HostWallMS)
	}
	if without.HostWallMS != 0 || without.HostAllocBytes != 0 {
		t.Error("host stats recorded without HostStats")
	}
	if fmt.Sprint(with.Metrics) != fmt.Sprint(without.Metrics) {
		t.Error("HostStats changed the deterministic metrics map")
	}
}
