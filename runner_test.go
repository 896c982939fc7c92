package evm

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// crashNode2 works across the built-in scenarios: node 2 is Ctrl-A in the
// gas plant, the first primary in the eight-controller cell, and ctrl1 in
// the capacity scenario.
func crashNode2() FaultPlan {
	return FaultPlan{
		Name:  "crash-2",
		Steps: []FaultStep{{At: 10 * time.Second, CrashNode: 2}},
	}
}

func TestSpecGridCrossProduct(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioGasPlant, ScenarioCapacity},
		[]uint64{1, 2, 3},
		[]FaultPlan{{}, crashNode2()},
		30*time.Second)
	if len(specs) != 12 {
		t.Fatalf("grid size = %d, want 2x3x2 = 12", len(specs))
	}
	// No plans means one fault-free run per pair.
	specs = SpecGrid([]string{ScenarioCapacity}, []uint64{1, 2}, nil, 0)
	if len(specs) != 2 {
		t.Fatalf("plan-free grid size = %d, want 2", len(specs))
	}
	for _, s := range specs {
		if len(s.Faults.Steps) != 0 {
			t.Fatalf("plan-free grid spec %s carries fault steps", s.Label())
		}
	}
}

// TestRunnerParallelMatchesSerial is the multi-core guarantee: a 16-run
// scenario x seed x fault-plan grid produces identical per-run metrics
// whether executed on one worker or many.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioEightController, ScenarioCapacity},
		[]uint64{1, 2, 3, 4},
		[]FaultPlan{{}, crashNode2()},
		30*time.Second)
	if len(specs) < 16 {
		t.Fatalf("grid has %d runs, want >= 16", len(specs))
	}
	serial := (&Runner{Workers: 1}).Run(specs)
	parallel := (&Runner{Workers: 8}).Run(specs)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		if serial[i].Err != nil {
			t.Fatalf("%s: serial run failed: %v", specs[i].Label(), serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("%s: parallel run failed: %v", specs[i].Label(), parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("%s: metrics diverge between serial and parallel:\n  serial:   %v\n  parallel: %v",
				specs[i].Label(), serial[i].Metrics, parallel[i].Metrics)
		}
	}
}

func TestRunnerAggregatesFailoverMetrics(t *testing.T) {
	specs := SpecGrid(
		[]string{ScenarioEightController},
		[]uint64{1, 2},
		[]FaultPlan{crashNode2()},
		30*time.Second)
	results := (&Runner{Workers: 4}).Run(specs)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Label(), r.Err)
		}
		if r.Metrics[MetricFailovers] < 1 {
			t.Fatalf("%s: no failover recorded after crashing the primary", r.Spec.Label())
		}
		first, ok := r.Metrics[MetricFirstFailoverS]
		if !ok || first <= 10 {
			t.Fatalf("%s: first failover at %.2fs, want after the 10s crash", r.Spec.Label(), first)
		}
	}
	agg := Aggregate(results)
	sum, ok := agg[ScenarioEightController]
	if !ok {
		t.Fatal("aggregate missing the scenario")
	}
	if fo := sum[MetricFailovers]; fo.N != len(specs) || fo.Min < 1 {
		t.Fatalf("aggregate failovers = %+v", fo)
	}
	// Coverage survives the crash thanks to the backup.
	if cov := sum["coverage"]; cov.Min != 1 {
		t.Fatalf("coverage dropped below 1: %+v", cov)
	}
}

func TestRunnerUnknownScenario(t *testing.T) {
	results := (&Runner{}).Run([]RunSpec{{Scenario: "no-such-thing", Seed: 1}})
	if len(results) != 1 || results[0].Err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestRunnerRejectsEmptyExperiment: a custom builder that returns no
// cell or campus fails its run instead of panicking the worker.
func TestRunnerRejectsEmptyExperiment(t *testing.T) {
	for _, exp := range []*Experiment{nil, {}} {
		r := Runner{Build: func(RunSpec) (*Experiment, error) { return exp, nil }}
		if res := r.RunOne(RunSpec{Scenario: "empty", Seed: 1}); res.Err == nil {
			t.Fatalf("experiment %v ran without a cell or campus", exp)
		}
	}
}

// TestScenarioTableHoldsBuiltins: the fixed scenario table lists the
// built-in scenarios and resolves their builders by name.
func TestScenarioTableHoldsBuiltins(t *testing.T) {
	found := false
	for _, name := range Scenarios() {
		if name == ScenarioGasPlant {
			found = true
		}
		if build, err := LookupScenario(name); err != nil || build == nil {
			t.Fatalf("LookupScenario(%q): nil builder or %v", name, err)
		}
	}
	if !found {
		t.Fatalf("built-in scenario missing from %v", Scenarios())
	}
	if _, err := LookupScenario("no-such-thing"); err == nil {
		t.Fatal("unknown scenario resolved")
	}
}

// TestCampusScenariosRefuseUnknownPolicy: every built-in scenario that
// builds a campus refuses a RunSpec.Policy naming no built-in placement
// policy, rather than silently running another one.
func TestCampusScenariosRefuseUnknownPolicy(t *testing.T) {
	campuses := 0
	for _, name := range Scenarios() {
		exp, err := BuildScenario(RunSpec{Scenario: name, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		isCampus := exp.Campus != nil
		if exp.Cleanup != nil {
			exp.Cleanup()
		}
		if !isCampus {
			continue
		}
		campuses++
		exp, err = BuildScenario(RunSpec{Scenario: name, Seed: 1, Policy: "no-such-policy"})
		if err == nil {
			t.Fatalf("%s: unknown placement policy accepted", name)
		}
		if !strings.Contains(err.Error(), `unknown placement policy "no-such-policy"`) {
			t.Fatalf("%s: error %v, want the unknown-policy error", name, err)
		}
	}
	if campuses == 0 {
		t.Fatal("no built-in scenario builds a campus")
	}
}
