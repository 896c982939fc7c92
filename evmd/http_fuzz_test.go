package evmd

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"evm"
)

// FuzzFaultPlanSpec decodes arbitrary bytes as a submit body the way the
// handler does. For every request the handler's validation accepts, the
// fault plan it converts to must keep every step's offset and burst
// length in [0, maxHorizonMS] (no wrapped time.Duration), and applying it
// to a freshly built eight-controller experiment must not panic.
func FuzzFaultPlanSpec(f *testing.F) {
	seeds := []SubmitRequest{
		{Tenant: "acme", Scenario: evm.ScenarioEightController, Seed: 1, HorizonMS: 5000},
		{Tenant: "acme", Scenario: evm.ScenarioCapacity, Seeds: []uint64{1, 2, 3}, HorizonMS: 1000},
		{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: maxHorizonMS + 1},
		{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: 1000,
			Faults: &FaultPlanSpec{Steps: []FaultStepSpec{{AtMS: 18446744073710, CrashNode: 2}}}},
		{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: 1000,
			Faults: &FaultPlanSpec{Steps: []FaultStepSpec{{AtMS: 500, PER: 0.5, PERForMS: math.MaxInt64}}}},
		{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: 1000,
			Faults: &FaultPlanSpec{Name: "crash-recover", Steps: []FaultStepSpec{
				{AtMS: 200, CrashNode: 2},
				{AtMS: 600, RecoverNode: 2},
				{AtMS: 700, PER: 0.3, PERForMS: 100},
			}}},
		{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: 1000,
			Faults: &FaultPlanSpec{Steps: []FaultStepSpec{{AtMS: maxHorizonMS, LinkDownA: "a", LinkDownB: "b"}}}},
	}
	for _, req := range seeds {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	maxHorizon := time.Duration(maxHorizonMS) * time.Millisecond
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || req.validate() != nil || req.Faults == nil {
			return
		}
		plan := req.Faults.plan()
		for i, st := range plan.Steps {
			if st.At < 0 || st.At > maxHorizon {
				t.Fatalf("step %d at_ms %d became offset %v, outside [0, %v]", i, req.Faults.Steps[i].AtMS, st.At, maxHorizon)
			}
			if b := st.PERBurst; b != nil && (b.For < 0 || b.For > maxHorizon) {
				t.Fatalf("step %d per_for_ms %d became burst %v, outside [0, %v]", i, req.Faults.Steps[i].PERForMS, b.For, maxHorizon)
			}
		}
		exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		_ = exp.Cell.ApplyFaultPlan(plan) // a plan the cell rejects is fine; a panic is not
	})
}
