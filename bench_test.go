// Host micro and replay benchmarks for the data path and the
// observability layer. The paper's experiments are not here: they live
// once, in internal/paperexp (BenchmarkPaper there; README "Paper
// experiments").
package evm

import (
	"testing"
	"time"

	"evm/internal/core"
	"evm/internal/vm"
)

func BenchmarkVMInterpreterStep(b *testing.B) {
	code, err := vm.Assemble(LTSCapsuleSource)
	if err != nil {
		b.Fatal(err)
	}
	logic, err := core.NewVMLogic(vm.Capsule{TaskID: "x", Code: code})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Step(48.5, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIDLogicStep(b *testing.B) {
	logic, err := NewPIDLogic(PIDParams{Kp: 1.2, Ki: 0.08, Kd: 0.2,
		OutMin: 0, OutMax: 100, Setpoint: 50, CutoffHz: 0.2, RateHz: 4, Reverse: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Step(48.5, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvariantChecking measures the replay cost of the built-in
// checkers over a full sever-scenario stream (events/op is the stream
// length).
func BenchmarkInvariantChecking(b *testing.B) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRingSever, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	log := exp.Campus.Events().Log()
	exp.Campus.Run(40 * time.Second)
	events := log.Events()
	exp.Cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := CheckEvents(events, DefaultInvariants()...); len(vs) != 0 {
			b.Fatalf("invariants violated: %v", vs)
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// --- Observability: span-derived latency distributions ----------------------

// BenchmarkSpanLatencies runs traced scenarios through the Runner and
// reports the span-derived control-path latencies (escalation,
// actuation interval, rollout staging) alongside ns/op, so the cost of
// tracing shows next to what it measures. All values come from virtual
// time, so they are stable across machines and repeat byte-identically
// per seed.
func BenchmarkSpanLatencies(b *testing.B) {
	cases := []struct {
		scenario string
		report   [][2]string // {reported unit, Runner metric key}
	}{
		{ScenarioCampusFailover, [][2]string{
			{"escalation_p95_ms", "span_escalation_p95_ms"},
			{"actuation_p99_ms", "span_actuation-interval_p99_ms"},
		}},
		{ScenarioOTACampus, [][2]string{
			{"rollout_stage_p95_ms", "span_rollout-stage_p95_ms"},
			{"actuation_p99_ms", "span_actuation-interval_p99_ms"},
		}},
	}
	for _, c := range cases {
		b.Run(c.scenario, func(b *testing.B) {
			var last map[string]float64
			for i := 0; i < b.N; i++ {
				res := (&Runner{Workers: 1, Trace: true}).Run([]RunSpec{{
					Scenario: c.scenario, Seed: 1, Horizon: 30 * time.Second,
				}})
				if res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
				last = res[0].Metrics
			}
			for _, kv := range c.report {
				if v, ok := last[kv[1]]; ok {
					b.ReportMetric(v, kv[0])
				}
			}
		})
	}
}
