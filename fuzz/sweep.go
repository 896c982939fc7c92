package fuzz

import (
	"fmt"

	"evm"
)

// Failure couples one failing corpus run with everything needed to
// reproduce it: the generating spec, the run seed, and either the
// violations observed or the build/run error (a generated spec that
// fails to build is a finding too).
type Failure struct {
	Spec       Spec
	Seed       uint64
	Violations []evm.Violation
	Err        error
}

// Label renders the failure one line.
func (f Failure) Label() string {
	if f.Err != nil {
		return fmt.Sprintf("%s/seed=%d: %v", f.Spec.Name, f.Seed, f.Err)
	}
	return fmt.Sprintf("%s/seed=%d: %d violation(s), first: %s",
		f.Spec.Name, f.Seed, len(f.Violations), f.Violations[0])
}

// SweepResult summarizes one corpus sweep.
type SweepResult struct {
	Runs     int
	Failures []Failure
}

// GenerateCorpus derives n specs from consecutive generator seeds
// starting at base — the corpus for one sweep.
func GenerateCorpus(base uint64, n int, p Profile) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = GenerateWith(base+uint64(i), p)
	}
	return specs
}

// Sweep runs every corpus spec × every run seed through a parallel
// Runner under the complete checker set (Checkers) and collects the
// failing runs. Results depend only on (spec, seed) pairs, never on
// worker count or interleaving.
func Sweep(corpus []Spec, seeds []uint64, workers int) SweepResult {
	byName := make(map[string]Spec, len(corpus))
	grid := make([]evm.RunSpec, 0, len(corpus)*len(seeds))
	for _, s := range corpus {
		byName[s.Name] = s
		for _, seed := range seeds {
			grid = append(grid, evm.RunSpec{Scenario: s.Name, Seed: seed})
		}
	}
	r := &evm.Runner{
		Workers: workers,
		Build: func(run evm.RunSpec) (*evm.Experiment, error) {
			s, ok := byName[run.Scenario]
			if !ok {
				return nil, fmt.Errorf("fuzz: run references unknown corpus spec %q", run.Scenario)
			}
			return buildExperiment(s, run)
		},
		Checkers: Checkers,
	}
	out := SweepResult{Runs: len(grid)}
	for _, res := range r.Run(grid) {
		if res.Err != nil || len(res.Violations) > 0 {
			out.Failures = append(out.Failures, Failure{
				Spec:       byName[res.Spec.Scenario],
				Seed:       res.Spec.Seed,
				Violations: res.Violations,
				Err:        res.Err,
			})
		}
	}
	return out
}

// runSpec executes spec s at seed on the calling goroutine through r,
// building the experiment from s.
func runSpec(s Spec, seed uint64, r evm.Runner) evm.RunResult {
	r.Build = func(run evm.RunSpec) (*evm.Experiment, error) { return buildExperiment(s, run) }
	return r.RunOne(evm.RunSpec{Scenario: s.Name, Seed: seed})
}

// RunOnce executes one spec under the full checker set and returns the
// violations observed (nil when every invariant held).
func RunOnce(s Spec, seed uint64) ([]evm.Violation, error) {
	res := runSpec(s, seed, evm.Runner{Checkers: Checkers})
	return res.Violations, res.Err
}

// EventStrings executes one spec and returns its full event stream as
// the events' stable one-line renderings — the byte-identical
// determinism surface: equal (spec, seed) pairs yield equal slices.
func EventStrings(s Spec, seed uint64) ([]string, error) {
	var lines []string
	res := runSpec(s, seed, evm.Runner{
		Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			sub := exp.Events().Subscribe(func(ev evm.Event) { lines = append(lines, ev.String()) })
			return func(map[string]float64) { sub.Cancel() }
		},
	})
	return lines, res.Err
}

// TraceJSON executes one spec with causal tracing enabled and returns
// the run's Chrome trace-event JSON. evmfuzz writes it next to a
// shrunken repro so a violation can be inspected on a Perfetto timeline
// (which slot, which frame, which handshake leg) rather than only
// replayed. Deterministic: equal (spec, seed) pairs yield equal bytes.
func TraceJSON(s Spec, seed uint64) ([]byte, error) {
	res := runSpec(s, seed, evm.Runner{Trace: true, Checkers: Checkers})
	return res.TraceJSON, res.Err
}
