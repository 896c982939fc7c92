package fuzz

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"evm"
)

// TestRandomFieldSpecPinned pins the shape of the pinned
// random-field-multihop scenario. The spec is a pure function of
// RandomFieldSeed, so any drift here means the generator changed and
// the scenario silently became a different experiment.
func TestRandomFieldSpecPinned(t *testing.T) {
	s := RandomFieldSpec()
	if s.Name != ScenarioRandomFieldMultihop {
		t.Fatalf("spec name %q", s.Name)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pinned spec invalid: %v", err)
	}
	if len(s.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(s.Cells))
	}
	c := s.Cells[0]
	if !c.Multihop || c.Tasks != 1 || c.Spares != 2 || c.Nodes() != 6 {
		t.Fatalf("unexpected cell shape: %+v", c)
	}
	if c.PER != 0 {
		t.Fatalf("multihop field must be loss-free, got PER %v", c.PER)
	}
	// The field must genuinely require relaying: each hop is within
	// reliable radio range, the whole field is not.
	for i := 1; i < len(c.Positions); i++ {
		if d := dist(c.Positions[i-1], c.Positions[i]); d >= 0.8*RadioRangeM {
			t.Fatalf("hop %d spans %.1f m", i, d)
		}
	}
	if span := dist(c.Positions[0], c.Positions[len(c.Positions)-1]); span <= RadioRangeM {
		t.Fatalf("field spans only %.1f m", span)
	}
	if len(s.Faults) != 1 || s.Faults[0].Kind != KindCrash || s.Faults[0].Node != 3 {
		t.Fatalf("want a single crash of the far-end primary, got %+v", s.Faults)
	}
}

// TestRandomFieldScheduleFeasible runs the pinned spec through the
// invariant-checked Runner's Build hook and demands a feasible outcome:
// zero invariant or timing violations (actuations keep arriving across
// the crash within the failover bound), real multi-hop relaying, and a
// line-schedule duty cycle that fits the TDMA frame.
func TestRandomFieldScheduleFeasible(t *testing.T) {
	r := evm.Runner{Workers: 1, Checkers: Checkers, Build: Builder(RandomFieldSpec())}
	res := r.RunOne(evm.RunSpec{Scenario: ScenarioRandomFieldMultihop, Seed: 1, Horizon: 25 * time.Second})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Metrics["relayed_frags"] <= 0 {
		t.Errorf("no fragments relayed — field is not multi-hop (metrics %v)", res.Metrics)
	}
	if d := res.Metrics["line_duty"]; d <= 0 || d > 1 {
		t.Errorf("line schedule duty %v outside (0,1] — schedule infeasible", d)
	}
	if res.Metrics["qos_coverage"] <= 0 {
		t.Errorf("zero QoS coverage (metrics %v)", res.Metrics)
	}
}

// TestRandomFieldStreamDeterministic locks run-level determinism for
// the pinned scenario: same run seed, byte-identical event stream.
func TestRandomFieldStreamDeterministic(t *testing.T) {
	a, err := EventStrings(RandomFieldSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EventStrings(RandomFieldSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty event stream")
	}
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestScenarioTableExcludesGenerated: importing fuzz adds nothing to the
// built-in scenario table; it lists exactly the names the root scenario
// golden pins, and the pinned multi-hop field is not among them.
func TestScenarioTableExcludesGenerated(t *testing.T) {
	raw, err := os.ReadFile("../testdata/golden/scenarios.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, _, _ := strings.Cut(line, " "); !slices.Contains(want, name) {
			want = append(want, name)
		}
	}
	if got := evm.Scenarios(); !slices.Equal(got, want) {
		t.Fatalf("evm.Scenarios() = %v, want %v", got, want)
	}
}
