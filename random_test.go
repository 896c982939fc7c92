package evm

import (
	"testing"
	"time"
)

// TestRandomFieldDeterministicDeploy: the 50-node random scatter is
// driven by a dedicated fork of the cell seed — equal seeds place every
// node identically, different seeds differently, and every node lands
// inside the 20 m square (well within radio range of every peer).
func TestRandomFieldDeterministicDeploy(t *testing.T) {
	positions := func(seed uint64) []Position {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRandomField, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		out := make([]Position, 0, RandomFieldNodes)
		for _, id := range exp.Cell.Members() {
			r := exp.Cell.Medium().Radio(id)
			if r == nil {
				t.Fatalf("node %d has no radio", id)
			}
			out = append(out, r.Position())
		}
		return out
	}
	a, b, other := positions(5), positions(5), positions(6)
	if len(a) != RandomFieldNodes {
		t.Fatalf("deployed %d nodes, want %d", len(a), RandomFieldNodes)
	}
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d moved between same-seed deploys: %+v vs %+v", i+1, a[i], b[i])
		}
		if a[i] != other[i] {
			differs = true
		}
		if a[i].X < 0 || a[i].X > 20 || a[i].Y < 0 || a[i].Y > 20 {
			t.Fatalf("node %d outside the field: %+v", i+1, a[i])
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical placements")
	}
}

// TestRandomFieldScheduleFeasibility: 50 members do not fit the default
// 50-slot frame (the reason the scenario widens it), and the widened
// frame admits the full membership with the default two TX slots each.
func TestRandomFieldScheduleFeasibility(t *testing.T) {
	spec := CellSpec{Seed: 1, Nodes: Members(RandomFieldNodes), Placement: RandomUniform(20), VC: testVC(4)}
	if _, err := NewCell(spec); err == nil {
		t.Fatal("50 nodes fit the default 50-slot frame — feasibility guard lost")
	}
	spec.Link = randomFieldLink()
	cell := newTestCell(t, spec)
	defer cell.Stop()
	if got := len(cell.Members()); got != RandomFieldNodes {
		t.Fatalf("cell admitted %d members, want %d", got, RandomFieldNodes)
	}
	if sched := cell.Network().Schedule(); len(sched) < 2*RandomFieldNodes {
		t.Fatalf("schedule holds %d assignments, want %d TX slots", len(sched), 2*RandomFieldNodes)
	}
}

// TestRandomFieldByteIdenticalStreams: two same-seed 50-node runs emit
// byte-identical event streams, the loops actuate, and a mid-run crash
// of a primary fails over — the control plane works at this scale.
func TestRandomFieldByteIdenticalStreams(t *testing.T) {
	crash := FaultPlan{Name: "crash-3", Steps: []FaultStep{{At: 10 * time.Second, CrashNode: 3}}}
	run := func() ([]string, int, float64) {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRandomField, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		log := exp.Cell.Events().Log()
		if err := exp.Cell.ApplyFaultPlan(crash); err != nil {
			t.Fatal(err)
		}
		exp.Cell.Run(40 * time.Second)
		acts := log.Count(func(ev Event) bool { _, ok := ev.(*ActuationEvent); return ok })
		return log.Strings(), acts, exp.Metrics()["coverage"]
	}
	lines, acts, coverage := run()
	if acts == 0 {
		t.Fatal("no actuations in the 50-node cell")
	}
	if coverage != 1 {
		t.Fatalf("coverage = %g after fail-over, want 1", coverage)
	}
	failedOver := false
	for _, l := range lines {
		if len(l) > 0 && containsFailover(l) {
			failedOver = true
			break
		}
	}
	if !failedOver {
		t.Fatal("primary crash produced no fail-over at 50 nodes")
	}
	again, _, _ := run()
	if len(lines) != len(again) {
		t.Fatalf("same-seed streams differ in length: %d vs %d", len(lines), len(again))
	}
	for i := range lines {
		if lines[i] != again[i] {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, lines[i], again[i])
		}
	}
}

func containsFailover(line string) bool {
	for i := 0; i+8 <= len(line); i++ {
		if line[i:i+8] == "failover" {
			return true
		}
	}
	return false
}
