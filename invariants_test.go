package evm

import (
	"testing"
	"time"
)

// replayScenario builds one grid point, records its full event stream,
// runs it to a bounded horizon and returns the recorded events.
func replayScenario(t *testing.T, spec RunSpec) []Event {
	t.Helper()
	exp, err := BuildScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	tgt := exp.target()
	log := tgt.Events().Log()
	defer log.Close()
	if len(spec.Faults.Steps) > 0 {
		if err := tgt.ApplyFaultPlan(spec.FaultCell, spec.Faults); err != nil {
			t.Fatal(err)
		}
	}
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = exp.DefaultHorizon
	}
	if horizon > 45*time.Second {
		horizon = 45 * time.Second
	}
	tgt.Run(horizon)
	return log.Events()
}

// TestInvariantsAcrossScenarioGrid replays every registered scenario —
// fault-free and under a crash plan, across seeds — through the built-in
// invariant checkers: single-master-per-task,
// no-actuation-from-demoted-replica and route-monotonicity must hold on
// every stream. The crash plan kills node 2 (a head or a primary,
// depending on the scenario), exercising arbitration on single cells and
// head-down handling on campuses.
func TestInvariantsAcrossScenarioGrid(t *testing.T) {
	crash := FaultPlan{
		Name:  "crash-2",
		Steps: []FaultStep{{At: 10 * time.Second, CrashNode: 2}},
	}
	for _, sc := range Scenarios() {
		for _, seed := range []uint64{1, 2} {
			for _, plan := range []FaultPlan{{}, crash} {
				spec := RunSpec{Scenario: sc, Seed: seed, Faults: plan}
				t.Run(spec.Label(), func(t *testing.T) {
					t.Parallel()
					events := replayScenario(t, spec)
					if len(events) == 0 {
						t.Fatal("scenario produced no events")
					}
					checkers := append(DefaultInvariants(), TimingInvariants(0, 0)...)
					for _, v := range CheckEvents(events, checkers...) {
						t.Errorf("violation: %s", v)
					}
				})
			}
		}
	}
}

// TestInvariantCheckersDetectViolations feeds hand-built streams that
// break each invariant, proving the checkers are not vacuous.
func TestInvariantCheckersDetectViolations(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * time.Second }

	t.Run("single-master", func(t *testing.T) {
		events := []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FailoverEvent{At: sec(2), Task: "loop", From: 3, To: 4},
			&ActuationEvent{At: sec(3), Node: 4, Task: "loop"},
			// 3 was demoted at 2s; actuating at 10s is a second master.
			&ActuationEvent{At: sec(10), Node: 3, Task: "loop"},
		}
		vs := CheckEvents(events, NewSingleMasterInvariant(0))
		if len(vs) != 1 {
			t.Fatalf("violations = %v, want exactly the stale master", vs)
		}
	})

	t.Run("single-master-grace", func(t *testing.T) {
		events := []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FailoverEvent{At: sec(2), Task: "loop", From: 3, To: 4},
			// In-flight actuation right after the switch: not a violation.
			&ActuationEvent{At: sec(2) + 100*time.Millisecond, Node: 3, Task: "loop"},
		}
		if vs := CheckEvents(events, NewSingleMasterInvariant(0)); len(vs) != 0 {
			t.Fatalf("grace-window actuation flagged: %v", vs)
		}
	})

	t.Run("recovered-stale-replica-grace", func(t *testing.T) {
		events := []Event{
			CellEvent{Cell: "west", Inner: &ActuationEvent{At: sec(1), Node: 3, Task: "loop"}},
			InterCellMigrationEvent{At: sec(5), Task: "loop", FromCell: "west", ToCell: "east", From: 3, To: 7},
			// Radio back at 20s: one demotion round-trip is allowed...
			CellEvent{Cell: "west", Inner: FaultEvent{At: sec(20), Kind: FaultRecover, Node: 3}},
			CellEvent{Cell: "west", Inner: &ActuationEvent{At: sec(20) + 300*time.Millisecond, Node: 3, Task: "loop"}},
			// ...but persisting past the grace window is split-brain.
			CellEvent{Cell: "west", Inner: &ActuationEvent{At: sec(25), Node: 3, Task: "loop"}},
		}
		vs := CheckEvents(events, NewSingleMasterInvariant(0), NewDemotedSilenceInvariant(0))
		if len(vs) != 2 {
			t.Fatalf("violations = %v, want one per checker for the 25s actuation", vs)
		}
		for _, v := range vs {
			if v.At != sec(25) {
				t.Fatalf("violation at %v, want the post-grace actuation only", v.At)
			}
		}
	})

	t.Run("route-monotonicity", func(t *testing.T) {
		events := []Event{
			BackboneRouteEvent{At: sec(1), From: "a", To: "c", Path: []string{"a", "b", "c"}},
			BackboneRouteEvent{At: sec(2), From: "a", To: "c", Path: []string{"a", "d", "c"}},
		}
		if vs := CheckEvents(events, NewRouteMonotonicityInvariant()); len(vs) != 1 {
			t.Fatalf("violations = %v, want the unexplained reroute", vs)
		}
		// The same change across a link fault is legitimate.
		events = []Event{
			BackboneRouteEvent{At: sec(1), From: "a", To: "c", Path: []string{"a", "b", "c"}},
			BackboneLinkEvent{At: sec(2), A: "a", B: "b", Up: false},
			BackboneRouteEvent{At: sec(3), From: "a", To: "c", Path: []string{"a", "d", "c"}, Reroute: true},
		}
		if vs := CheckEvents(events, NewRouteMonotonicityInvariant()); len(vs) != 0 {
			t.Fatalf("reroute across a link fault flagged: %v", vs)
		}
	})

	t.Run("actuation-deadline", func(t *testing.T) {
		events := []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			&ActuationEvent{At: sec(2), Node: 3, Task: "loop"},
			// 18s of silence with nothing on record to excuse it.
			&ActuationEvent{At: sec(20), Node: 3, Task: "loop"},
		}
		vs := CheckEvents(events, NewActuationDeadlineInvariant(10*time.Second))
		if len(vs) != 1 {
			t.Fatalf("violations = %v, want exactly the unexplained gap", vs)
		}
		// The same gap across a recorded transition is excused.
		events = []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			&ActuationEvent{At: sec(2), Node: 3, Task: "loop"},
			FaultEvent{At: sec(3), Kind: FaultCrash, Node: 3},
			FailoverEvent{At: sec(5), Task: "loop", From: 3, To: 4},
			&ActuationEvent{At: sec(12), Node: 4, Task: "loop"},
		}
		if vs := CheckEvents(events, NewActuationDeadlineInvariant(10*time.Second)); len(vs) != 0 {
			t.Fatalf("excused gap flagged: %v", vs)
		}
		// A rollout's mode/rollback transitions excuse pauses too.
		events = []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			RollbackEvent{At: sec(2), Task: "loop", FromVersion: 2, ToVersion: 1},
			&ActuationEvent{At: sec(11), Node: 3, Task: "loop"},
		}
		if vs := CheckEvents(events, NewActuationDeadlineInvariant(10*time.Second)); len(vs) != 0 {
			t.Fatalf("post-rollback gap flagged: %v", vs)
		}
	})

	t.Run("failover-latency", func(t *testing.T) {
		events := []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FaultEvent{At: sec(2), Kind: FaultCrash, Node: 3},
			// Nothing replaces the master; any event past the bound
			// proves the deadline blown.
			JoinEvent{At: sec(20), Node: 9},
		}
		vs := CheckEvents(events, NewFailoverLatencyInvariant(5*time.Second))
		if len(vs) != 1 {
			t.Fatalf("violations = %v, want the blown detection deadline", vs)
		}
		if vs[0].At != sec(7) {
			t.Fatalf("violation at %v, want crash + bound = 7s", vs[0].At)
		}
		// An in-time fail-over disarms the deadline.
		events = []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FaultEvent{At: sec(2), Kind: FaultCrash, Node: 3},
			FailoverEvent{At: sec(4), Task: "loop", From: 3, To: 4},
			JoinEvent{At: sec(20), Node: 9},
		}
		if vs := CheckEvents(events, NewFailoverLatencyInvariant(5*time.Second)); len(vs) != 0 {
			t.Fatalf("in-time fail-over flagged: %v", vs)
		}
		// A recovered master disarms it too: no fail-over was due.
		events = []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FaultEvent{At: sec(2), Kind: FaultCrash, Node: 3},
			FaultEvent{At: sec(4), Kind: FaultRecover, Node: 3},
			JoinEvent{At: sec(20), Node: 9},
		}
		if vs := CheckEvents(events, NewFailoverLatencyInvariant(5*time.Second)); len(vs) != 0 {
			t.Fatalf("recovered master flagged: %v", vs)
		}
		// A stream that ends mid-deadline proves nothing: no violation.
		events = []Event{
			&ActuationEvent{At: sec(1), Node: 3, Task: "loop"},
			FaultEvent{At: sec(2), Kind: FaultCrash, Node: 3},
		}
		if vs := CheckEvents(events, NewFailoverLatencyInvariant(5*time.Second)); len(vs) != 0 {
			t.Fatalf("pending deadline flagged: %v", vs)
		}
	})
}
