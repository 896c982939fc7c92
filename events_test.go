package evm

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// testVC builds the standard 4-node component: gateway 1, candidates 2/3,
// head 4.
func testVC(window int) VCConfig {
	return VCConfig{
		Name: "bus", Head: 4, Gateway: 1,
		Tasks: []TaskSpec{{
			ID: "loop", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []NodeID{2, 3},
			DeviationTol: 5, DeviationWindow: window, SilenceWindow: 8,
			MakeLogic: func() (TaskLogic, error) {
				return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.5, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		}},
	}
}

// testFeed is the feed of a testVC cell: the gateway sends port 0 at
// the setpoint every 250 ms.
func testFeed() *FeedSpec {
	return &FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: fixedFeed(SensorReading{Port: 0, Value: 50})}
}

// newTestCell builds spec with NewCell and fails the test on error.
func newTestCell(t *testing.T, spec CellSpec) *Cell {
	t.Helper()
	cell, err := NewCell(spec)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestEventBusPublishesFaultAndFailover(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 7, Nodes: Members(4), VC: testVC(4), Feed: testFeed()})
	log := cell.Events().Log()
	plan := FaultPlan{
		Name: "byzantine",
		Steps: []FaultStep{{
			At:           5 * time.Second,
			ComputeFault: &ComputeFault{Node: 2, Task: "loop", Output: 75},
		}},
	}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cell.Run(30 * time.Second)
	if n := log.Count(func(ev Event) bool { _, ok := ev.(FaultEvent); return ok }); n != 1 {
		t.Fatalf("fault events = %d, want 1", n)
	}
	var fo *FailoverEvent
	for _, ev := range log.Events() {
		if f, ok := ev.(FailoverEvent); ok {
			fo = &f
			break
		}
	}
	if fo == nil {
		t.Fatal("no FailoverEvent after injected compute fault")
	}
	if fo.Task != "loop" || fo.From != 2 || fo.To != 3 {
		t.Fatalf("failover event = %+v, want loop 2->3", fo)
	}
	if fo.At <= 5*time.Second {
		t.Fatalf("failover at %v, before the fault at 5s", fo.At)
	}
}

func TestEventBusJoinAndMigration(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioCapacity, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	log := exp.Cell.Events().Log()
	exp.Cell.Run(exp.DefaultHorizon)
	joins := log.Count(func(ev Event) bool { _, ok := ev.(JoinEvent); return ok })
	migs := log.Count(func(ev Event) bool { _, ok := ev.(MigrationEvent); return ok })
	if joins == 0 {
		t.Fatal("no JoinEvent from the runtime admission")
	}
	if migs == 0 {
		t.Fatal("no MigrationEvent from the commanded migration")
	}
}

// TestBatteryDrainFaultTriggersEnergyFailover covers the battery-drain
// fault kind end to end: draining the primary below the 5% threshold
// makes the head migrate its duties proactively (§3.1.1 op 5).
func TestBatteryDrainFaultTriggersEnergyFailover(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 7, Nodes: Members(4), VC: testVC(4), Feed: testFeed()})
	log := cell.Events().Log()
	plan := FaultPlan{
		Name: "energy",
		Steps: []FaultStep{{
			At:           2 * time.Second,
			BatteryDrain: &BatteryDrain{Node: 2, Fraction: 0.97},
		}},
	}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cell.Run(10 * time.Second)
	drains := log.Count(func(ev Event) bool {
		f, ok := ev.(FaultEvent)
		return ok && f.Kind == FaultBatteryDrain && f.Node == 2
	})
	if drains != 1 {
		t.Fatalf("battery-drain fault events = %d, want 1", drains)
	}
	var fo *FailoverEvent
	for _, ev := range log.Events() {
		if f, ok := ev.(FailoverEvent); ok {
			fo = &f
			break
		}
	}
	if fo == nil {
		t.Fatal("no proactive failover after draining the primary's battery")
	}
	if fo.From != 2 || fo.To != 3 {
		t.Fatalf("energy failover = %+v, want 2->3", fo)
	}
}

// TestClockDriftFaultSetsOscillator covers the clock-drift fault kind:
// the step publishes a FaultEvent and the node's clock error grows with
// time since the last sync pulse.
func TestClockDriftFaultSetsOscillator(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 7, Nodes: Members(4), VC: testVC(4)})
	log := cell.Events().Log()
	plan := FaultPlan{
		Name:  "drift",
		Steps: []FaultStep{{At: time.Second, ClockDrift: &ClockDrift{Node: 3, PPM: 500}}},
	}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cell.Run(5 * time.Second)
	drifts := log.Count(func(ev Event) bool {
		f, ok := ev.(FaultEvent)
		return ok && f.Kind == FaultClockDrift && f.Node == 3 && f.Value == 500
	})
	if drifts != 1 {
		t.Fatalf("clock-drift fault events = %d, want 1", drifts)
	}
}

// TestEventStreamDeterministic checks the redesign's core guarantee:
// equal seeds yield byte-identical event streams, including under
// stochastic loss and a multi-step fault plan.
func TestEventStreamDeterministic(t *testing.T) {
	run := func() []string {
		cfg := DefaultGasPlantConfig()
		cfg.Seed = 42
		cfg.DeviationWindow = 8
		cfg.PER = 0.15
		s, err := NewGasPlant(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log := s.Cell.Events().Log()
		plan := FaultPlan{
			Name: "mixed",
			Steps: []FaultStep{
				{At: 10 * time.Second, ComputeFault: &ComputeFault{Node: GasCtrlAID, Task: LTSTaskID, Output: 75, For: 20 * time.Second}},
				{At: 40 * time.Second, PERBurst: &PERBurst{PER: 0.5, For: 5 * time.Second}},
			},
		}
		if err := s.Cell.ApplyFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * time.Second)
		return log.Strings()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event stream lengths differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestDeployStopsStartedNodesOnFailure: a VC that cannot deploy fails
// the cell's construction and leaves nothing behind (buildFails).
func TestDeployStopsStartedNodesOnFailure(t *testing.T) {
	// The second node's logic factory fails after the first node was built.
	failing := testVC(4)
	calls := 0
	failing.Tasks[0].MakeLogic = func() (TaskLogic, error) {
		calls++
		if calls >= 2 {
			return nil, errTestLogic
		}
		return NewPIDLogic(PIDParams{Kp: 1, OutMin: 0, OutMax: 100, Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
	}
	// An invalid VC (a controller on the gateway) fails before any node.
	onGateway := testVC(4)
	onGateway.Tasks[0].Candidates = []NodeID{2, onGateway.Gateway}
	invalid := onGateway.Validate()
	if invalid == nil {
		t.Fatal("VCConfig.Validate accepted a controller on the gateway")
	}
	for _, tc := range []struct {
		name    string
		vc      VCConfig
		wantErr func(error) bool
	}{
		{"failing logic factory", failing, func(err error) bool { return errors.Is(err, errTestLogic) }},
		{"candidate on gateway", onGateway, func(err error) bool { return err.Error() == invalid.Error() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := buildFails(t, CellSpec{Seed: 1, Nodes: Members(4), VC: tc.vc})
			if !tc.wantErr(err) {
				t.Fatalf("construction error = %v", err)
			}
		})
	}
}

// TestFailedCellBuildLeavesNothing covers the spec's own error paths: a
// bad spec, and a feed whose source or destination is not a member.
func TestFailedCellBuildLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*CellSpec)
		want string
	}{
		{"no members", func(s *CellSpec) { s.Nodes = nil }, "at least one node"},
		{"PER NaN", func(s *CellSpec) { s.PER = math.NaN() }, "packet error rate"},
		{"placement overflow", func(s *CellSpec) { s.Placement = Grid(2, 1) }, "holds at most 2 nodes"},
		{"feed source not a member", func(s *CellSpec) { s.Feed.Source = 9 }, "feed source"},
		{"feed destination not a member", func(s *CellSpec) { s.Feed.To = []NodeID{2, 9} }, "feed destination"},
		{"feed period", func(s *CellSpec) { s.Feed.Period = 0 }, "feed period"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := CellSpec{Seed: 1, Nodes: Members(4), VC: testVC(4), Feed: testFeed()}
			tc.edit(&spec)
			if err := buildFails(t, spec); !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("construction error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// buildFails builds spec on an engine the test holds and wants the
// construction to fail without leaving anything behind: buildCell
// returns no cell, so no runtime is left, and no event is pending, so
// no watchdog, frame loop or feed can run.
func buildFails(t *testing.T, spec CellSpec) error {
	t.Helper()
	eng := sim.New()
	cell, err := buildCell(eng, sim.NewRNG(spec.Seed), spec)
	if err == nil {
		t.Fatal("construction succeeded")
	}
	if cell != nil {
		t.Fatal("failed construction returned a cell")
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("%d events pending after the failed construction", p)
	}
	return err
}

var errTestLogic = &logicError{}

type logicError struct{}

func (*logicError) Error() string { return "logic factory exploded" }

func TestAddNodeRuntimeRollsBackOnFailure(t *testing.T) {
	// A logic factory that fails on its third call, the new node's (2 and
	// 3 deploy first), fails NewNode after the radio, schedule and link
	// are in place.
	explodes := testVC(4)
	explodes.Tasks[0].Candidates = []NodeID{2, 3, 8}
	made, makeLogic := 0, explodes.Tasks[0].MakeLogic
	explodes.Tasks[0].MakeLogic = func() (TaskLogic, error) {
		if made++; made > 2 {
			return nil, errTestLogic
		}
		return makeLogic()
	}
	for _, tc := range []struct {
		name  string
		slots int
		vc    VCConfig
		cause error // nil: any error
	}{
		// 7 nodes x 7 slots + sync = 50 fills the default frame exactly,
		// so admitting an 8th node cannot fit a schedule.
		{"full TDMA frame", 7, testVC(4), nil},
		{"logic factory fails for the new node", 2, explodes, errTestLogic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cell := newTestCell(t, CellSpec{Seed: 1, Nodes: Members(7), SlotsPerNode: tc.slots, VC: tc.vc})
			oldSched := cell.Network().Schedule()
			before := len(cell.Members())
			if _, err := cell.AddNodeRuntime(8); err == nil || tc.cause != nil && !errors.Is(err, tc.cause) {
				t.Fatalf("AddNodeRuntime: %v, want a failure caused by %v", err, tc.cause)
			}
			if got := len(cell.Members()); got != before {
				t.Fatalf("member list grew to %d after failed admission", got)
			}
			if cell.Medium().Radio(8) != nil {
				t.Fatal("radio leaked on the medium after failed admission")
			}
			if cell.Network().Link(8) != nil {
				t.Fatal("link leaked after failed admission")
			}
			if got := cell.Network().Schedule(); len(got) != len(oldSched) {
				t.Fatalf("schedule not restored: %d slots, want %d", len(got), len(oldSched))
			}
			// The cell still runs after the rollback.
			cell.Run(time.Second)
		})
	}
}

func TestAddNodeRuntimeFromEventSubscriber(t *testing.T) {
	vc := testVC(4)
	cell := newTestCell(t, CellSpec{Seed: 1, Nodes: Members(5), VC: vc})
	// The head publishes JoinEvent while the radio medium is delivering
	// the join frame, so this admission runs inside a receive handler.
	var admitErr error
	cell.Events().Subscribe(func(ev Event) {
		if j, ok := ev.(JoinEvent); ok && j.Node == 6 {
			_, admitErr = cell.AddNodeRuntime(7)
		}
	})
	if _, err := cell.AddNodeRuntime(6); err != nil {
		t.Fatal(err)
	}
	cell.Run(5 * time.Second)
	if admitErr != nil {
		t.Fatalf("admission from subscriber: %v", admitErr)
	}
	if cell.Node(7) == nil || cell.Medium().Radio(7) == nil {
		t.Fatal("node 7 not admitted from the JoinEvent subscriber")
	}
}

func TestBusCancelDuringPublish(t *testing.T) {
	b := &Bus{}
	got := make(map[string]int)
	var subA *Subscription
	subA = b.Subscribe(func(Event) {
		got["a"]++
		subA.Cancel() // self-cancel mid-delivery
	})
	b.Subscribe(func(Event) { got["b"]++ })
	b.Subscribe(func(Event) { got["c"]++ })
	b.publish(JoinEvent{Node: 1})
	if got["a"] != 1 || got["b"] != 1 || got["c"] != 1 {
		t.Fatalf("first publish deliveries = %v, want 1 each", got)
	}
	b.publish(JoinEvent{Node: 2})
	if got["a"] != 1 {
		t.Fatalf("cancelled subscriber still receiving: %v", got)
	}
	if got["b"] != 2 || got["c"] != 2 {
		t.Fatalf("live subscribers skipped after compaction: %v", got)
	}
}

func TestPERBurstRestoresForcedRate(t *testing.T) {
	cell := newTestCell(t, CellSpec{Seed: 1, Nodes: Members(4), PER: 0.3, VC: testVC(4)})
	if got := cell.Medium().ForcedPER(); got != 0.3 {
		t.Fatalf("forced PER = %g, want 0.3", got)
	}
	plan := FaultPlan{Steps: []FaultStep{{At: time.Second, PERBurst: &PERBurst{PER: 0.9, For: 2 * time.Second}}}}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	cell.Run(2 * time.Second)
	if got := cell.Medium().ForcedPER(); got != 0.9 {
		t.Fatalf("mid-burst forced PER = %g, want 0.9", got)
	}
	cell.Run(2 * time.Second)
	if got := cell.Medium().ForcedPER(); got != 0.3 {
		t.Fatalf("post-burst forced PER = %g, want the pre-burst 0.3", got)
	}
}

// TestLoggedEventsSurviveLaterPublishes: a cell publishes every
// actuation through one *ActuationEvent it rewrites, so an EventLog must
// keep copies. After a gas-plant run and a campus-failover run, the log
// renders exactly the strings a subscriber captured live, and replaying
// it through the invariant checkers finds exactly the violations the
// live checkers found. The checkers include a 100 ms actuation deadline,
// shorter than every task period, so the violations depend on the time
// of each logged actuation.
func TestLoggedEventsSurviveLaterPublishes(t *testing.T) {
	checkers := func() []InvariantChecker {
		return append(DefaultInvariants(), NewActuationDeadlineInvariant(100*time.Millisecond))
	}
	for _, spec := range []RunSpec{
		{Scenario: ScenarioGasPlant, Seed: 1, Horizon: 20 * time.Second},
		{Scenario: ScenarioCampusFailover, Seed: 1, Horizon: 20 * time.Second},
	} {
		var live []string
		var log *EventLog
		res := (&Runner{
			Checkers: checkers,
			Instrument: func(_ RunSpec, exp *Experiment) func(map[string]float64) {
				exp.Events().Subscribe(func(ev Event) { live = append(live, ev.String()) })
				log = exp.Events().Log()
				return nil
			},
		}).RunOne(spec)
		if res.Err != nil {
			t.Fatalf("%s: %v", spec.Scenario, res.Err)
		}
		if res.Metrics[MetricActuations] == 0 || len(res.Violations) == 0 {
			t.Fatalf("%s: %v actuations and %d live violations, want some of each",
				spec.Scenario, res.Metrics[MetricActuations], len(res.Violations))
		}
		if got := log.Strings(); !reflect.DeepEqual(got, live) {
			t.Errorf("%s: the log renders %d events that differ from the %d captured live", spec.Scenario, len(got), len(live))
		}
		if got := CheckEvents(log.Events(), checkers()...); !reflect.DeepEqual(got, res.Violations) {
			t.Errorf("%s: replaying the log finds %d violations, live checking %d", spec.Scenario, len(got), len(res.Violations))
		}
	}
}

// TestLoggedCampusActuationsSurviveSharedWrapper: a campus forwards each
// cell's borrowed actuation in one CellEvent per cell, boxed once and
// published again for every actuation. The campus EventLog must copy the
// wrapped actuation (Keep), so each logged actuation still renders what
// a subscriber saw at delivery, not the cell's latest one.
func TestLoggedCampusActuationsSurviveSharedWrapper(t *testing.T) {
	isAct := func(ev Event) bool {
		ce, ok := ev.(CellEvent)
		if !ok {
			return false
		}
		_, ok = ce.Inner.(*ActuationEvent)
		return ok
	}
	var live []string
	var log *EventLog
	res := (&Runner{
		Instrument: func(_ RunSpec, exp *Experiment) func(map[string]float64) {
			exp.Events().Subscribe(func(ev Event) {
				if isAct(ev) {
					live = append(live, ev.String())
				}
			})
			log = exp.Events().Log()
			return nil
		},
	}).RunOne(RunSpec{Scenario: ScenarioOTACampus, Seed: 1, Horizon: 20 * time.Second})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var logged []string
	byCell := map[string][]string{}
	for _, ev := range log.Events() {
		if isAct(ev) {
			logged = append(logged, ev.String())
			cell := ev.(CellEvent).Cell
			byCell[cell] = append(byCell[cell], ev.String())
		}
	}
	if len(live) == 0 {
		t.Fatal("no actuation reached the campus stream")
	}
	if !reflect.DeepEqual(logged, live) {
		t.Errorf("the log renders %d actuations that differ from the %d formatted at delivery", len(logged), len(live))
	}
	// Without the copy, each cell's logged actuations would all render
	// as that cell's last one.
	for _, cell := range slices.Sorted(maps.Keys(byCell)) {
		acts := byCell[cell]
		last := acts[len(acts)-1]
		if !slices.ContainsFunc(acts, func(s string) bool { return s != last }) {
			t.Errorf("cell %s: all %d logged actuations render as its last one: %s", cell, len(acts), last)
		}
	}
}

// TestKeptEventsRenderAsPublished: a subscriber that keeps each event
// through Keep and renders it after the run reads what a subscriber that
// renders at delivery read, for every built-in scenario. evmd serves its
// event records this way, so a kind whose kept form drifts (a borrowed
// pointer, or a slice the publisher reuses) would change a served line.
func TestKeptEventsRenderAsPublished(t *testing.T) {
	kinds := map[string]bool{}
	for _, name := range Scenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			var live []string
			var kept []Event
			res := (&Runner{
				Instrument: func(_ RunSpec, exp *Experiment) func(map[string]float64) {
					exp.Events().Subscribe(func(ev Event) { live = append(live, ev.String()) })
					exp.Events().Subscribe(func(ev Event) {
						kept = append(kept, Keep(ev))
					})
					return nil
				},
			}).RunOne(RunSpec{Scenario: name, Seed: seed, Horizon: 20 * time.Second})
			if res.Err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, res.Err)
			}
			if len(kept) != len(live) {
				t.Fatalf("%s seed %d: kept %d events, rendered %d", name, seed, len(kept), len(live))
			}
			for i, ev := range kept {
				if got := ev.String(); got != live[i] {
					t.Fatalf("%s seed %d: event %d renders %q, at delivery %q", name, seed, i, got, live[i])
				}
				if ce, ok := ev.(CellEvent); ok {
					ev = ce.Inner
				}
				kinds[fmt.Sprintf("%T", ev)] = true
			}
		}
	}
	// The kinds a kept copy could share state with the publisher through:
	// the borrowed actuation and the slice-carrying kinds.
	for _, kind := range []string{"*evm.ActuationEvent", "evm.BackboneRouteEvent", "evm.RolloutEvent", "evm.CellOverloadEvent"} {
		if !kinds[kind] {
			t.Errorf("no scenario published a %s; kinds checked: %v", kind, slices.Sorted(maps.Keys(kinds)))
		}
	}
}

// textCases lists every event kind, with each field variant that changes
// its line, next to the line it must print.
var textCases = []struct {
	ev   Event
	want string
}{
	{FailoverEvent{At: 1500 * time.Millisecond, Task: "lts-level", From: 2, To: 3},
		"1.5s failover task=lts-level from=2 to=3"},
	{&ActuationEvent{At: 250 * time.Millisecond, Node: 2, Task: "lts-level", Port: 1, Value: 11.48},
		"250ms actuation node=2 task=lts-level port=1 value=11.48"},
	{&ActuationEvent{At: 90061 * time.Second, Node: 65535, Port: 255, Value: -1e-7},
		"25h1m1s actuation node=65535 task= port=255 value=-1e-07"},
	{MigrationEvent{At: 2*time.Second + time.Nanosecond, Task: "loop", From: 5, To: 6},
		"2.000000001s migration task=loop from=5 to=6"},
	{JoinEvent{At: 0, Node: 7}, "0s join node=7"},
	{ModeChangeEvent{At: 3 * time.Second, Node: 4, Mode: 2, AtFrame: 18446744073709551615},
		"3s mode-change head=4 mode=2 frame=18446744073709551615"},
	{FaultEvent{At: 30 * time.Second, Kind: FaultCompute, Node: 2, Task: "lts-level", Value: 75},
		"30s fault kind=compute node=2 task=lts-level value=75"},
	{FaultEvent{At: 5 * time.Microsecond, Kind: FaultPERBurst, Value: 0.3},
		"5µs fault kind=per-burst node=0 task= value=0.3"},
	{BackboneEvent{At: time.Second, From: "east", To: "west", Kind: BackboneSend, Bytes: 2069},
		"1s backbone kind=send from=east to=west bytes=2069"},
	{BackboneEvent{At: time.Second, From: "east", To: "west", Kind: BackboneDrop, Bytes: 12, Via: "mid"},
		"1s backbone kind=drop from=east to=west via=mid bytes=12"},
	{BackboneRouteEvent{At: time.Second, From: "east", To: "west", Path: []string{"east", "mid", "west"}, Bytes: 40},
		"1s backbone-route from=east to=west path=east>mid>west bytes=40"},
	{BackboneRouteEvent{At: time.Second, From: "a", To: "b", Reroute: true, Bytes: -1},
		"1s backbone-reroute from=a to=b path= bytes=-1"},
	{BackboneLinkEvent{At: time.Minute, A: "a", B: "b"}, "1m0s backbone-link a=a b=b state=down"},
	{BackboneLinkEvent{At: time.Minute, A: "a", B: "b", Up: true}, "1m0s backbone-link a=a b=b state=up"},
	{RolloutEvent{At: time.Second, Tasks: []string{"t1", "t2"}, Version: 2, Strategy: "canary",
		Phase: RolloutPhaseStaged, Stage: -1, Cells: []string{"east"}},
		"1s rollout phase=staged tasks=t1+t2 v=2 strategy=canary stage=-1 cells=east"},
	{RolloutEvent{At: time.Second, Tasks: []string{"t1"}, Version: 3, Strategy: "all",
		Phase: RolloutPhaseRolledBack, Stage: 1, Reason: "invariant:single-master"},
		"1s rollout phase=rolled-back tasks=t1 v=3 strategy=all stage=1 cells= reason=invariant:single-master"},
	{CapsuleDeliveryEvent{At: time.Second, Cell: "east", Node: 3, Task: "t1", Version: 2, OK: true},
		"1s capsule-delivery cell=east node=3 task=t1 v=2 ok=true"},
	{CapsuleDeliveryEvent{At: time.Second, Cell: "east", Node: 3, Task: "t1", Version: 2},
		"1s capsule-delivery cell=east node=3 task=t1 v=2 ok=false"},
	{RollbackEvent{At: time.Second, Task: "t1", FromVersion: 2, ToVersion: 1, Reason: "health", Cells: []string{"a", "b"}},
		"1s rollback task=t1 from=v2 to=v1 cells=a+b reason=health"},
	{CellEvent{Cell: "east", Inner: &ActuationEvent{At: time.Second, Node: 2, Task: "loop", Port: 1, Value: 0.5}},
		"cell=east 1s actuation node=2 task=loop port=1 value=0.5"},
	{CellEvent{Cell: "west", Inner: FaultEvent{At: time.Second, Kind: FaultCrash, Node: 4}},
		"cell=west 1s fault kind=crash node=4 task= value=0"},
	{CellOverloadEvent{At: time.Second, Cell: "east", Reason: "head-down", Tasks: []string{"a", "b", "c"}},
		"1s cell-overload cell=east reason=head-down tasks=a+b+c"},
	{CellRecoveredEvent{At: time.Second, Cell: "east"}, "1s cell-recovered cell=east"},
	{InterCellMigrationEvent{At: time.Second, Task: "loop", FromCell: "east", ToCell: "west", From: 2, To: 9},
		"1s intercell-migration task=loop from=east/2 to=west/9"},
	{InterCellMigrationEvent{At: time.Second, Task: "loop", FromCell: "west", ToCell: "east", From: 9, To: 2, Rebalance: true},
		"1s intercell-rebalance task=loop from=west/9 to=east/2"},
	{RebalanceAbortEvent{At: time.Second, Task: "loop", Host: "west", Origin: "east", Reason: "timeout"},
		"1s rebalance-abort task=loop host=west origin=east reason=timeout"},
}

// TestEventText pins every kind's line, through String and AppendEvent
// (which appends to what the buffer holds).
func TestEventText(t *testing.T) {
	for _, c := range textCases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("%T String:\n got %q\nwant %q", c.ev, got, c.want)
		}
		if got := string(AppendEvent([]byte("> "), c.ev)); got != "> "+c.want {
			t.Errorf("%T AppendEvent:\n got %q\nwant %q", c.ev, got, "> "+c.want)
		}
	}
}

// TestAppendEventDoesNotAllocate: appending every kind's line to a buffer
// with room allocates nothing.
func TestAppendEventDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(10, func() {
		for _, c := range textCases {
			buf = AppendEvent(buf[:0], c.ev)
		}
	})
	t.Logf("%.0f allocations to append %d lines", allocs, len(textCases))
	if allocs != 0 {
		t.Errorf("appending %d lines allocates %.0f times, want 0", len(textCases), allocs)
	}
}
