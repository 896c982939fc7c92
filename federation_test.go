package evm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// killUnitA crashes every radio of the refinery's unit-a — the
// whole-cell outage of the federation acceptance scenario.
func killUnitA(at time.Duration) FaultPlan {
	return KillNodesPlan("kill-unit-a", at, RefineryMembers()...)
}

// TestCampusFailoverResumesTaskInPeerCell drives the self-contained
// two-cell scenario end to end: west dies wholesale, the coordinator
// reports the overload, ships the task over the backbone, and the loop
// resumes actuating inside east.
func TestCampusFailoverResumesTaskInPeerCell(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioCampusFailover, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	log := exp.Campus.Events().Log()
	exp.Campus.Run(30 * time.Second)

	var overload *CellOverloadEvent
	var mig *InterCellMigrationEvent
	resumed := 0
	for _, ev := range log.Events() {
		switch e := ev.(type) {
		case CellOverloadEvent:
			if overload == nil {
				overload = &e
			}
		case InterCellMigrationEvent:
			if mig == nil {
				mig = &e
			}
		case CellEvent:
			if act, ok := e.Inner.(*ActuationEvent); ok &&
				e.Cell == "east" && act.Task == "w-loop" {
				resumed++
			}
		}
	}
	if overload == nil || overload.Cell != "west" {
		t.Fatalf("no CellOverloadEvent for west (got %+v)", overload)
	}
	if mig == nil {
		t.Fatal("no InterCellMigrationEvent after killing west")
	}
	if mig.Task != "w-loop" || mig.FromCell != "west" || mig.ToCell != "east" {
		t.Fatalf("migration event = %+v, want w-loop west->east", mig)
	}
	if mig.At <= 10*time.Second {
		t.Fatalf("migration at %v, before the 10s outage", mig.At)
	}
	if resumed == 0 {
		t.Fatal("migrated task never actuated in the peer cell")
	}
	placements := exp.Campus.TaskPlacements()
	p, ok := placements["west/w-loop"]
	if !ok || !p.Foreign || p.Cell != "east" {
		t.Fatalf("placement west/w-loop = %+v, want foreign in east", p)
	}
	// The backbone carried at least the one transfer.
	if st := exp.Campus.Backbone().Stats(); st.Delivered < 1 {
		t.Fatalf("backbone stats = %+v", st)
	}
}

// TestRefineryCellKillAcceptance is the PR's acceptance scenario: the
// 4x16 refinery runs under a fault plan that kills every runtime in one
// cell; every control task of that cell resumes in a peer cell, and two
// same-seed runs emit byte-identical campus event logs.
func TestRefineryCellKillAcceptance(t *testing.T) {
	run := func() ([]string, map[string]TaskPlacement, int) {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefinery, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		if err := exp.Campus.ApplyFaultPlan("unit-a",
			KillCellPlan(10*time.Second, exp.Campus.Cell("unit-a"))); err != nil {
			t.Fatal(err)
		}
		log := exp.Campus.Events().Log()
		exp.Campus.Run(25 * time.Second)
		migs := 0
		for _, ev := range log.Events() {
			if _, ok := ev.(InterCellMigrationEvent); ok {
				migs++
			}
		}
		return log.Strings(), exp.Campus.TaskPlacements(), migs
	}
	a, placements, migs := run()
	if migs != 4 {
		t.Fatalf("inter-cell migrations = %d, want all 4 unit-a loops", migs)
	}
	for i := 0; i < 4; i++ {
		key := "unit-a/a-loop-" + string(rune('0'+i))
		p, ok := placements[key]
		if !ok || !p.Foreign || p.Cell == "unit-a" {
			t.Fatalf("placement %s = %+v, want foreign outside unit-a", key, p)
		}
	}
	// Migrated tasks spread over the three surviving cells.
	hosts := make(map[string]bool)
	for key, p := range placements {
		if p.Foreign {
			hosts[p.Cell] = true
		}
		_ = key
	}
	if len(hosts) < 2 {
		t.Fatalf("all migrated tasks landed in one cell: %v", hosts)
	}

	b, _, _ := run()
	if len(a) != len(b) {
		t.Fatalf("campus event streams differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("no campus events recorded")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("campus event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestFederationRunnerParallelMatchesSerial covers the federation half
// of the Runner guarantee: a campus grid (refinery + campus-failover,
// crossed with seeds and a whole-cell kill plan) produces identical
// metrics AND byte-identical per-run event CSVs whether executed
// serially or across workers.
func TestFederationRunnerParallelMatchesSerial(t *testing.T) {
	specs := []RunSpec{
		{Scenario: ScenarioRefinery, Seed: 1, Horizon: 20 * time.Second,
			Faults: killUnitA(10 * time.Second), FaultCell: "unit-a"},
		{Scenario: ScenarioRefinery, Seed: 2, Horizon: 20 * time.Second,
			Faults: killUnitA(10 * time.Second), FaultCell: "unit-a"},
		{Scenario: ScenarioRefinery, Seed: 1, Horizon: 15 * time.Second},
		{Scenario: ScenarioCampusFailover, Seed: 1, Horizon: 20 * time.Second},
		{Scenario: ScenarioCampusFailover, Seed: 2, Horizon: 20 * time.Second},
	}
	dirSerial := t.TempDir()
	dirParallel := t.TempDir()
	serial := (&Runner{Workers: 1, EventDir: dirSerial}).Run(specs)
	parallel := (&Runner{Workers: 4, EventDir: dirParallel}).Run(specs)
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v",
				specs[i].Label(), serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("%s: metrics diverge:\n  serial:   %v\n  parallel: %v",
				specs[i].Label(), serial[i].Metrics, parallel[i].Metrics)
		}
	}
	// The killed-cell runs must have escalated across the backbone.
	if serial[0].Metrics[MetricInterCellMigrations] != 4 {
		t.Fatalf("refinery kill run migrated %.0f tasks, want 4",
			serial[0].Metrics[MetricInterCellMigrations])
	}
	if serial[2].Metrics[MetricInterCellMigrations] != 0 {
		t.Fatalf("fault-free refinery run migrated %.0f tasks, want 0",
			serial[2].Metrics[MetricInterCellMigrations])
	}
	// Per-run event CSVs are byte-identical between serial and parallel.
	files, err := filepath.Glob(filepath.Join(dirSerial, "*.csv"))
	if err != nil || len(files) != len(specs) {
		t.Fatalf("event CSVs written = %d (err %v), want %d", len(files), err, len(specs))
	}
	for _, f := range files {
		sb, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := os.ReadFile(filepath.Join(dirParallel, filepath.Base(f)))
		if err != nil {
			t.Fatalf("parallel run missing CSV %s: %v", filepath.Base(f), err)
		}
		if string(sb) != string(pb) {
			t.Fatalf("event CSV %s differs between serial and parallel", filepath.Base(f))
		}
		if len(sb) == 0 {
			t.Fatalf("event CSV %s is empty", filepath.Base(f))
		}
	}
}

// TestBackboneLossRetransmits checks the backbone's loss model: under a
// forced 50% transfer loss the coordinator still lands the migration via
// deterministic retransmissions.
func TestBackboneLossRetransmits(t *testing.T) {
	unit := func(name, prefix string) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(5), SlotsPerNode: 3,
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: prefix + "-loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
			},
			Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond,
				Sample: func() []SensorReading { return []SensorReading{{Port: 0, Value: 50}} }},
		}
	}
	dropsSeen := false
	for seed := uint64(1); seed <= 8 && !dropsSeen; seed++ {
		campus, err := NewCampus(CampusConfig{
			Seed:     seed,
			Backbone: BackboneConfig{PER: 0.5},
		}, unit("n", "n"), unit("s", "s"))
		if err != nil {
			t.Fatal(err)
		}
		log := campus.Events().Log()
		if err := campus.ApplyFaultPlan("n", KillCellPlan(5*time.Second, campus.Cell("n"))); err != nil {
			t.Fatal(err)
		}
		campus.Run(20 * time.Second)
		migrated := false
		for _, ev := range log.Events() {
			switch e := ev.(type) {
			case BackboneEvent:
				if e.Kind == BackboneDrop {
					dropsSeen = true
				}
			case InterCellMigrationEvent:
				migrated = true
			}
		}
		if !migrated {
			t.Fatalf("seed %d: migration never completed under 50%% backbone loss", seed)
		}
		campus.Stop()
	}
	if !dropsSeen {
		t.Fatal("no backbone drop observed across 8 seeds at 50% loss")
	}
}

// TestCampusRejectsDuplicateTaskIDs: task IDs must be campus-unique or a
// hosting cell's head would demote imported foreign replicas.
func TestCampusRejectsDuplicateTaskIDs(t *testing.T) {
	unit := func(name string) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(4),
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: "loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
			},
		}
	}
	if _, err := NewCampus(CampusConfig{Seed: 1}, unit("a"), unit("b")); err == nil {
		t.Fatal("duplicate task IDs across cells accepted")
	}
}

// TestSyntheticFeedPublishesActuationEvents covers the per-node
// actuation sink: a cell without a plant gateway still publishes
// ActuationEvent for every accepted actuation.
func TestSyntheticFeedPublishesActuationEvents(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioEightController, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	log := exp.Cell.Events().Log()
	exp.Cell.Run(10 * time.Second)
	acts := log.Count(func(ev Event) bool { _, ok := ev.(*ActuationEvent); return ok })
	if acts == 0 {
		t.Fatal("synthetic-feed scenario published no ActuationEvent")
	}
}

// TestNilRebalancePolicyDemotesStaleMasterOnRecovery is the regression
// test for the permanent dual-master: with Rebalance false a task
// stays foreign after its origin cell recovers, and before the fix the
// recovered origin's stale master resumed actuating alongside the
// foreign copy forever. The coordinator must now demote the stale
// master on recovery even though nothing rebalances.
func TestNilRebalancePolicyDemotesStaleMasterOnRecovery(t *testing.T) {
	campus, err := NewCampus(CampusConfig{Seed: 1},
		smallUnit("west", "w"), smallUnit("east", "e"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	outage := OutageWindowPlan("west-outage", 10*time.Second, 18500*time.Millisecond,
		1, 2, 3, 4, 5, 6)
	if err := campus.ApplyFaultPlan("west", outage); err != nil {
		t.Fatal(err)
	}
	campus.Run(35 * time.Second)

	p, ok := campus.TaskPlacements()["west/w-loop"]
	if !ok || !p.Foreign || p.Cell != "east" {
		t.Fatalf("placement = %+v, want foreign in east (nil rebalance keeps it there)", p)
	}
	// The stale west master must be demoted and silent after recovery.
	staleActs, eastActs := 0, 0
	for _, ev := range log.Events() {
		ce, isCell := ev.(CellEvent)
		if !isCell {
			continue
		}
		act, isAct := ce.Inner.(*ActuationEvent)
		if !isAct || act.Task != "w-loop" || act.At < 21*time.Second {
			continue
		}
		switch ce.Cell {
		case "west":
			staleActs++
		case "east":
			eastActs++
		}
	}
	if staleActs != 0 {
		t.Fatalf("stale west master actuated %d times after recovery — dual master", staleActs)
	}
	if eastActs == 0 {
		t.Fatal("foreign master stopped actuating after the origin recovered")
	}
	if role := campus.Cell("west").Node(3).Role("w-loop"); role == RoleActive {
		t.Fatal("recovered origin replica still holds the Active role")
	}
	if vs := CheckEvents(log.Events(), DefaultInvariants()...); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

// TestRebalanceAbortKeepsForeignMaster drives the handshake's abort
// path: the prepare leg lands at the recovered origin, but the link is
// severed while the commit leg is in flight — the commit drops, the
// retransmission finds no route, and the handshake aborts leaving the
// foreign master in charge. Once the link heals, the next coordinator
// tick reopens the handshake and the task commits home.
func TestRebalanceAbortKeepsForeignMaster(t *testing.T) {
	campus, err := NewCampus(CampusConfig{
		Seed:      1,
		Rebalance: true,
		Links:     []BackboneLink{{A: "n", B: "s"}},
	}, smallUnit("n", "n"), smallUnit("s", "s"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	// Recover off-tick at 11.5s so the handshake opens exactly at the
	// 12s tick; the sever at 12.03s catches the commit leg in flight
	// (prepare arrives ~12.020s, commit ~12.040s).
	plan := OutageWindowPlan("n-outage", 5*time.Second, 11500*time.Millisecond,
		1, 2, 3, 4, 5, 6)
	plan.Steps = append(plan.Steps,
		FaultStep{At: 12030 * time.Millisecond, LinkDown: &LinkRef{A: "n", B: "s"}},
		FaultStep{At: 14500 * time.Millisecond, LinkUp: &LinkRef{A: "n", B: "s"}},
	)
	if err := campus.ApplyFaultPlan("n", plan); err != nil {
		t.Fatal(err)
	}
	campus.Run(25 * time.Second)

	var rebalances []InterCellMigrationEvent
	foreignActsDuringAbort := 0
	for _, ev := range log.Events() {
		switch e := ev.(type) {
		case InterCellMigrationEvent:
			if e.Rebalance {
				rebalances = append(rebalances, e)
			}
		case CellEvent:
			if act, ok := e.Inner.(*ActuationEvent); ok && e.Cell == "s" && act.Task == "n-loop" &&
				act.At > 12500*time.Millisecond && act.At < 14500*time.Millisecond {
				foreignActsDuringAbort++
			}
		}
	}
	if len(rebalances) != 1 {
		t.Fatalf("rebalance events = %d, want exactly one (the retry after the abort)", len(rebalances))
	}
	if rebalances[0].At < 14500*time.Millisecond {
		t.Fatalf("rebalance committed at %v, before the link healed — the abort path never ran", rebalances[0].At)
	}
	if foreignActsDuringAbort == 0 {
		t.Fatal("foreign master went silent after the aborted handshake")
	}
	if st := campus.Backbone().Stats(); st.Failed < 1 {
		t.Fatalf("backbone stats = %+v, want the dropped commit leg to fail", st)
	}
	// The abort is first-class on the event stream: at least one
	// RebalanceAbortEvent names the task, both cells and a cause.
	aborts := 0
	for _, ev := range log.Events() {
		if ab, ok := ev.(RebalanceAbortEvent); ok {
			aborts++
			if ab.Task != "n-loop" || ab.Host != "s" || ab.Origin != "n" || ab.Reason == "" {
				t.Fatalf("abort event = %+v", ab)
			}
		}
	}
	if aborts == 0 {
		t.Fatal("aborted handshake published no RebalanceAbortEvent")
	}
	p := campus.TaskPlacements()["n/n-loop"]
	if p.Foreign || p.Cell != "n" {
		t.Fatalf("placement = %+v, want home in n after the retried handshake", p)
	}
	if vs := CheckEvents(log.Events(), DefaultInvariants()...); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}
}

// TestRefineryRingSeverAcceptance is the PR's acceptance scenario:
// unit-a's outage escalates its four loops over the ring, the d-a link
// is severed mid-outage, and the recovered unit-a takes every loop back
// through the prepare/commit handshake — with traffic from unit-d forced
// the long way round (a four-cell path), zero dual-master ticks across
// the whole stream, and same-seed byte-identical campus streams.
func TestRefineryRingSeverAcceptance(t *testing.T) {
	run := func() ([]string, []Event, map[string]TaskPlacement) {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRingSever, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		log := exp.Campus.Events().Log()
		exp.Campus.Run(40 * time.Second)
		return log.Strings(), log.Events(), exp.Campus.TaskPlacements()
	}
	lines, events, placements := run()

	rebalances, linkDowns, linkUps, longWay := 0, 0, 0, 0
	for _, ev := range events {
		switch e := ev.(type) {
		case InterCellMigrationEvent:
			if e.Rebalance {
				rebalances++
			}
		case BackboneLinkEvent:
			if e.Up {
				linkUps++
			} else {
				linkDowns++
			}
		case BackboneRouteEvent:
			if len(e.Path) == 4 {
				longWay++
			}
		}
	}
	if rebalances != 4 {
		t.Fatalf("rebalances = %d, want all 4 unit-a loops home", rebalances)
	}
	if linkDowns != 1 || linkUps != 1 {
		t.Fatalf("link events = %d down / %d up, want 1/1", linkDowns, linkUps)
	}
	if longWay == 0 {
		t.Fatal("no transfer took the long way round the severed ring")
	}
	for key, p := range placements {
		if p.Foreign {
			t.Fatalf("placement %s = %+v, want everything home after rebalance", key, p)
		}
	}
	if vs := CheckEvents(events, DefaultInvariants()...); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}

	again, _, _ := run()
	if len(lines) != len(again) {
		t.Fatalf("same-seed campus streams differ in length: %d vs %d", len(lines), len(again))
	}
	for i := range lines {
		if lines[i] != again[i] {
			t.Fatalf("campus event %d differs:\n  run1: %s\n  run2: %s", i, lines[i], again[i])
		}
	}
}

// TestCoordinatorWalksTasksInKeyOrder: the coordinator's task table is
// ordered by placement key ("<origin-cell>/<task-id>"), not by cell
// declaration order. Cells declared west, mid, east lose west and east
// in the same fault step; both stranded tasks escalate in the same tick,
// east's first.
func TestCoordinatorWalksTasksInKeyOrder(t *testing.T) {
	campus, err := NewCampus(CampusConfig{Seed: 1},
		smallUnit("west", "w"), smallUnit("mid", "m"), smallUnit("east", "e"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	for _, cell := range []string{"west", "east"} {
		if err := campus.ApplyFaultPlan(cell, KillCellPlan(10*time.Second, campus.Cell(cell))); err != nil {
			t.Fatal(err)
		}
	}
	campus.Run(15 * time.Second)

	var sends []BackboneEvent
	var moved []string
	for _, ev := range log.Events() {
		switch e := ev.(type) {
		case BackboneEvent:
			if e.Kind == BackboneSend {
				sends = append(sends, e)
			}
		case InterCellMigrationEvent:
			moved = append(moved, e.Task)
		}
	}
	if len(sends) < 2 || sends[0].At != sends[1].At {
		t.Fatalf("backbone sends = %v, want two escalations in one tick", sends)
	}
	if sends[0].From != "east" || sends[1].From != "west" {
		t.Fatalf("escalation order = %s then %s, want east then west (key order)", sends[0].From, sends[1].From)
	}
	if want := []string{"e-loop", "w-loop"}; !reflect.DeepEqual(moved, want) {
		t.Fatalf("migrations = %v, want %v", moved, want)
	}
}
