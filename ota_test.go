package evm

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// --- capsule store ------------------------------------------------------------

func TestCapsuleStoreRegisterAndLookup(t *testing.T) {
	store := NewCapsuleStore()
	v1, err := AssembleCapsule("loop", 1, otaLawV1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := AssembleCapsule("loop", 2, otaLawV2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Capsule{v1, v2} {
		if err := store.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Register(v1); err == nil {
		t.Fatal("duplicate (task, version) registration accepted")
	}
	if err := store.Register(Capsule{TaskID: "loop", Version: 0, Code: v1.Code}); err == nil {
		t.Fatal("zero-version capsule accepted")
	}
	if err := store.Register(Capsule{Version: 3, Code: v1.Code}); err == nil {
		t.Fatal("empty-task capsule accepted")
	}
	got, ok := store.Get("loop", 1)
	if !ok || got.Version != 1 {
		t.Fatalf("Get(loop, 1) = %+v, %t", got, ok)
	}
	// The stored copy is immutable: mutating a returned capsule must not
	// corrupt later lookups.
	got.Code[0] ^= 0xff
	again, _ := store.Get("loop", 1)
	if again.Code[0] == got.Code[0] {
		t.Fatal("store returned aliased capsule bytes")
	}
	if v2got, ok := store.Get("loop", 2); !ok || v2got.Checksum() != v2.Checksum() {
		t.Fatalf("Get(loop, 2) checksum %x, want %x", v2got.Checksum(), v2.Checksum())
	}
	if _, ok := store.Get("loop", 9); ok {
		t.Fatal("Get of unregistered version succeeded")
	}
}

// --- rollout policies ---------------------------------------------------------

func TestRolloutPolicyStages(t *testing.T) {
	cells := []rolloutCell{
		{Index: 0, Replicas: 4, Masters: 2},
		{Index: 1, Replicas: 2, Masters: 1},
		{Index: 2, Replicas: 6, Masters: 1},
	}
	if got := allAtOnceStages(cells); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("all-at-once stages = %v", got)
	}
	got := cellByCellStages(cells)
	if len(got) != 3 || got[0][0] != 0 || got[1][0] != 1 || got[2][0] != 2 {
		t.Fatalf("cell-by-cell stages = %v", got)
	}
	// Canary picks the smallest blast radius: fewest masters, then fewest
	// replicas — cell b (1 master, 2 replicas) beats c (1 master, 6).
	canary := canaryCellStages(cells)
	if len(canary) != 2 || len(canary[0]) != 1 || canary[0][0] != 1 {
		t.Fatalf("canary stages = %v, want [[1] [0 2]]", canary)
	}
	if len(canary[1]) != 2 || canary[1][0] != 0 || canary[1][1] != 2 {
		t.Fatalf("canary rest = %v, want [0 2]", canary[1])
	}
	if got := canaryCellStages(cells[:1]); len(got) != 1 {
		t.Fatalf("single-cell canary stages = %v, want one batch", got)
	}
}

// TestRolloutPlansListEachCellOnce is the contract every built-in rollout
// strategy keeps, checked over seeded random hosting sets: the plan's
// batches are non-empty and together list each hosting cell exactly
// once. The coordinator runs the plan as given.
func TestRolloutPlansListEachCellOnce(t *testing.T) {
	rng := sim.NewRNG(11)
	for i := 0; i < 2000; i++ {
		var cells []rolloutCell
		for c := 0; c < 8; c++ {
			if rng.Bool(0.5) {
				replicas := 1 + rng.Intn(6)
				cells = append(cells, rolloutCell{Index: c, Replicas: replicas, Masters: rng.Intn(replicas + 1)})
			}
		}
		if len(cells) == 0 {
			continue
		}
		for _, name := range sim.SortedKeys(rolloutStrategies) {
			plan := rolloutStrategies[name](cells)
			seen := make(map[int]int, len(cells))
			for _, batch := range plan {
				if len(batch) == 0 {
					t.Fatalf("set %d: %s plan %v has an empty batch", i, name, plan)
				}
				for _, c := range batch {
					seen[c]++
				}
			}
			if len(seen) != len(cells) {
				t.Fatalf("set %d: %s plan %v lists %d cells, want %d", i, name, plan, len(seen), len(cells))
			}
			for _, cc := range cells {
				if seen[cc.Index] != 1 {
					t.Fatalf("set %d: %s plan %v lists cell %d %d times", i, name, plan, cc.Index, seen[cc.Index])
				}
			}
		}
	}
}

// TestRolloutPolicyRegistry covers the strategy table: the three
// built-ins are listed, StartRollout resolves the empty name to
// canary-cell, and an unknown name is refused before anything starts.
func TestRolloutPolicyRegistry(t *testing.T) {
	names := sim.SortedKeys(rolloutStrategies)
	if want := []string{RolloutAllAtOnce, RolloutCanaryCell, RolloutCellByCell}; !slices.Equal(names, want) {
		t.Fatalf("strategy table = %v, want %v", names, want)
	}
	campus, err := NewOTACampus(1)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	if _, err := campus.StartRollout(OTACampusRolloutSpec("no-such-strategy")); err == nil ||
		!strings.Contains(err.Error(), `unknown rollout policy "no-such-strategy"`) {
		t.Fatalf("unknown strategy: err = %v", err)
	}
	log := campus.Events().Log()
	rollout, err := campus.StartRollout(OTACampusRolloutSpec(""))
	if err != nil {
		t.Fatal(err)
	}
	if want := canaryCellStages(rollout.rolloutCells()); !reflect.DeepEqual(rollout.stages, want) {
		t.Fatalf("default stages = %v, want the canary plan %v", rollout.stages, want)
	}
	starts := 0
	for _, ev := range log.Events() {
		if re, ok := ev.(RolloutEvent); ok {
			starts++
			if re.Strategy != RolloutCanaryCell {
				t.Fatalf("default rollout reports strategy %q, want %q", re.Strategy, RolloutCanaryCell)
			}
		}
	}
	if starts == 0 {
		t.Fatal("no RolloutEvent published")
	}
}

// --- campus rollout acceptance ------------------------------------------------

// otaRun replays the ota-campus scenario once and returns its rendered
// stream, raw events and final metrics.
func otaRun(t *testing.T, seed uint64) ([]string, []Event, map[string]float64) {
	t.Helper()
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioOTACampus, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	log := exp.Campus.Events().Log()
	exp.Campus.Run(exp.DefaultHorizon)
	return log.Strings(), log.Events(), exp.Metrics()
}

// TestOTACampusRolloutAcceptance is the PR's acceptance scenario: the
// staged canary rollout completes across all four cells — through the
// lossy ring backbone and unit-b's radio PER burst — with every loop
// master on v2, zero safety or timing invariant violations, no
// rollbacks, and byte-identical same-seed campus streams.
func TestOTACampusRolloutAcceptance(t *testing.T) {
	lines, events, metrics := otaRun(t, 1)

	var phases []RolloutPhase
	deliveries, rollbacks := 0, 0
	var stagePlans [][]string
	for _, ev := range events {
		switch e := ev.(type) {
		case RolloutEvent:
			phases = append(phases, e.Phase)
			if e.Phase == RolloutPhaseActivated {
				stagePlans = append(stagePlans, e.Cells)
			}
		case CapsuleDeliveryEvent:
			deliveries++
			if !e.OK {
				t.Fatalf("capsule delivery failed: %+v", e)
			}
			if e.Version != 2 {
				t.Fatalf("capsule delivery carried v%d, want v2", e.Version)
			}
		case RollbackEvent:
			rollbacks++
		}
	}
	wantPhases := []RolloutPhase{
		RolloutPhaseStart,
		RolloutPhaseStaged, RolloutPhaseActivated,
		RolloutPhaseStaged, RolloutPhaseActivated,
		RolloutPhaseComplete,
	}
	if len(phases) != len(wantPhases) {
		t.Fatalf("rollout phases = %v, want %v", phases, wantPhases)
	}
	for i, p := range wantPhases {
		if phases[i] != p {
			t.Fatalf("rollout phases = %v, want %v", phases, wantPhases)
		}
	}
	// The canary stage upgrades exactly one cell; the second stage the
	// other three.
	if len(stagePlans) != 2 || len(stagePlans[0]) != 1 || len(stagePlans[1]) != 3 {
		t.Fatalf("activated stages = %v, want canary then the rest", stagePlans)
	}
	// Every replica of every loop received exactly one capsule: 4 cells x
	// 2 tasks x 2 candidates.
	if deliveries != 16 {
		t.Fatalf("capsule deliveries = %d, want 16", deliveries)
	}
	if rollbacks != 0 {
		t.Fatalf("rollbacks = %d, want none", rollbacks)
	}
	if metrics["rollout_complete"] != 1 {
		t.Fatalf("rollout_complete = %v, want 1", metrics["rollout_complete"])
	}
	if metrics["tasks_v2"] != 8 {
		t.Fatalf("tasks_v2 = %v, want all 8 loop masters upgraded", metrics["tasks_v2"])
	}
	// Safety AND timing invariants hold across the whole stream,
	// including both health windows.
	checkers := append(DefaultInvariants(), TimingInvariants(0, 0)...)
	if vs := CheckEvents(events, checkers...); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}

	again, _, _ := otaRun(t, 1)
	if len(lines) != len(again) {
		t.Fatalf("same-seed campus streams differ in length: %d vs %d", len(lines), len(again))
	}
	for i := range lines {
		if lines[i] != again[i] {
			t.Fatalf("same-seed campus streams diverge at line %d:\n  %s\n  %s", i, lines[i], again[i])
		}
	}
}

// TestOTABadCapsuleRollback seeds a bad capsule (attests cleanly, never
// actuates): the health window trips missed-actuation, exactly one
// RollbackEvent fires, and the task resumes on the prior version with
// its controller state intact.
func TestOTABadCapsuleRollback(t *testing.T) {
	campus, err := NewOTACampus(3)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	campus.Run(5 * time.Second)

	bad, err := OTABadCapsule("a-press-0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := campus.Capsules().Register(bad); err != nil {
		t.Fatal(err)
	}
	rollout, err := campus.StartRollout(RolloutSpec{
		Tasks:          []string{"a-press-0"},
		Version:        3,
		Strategy:       RolloutAllAtOnce,
		HealthWindow:   1500 * time.Millisecond,
		ActuationBound: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)

	if rollout.State() != RolloutRolledBack {
		t.Fatalf("rollout state = %s (%s), want rolled-back", rollout.State(), rollout.Reason())
	}
	if !strings.HasPrefix(rollout.Reason(), "missed-actuation") {
		t.Fatalf("rollback reason = %q, want missed-actuation", rollout.Reason())
	}
	var rollbacks []RollbackEvent
	var resumedAfter int
	for _, ev := range log.Events() {
		switch e := ev.(type) {
		case RollbackEvent:
			rollbacks = append(rollbacks, e)
		case CellEvent:
			if act, ok := e.Inner.(*ActuationEvent); ok && act.Task == "a-press-0" &&
				len(rollbacks) > 0 && act.At > rollbacks[0].At {
				resumedAfter++
			}
		}
	}
	if len(rollbacks) != 1 {
		t.Fatalf("rollback events = %d, want exactly one", len(rollbacks))
	}
	rb := rollbacks[0]
	if rb.Task != "a-press-0" || rb.FromVersion != 3 || rb.ToVersion != 1 {
		t.Fatalf("rollback = %+v, want a-press-0 v3 -> v1", rb)
	}
	if len(rb.Cells) != 1 || rb.Cells[0] != "unit-a" {
		t.Fatalf("rollback cells = %v, want [unit-a]", rb.Cells)
	}
	// Both replicas run the prior version again, nothing stays staged,
	// and the loop actuates after the rollback.
	cell := campus.Cell("unit-a")
	for _, id := range []NodeID{3, 4} {
		if v, ok := cell.Node(id).CapsuleVersion("a-press-0"); !ok || v != 1 {
			t.Fatalf("node %d capsule version = %d, %t, want v1", id, v, ok)
		}
		if _, staged := cell.Node(id).StagedVersion("a-press-0"); staged {
			t.Fatalf("node %d still has a staged capsule after rollback", id)
		}
	}
	if resumedAfter == 0 {
		t.Fatal("task never actuated after the rollback")
	}
	// State continuity: the v1 law resumes where it left off — the
	// constant feed (48) yields the same command as before the upgrade,
	// out = 2 x (50 - 48) = 4.
	if out, ok := cell.Node(3).LastOutput("a-press-0"); !ok || out != 4 {
		t.Fatalf("post-rollback output = %v, %t, want 4 (v1 law, state intact)", out, ok)
	}
	// The untargeted sibling loop was never touched.
	if v, ok := cell.Node(5).CapsuleVersion("a-press-1"); !ok || v != 1 {
		t.Fatalf("sibling task capsule version = %d, %t, want untouched v1", v, ok)
	}
}

// TestHealthWindowStretchesToCoverActuationBound: with the default
// HealthWindow (3s) and a longer ActuationBound (5s), a bound-length
// silence could never fit inside the window — a bad capsule would sail
// through. The rollout must stretch the window past the bound so
// missed-actuation stays detectable.
func TestHealthWindowStretchesToCoverActuationBound(t *testing.T) {
	campus, err := NewOTACampus(13)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	campus.Run(5 * time.Second)
	bad, err := OTABadCapsule("a-press-0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := campus.Capsules().Register(bad); err != nil {
		t.Fatal(err)
	}
	rollout, err := campus.StartRollout(RolloutSpec{
		Tasks:          []string{"a-press-0"},
		Version:        3,
		Strategy:       RolloutAllAtOnce,
		ActuationBound: 5 * time.Second, // > the 3s default window
	})
	if err != nil {
		t.Fatal(err)
	}
	campus.Run(15 * time.Second)
	if rollout.State() != RolloutRolledBack {
		t.Fatalf("rollout state = %s (%s), want rolled-back — the health window must outlast the actuation bound",
			rollout.State(), rollout.Reason())
	}
	if !strings.HasPrefix(rollout.Reason(), "missed-actuation") {
		t.Fatalf("rollback reason = %q, want missed-actuation", rollout.Reason())
	}
}

// TestRolloutCatchesReplicasCreatedMidRollout kills unit-d wholesale
// right after a cell-by-cell rollout starts: its two loops escalate to
// peer cells mid-rollout, creating replicas that were not in the
// start-of-rollout snapshot (and still run v1). The rollout must
// re-scan after its planned stages and upgrade the stragglers in a
// catch-up stage instead of completing with mixed versions.
func TestRolloutCatchesReplicasCreatedMidRollout(t *testing.T) {
	campus, err := NewOTACampus(1)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	members := make([]NodeID, OTACellNodes)
	for i := range members {
		members[i] = NodeID(i + 1)
	}
	if err := campus.ApplyFaultPlan("unit-d",
		KillNodesPlan("kill-unit-d", 10500*time.Millisecond, members...)); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	rollout, err := campus.StartRollout(OTACampusRolloutSpec(RolloutCellByCell))
	if err != nil {
		t.Fatal(err)
	}
	campus.Run(30 * time.Second)

	if rollout.State() != RolloutComplete {
		t.Fatalf("rollout state = %s (%s), want complete", rollout.State(), rollout.Reason())
	}
	// The planned four stages gained at least one catch-up stage for the
	// escalated replicas.
	if got := len(rollout.Stages()); got < 5 {
		t.Fatalf("stages = %d (%v), want the 4 planned + a catch-up stage", got, rollout.Stages())
	}
	// No live master still runs v1: the escalated d-loops were caught.
	if n := tasksOnVersion(campus, 2); n != 8 {
		t.Fatalf("tasks on v2 = %d, want all 8 including the escalated d-loops", n)
	}
}

// TestRolloutSkipsReplicasRetiredMidRollout: a replica retired after
// the start-of-rollout snapshot (here the backup of c-press-0, pulled
// during an earlier stage's health window) must be dropped from the
// target list — not abort the whole rollout with a staging failure.
func TestRolloutSkipsReplicasRetiredMidRollout(t *testing.T) {
	campus, err := NewOTACampus(1)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	campus.Run(10 * time.Second)
	rollout, err := campus.StartRollout(OTACampusRolloutSpec(RolloutCellByCell))
	if err != nil {
		t.Fatal(err)
	}
	// Cell-by-cell reaches unit-c around 16s; retire its backup at 15s,
	// mid-rollout but before unit-c's prepare leg lands.
	campus.Engine().After(5*time.Second, func() {
		if err := campus.Cell("unit-c").Node(4).RetireTask("c-press-0"); err != nil {
			t.Errorf("retire: %v", err)
		}
	})
	campus.Run(30 * time.Second)

	if rollout.State() != RolloutComplete {
		t.Fatalf("rollout state = %s (%s), want complete despite the retired backup",
			rollout.State(), rollout.Reason())
	}
	deliveries := 0
	for _, ev := range log.Events() {
		if d, ok := ev.(CapsuleDeliveryEvent); ok {
			deliveries++
			if d.Cell == "unit-c" && d.Node == 4 && d.Task == "c-press-0" {
				t.Fatalf("capsule delivered to the retired replica: %+v", d)
			}
		}
	}
	if deliveries != 15 {
		t.Fatalf("capsule deliveries = %d, want 15 (16 replicas minus the retired one)", deliveries)
	}
	if v, ok := campus.Cell("unit-c").Node(3).CapsuleVersion("c-press-0"); !ok || v != 2 {
		t.Fatalf("c-press-0 master version = %d, %t, want v2", v, ok)
	}
}

// TestOTARolloutRollsBackWhenPartitionedMidRollout drives a FaultStep
// link choreography against a staged rollout: both of unit-a's ring
// links sever right after the canary stage activates, the second
// stage's prepare legs find no route, and the rollout rolls the canary
// back — the campus must never settle on mixed versions.
func TestOTARolloutRollsBackWhenPartitionedMidRollout(t *testing.T) {
	campus, err := NewOTACampus(5)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	sever := FaultPlan{
		Name: "isolate-unit-a",
		Steps: []FaultStep{
			{At: 10500 * time.Millisecond, LinkDown: &LinkRef{A: "unit-a", B: "unit-b"}},
			{At: 10500 * time.Millisecond, LinkDown: &LinkRef{A: "unit-d", B: "unit-a"}},
		},
	}
	if err := campus.ApplyFaultPlan("unit-a", sever); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	rollout, err := campus.StartRollout(OTACampusRolloutSpec(RolloutCanaryCell))
	if err != nil {
		t.Fatal(err)
	}
	campus.Run(15 * time.Second)

	if rollout.State() != RolloutRolledBack {
		t.Fatalf("rollout state = %s (%s), want rolled-back after the partition", rollout.State(), rollout.Reason())
	}
	rollbacks := 0
	for _, ev := range log.Events() {
		if _, ok := ev.(RollbackEvent); ok {
			rollbacks++
		}
	}
	// The canary (unit-a) had activated both its loops; both revert.
	if rollbacks != 2 {
		t.Fatalf("rollback events = %d, want unit-a's two loops", rollbacks)
	}
	if n := tasksOnVersion(campus, 2); n != 0 {
		t.Fatalf("%d tasks still on v2 after rollback — mixed versions persisted", n)
	}
	if n := tasksOnVersion(campus, 1); n != 8 {
		t.Fatalf("tasks on v1 = %d, want all 8", n)
	}
}

// TestRolloutRejectsBadSpecs covers StartRollout's validation surface.
func TestRolloutRejectsBadSpecs(t *testing.T) {
	campus, err := NewOTACampus(11)
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	if _, err := campus.StartRollout(RolloutSpec{Version: 2}); err == nil {
		t.Fatal("empty task list accepted")
	}
	if _, err := campus.StartRollout(RolloutSpec{Tasks: []string{"nope"}, Version: 2}); err == nil {
		t.Fatal("unknown task accepted")
	}
	if _, err := campus.StartRollout(RolloutSpec{Tasks: []string{"a-press-0"}, Version: 9}); err == nil {
		t.Fatal("unregistered version accepted")
	}
	if _, err := campus.StartRollout(RolloutSpec{Tasks: []string{"a-press-0"}, Version: 2, Strategy: "zigzag"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := campus.StartRollout(OTACampusRolloutSpec("")); err != nil {
		t.Fatal(err)
	}
	// One rollout per task at a time.
	if _, err := campus.StartRollout(RolloutSpec{Tasks: []string{"a-press-0"}, Version: 2}); err == nil {
		t.Fatal("concurrent rollout for the same task accepted")
	}
}

// --- mode-change-line ---------------------------------------------------------

// TestModeChangeLineSwitchesLawsUnderLoss runs the mixed-workload
// scenario: four synchronized mode switches ride the line under baseline
// loss and a PER burst, the purge law actuates only inside its
// production windows, and same-seed streams are byte-identical.
func TestModeChangeLineSwitchesLawsUnderLoss(t *testing.T) {
	run := func() ([]string, []Event, map[string]float64) {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioModeChangeLine, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		log := exp.Cell.Events().Log()
		exp.Cell.Run(exp.DefaultHorizon)
		return log.Strings(), log.Events(), exp.Metrics()
	}
	lines, events, metrics := run()

	modeChanges := 0
	var purgeTimes, normalTimes []time.Duration
	for _, ev := range events {
		switch e := ev.(type) {
		case ModeChangeEvent:
			modeChanges++
		case *ActuationEvent:
			switch e.Task {
			case ModeLinePurgeTask:
				purgeTimes = append(purgeTimes, e.At)
			case ModeLineNormalTask:
				normalTimes = append(normalTimes, e.At)
			}
		}
	}
	if modeChanges != 4 {
		t.Fatalf("mode changes = %d, want the 4 scheduled switches", modeChanges)
	}
	if metrics["normal_actuations"] == 0 || metrics["purge_actuations"] == 0 {
		t.Fatalf("metrics = %v, want both laws to have actuated", metrics)
	}
	// Outside its production windows the purge law must be silent:
	// between the 2s switch to normal and the 10s switch to purge, and
	// between the 18s and 26s switches. Each switch takes effect two
	// TDMA frames after it is issued (plus line relay latency), so the
	// windows carry slack on the trailing edge only.
	const slack = 2 * time.Second
	for _, at := range purgeTimes {
		inWindow := at <= 2*time.Second+slack ||
			(at > 10*time.Second && at <= 18*time.Second+slack) ||
			at > 26*time.Second
		if !inWindow {
			t.Fatalf("purge actuation at %v, outside every purge window", at)
		}
	}
	// The normal law owns the complementary windows.
	for _, at := range normalTimes {
		inWindow := at <= 10*time.Second+slack ||
			(at > 18*time.Second && at <= 26*time.Second+slack)
		if !inWindow {
			t.Fatalf("normal actuation at %v, outside every normal window", at)
		}
	}
	// Safety and timing invariants hold through every switch.
	checkers := append(DefaultInvariants(), TimingInvariants(0, 0)...)
	if vs := CheckEvents(events, checkers...); len(vs) != 0 {
		t.Fatalf("invariants violated: %v", vs)
	}

	again, _, _ := run()
	if len(lines) != len(again) {
		t.Fatalf("same-seed streams differ in length: %d vs %d", len(lines), len(again))
	}
	for i := range lines {
		if lines[i] != again[i] {
			t.Fatalf("same-seed streams diverge at line %d:\n  %s\n  %s", i, lines[i], again[i])
		}
	}
}
