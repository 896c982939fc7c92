package evm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// TestPipelineMultiHopControl drives the line-cell scenario end to end:
// sensor snapshots relayed down the line feed the far-end primary, its
// actuations relay back to the gateway, a primary crash fails over
// across the line, and the backup's actuations keep arriving through
// the surviving relays.
func TestPipelineMultiHopControl(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioPipeline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	log := exp.Cell.Events().Log()
	exp.Cell.Run(10 * time.Second)
	isAct := func(ev Event) bool { _, ok := ev.(*ActuationEvent); return ok }
	pre := log.Count(isAct)
	if pre == 0 {
		t.Fatal("no actuations reached the gateway over the line")
	}
	// Every pre-crash actuation must come from the far-end primary —
	// proof the message crossed the relays, since the primary is three
	// hops from the gateway.
	for _, ev := range log.Events() {
		if act, ok := ev.(*ActuationEvent); ok && act.Node != PipePrimary {
			t.Fatalf("pre-crash actuation from node %d, want primary %d", act.Node, PipePrimary)
		}
	}
	if m := exp.Metrics(); m["relayed_frags"] == 0 {
		t.Fatal("line routes relayed no fragments")
	}

	if err := exp.Cell.ApplyFaultPlan(PipelinePrimaryCrashPlan(0)); err != nil {
		t.Fatal(err)
	}
	exp.Cell.Run(20 * time.Second)
	failovers := log.Count(func(ev Event) bool { _, ok := ev.(FailoverEvent); return ok })
	if failovers == 0 {
		t.Fatal("primary crash produced no fail-over across the line")
	}
	post := log.Count(isAct) - pre
	if post == 0 {
		t.Fatal("no actuations reached the gateway after the fail-over")
	}
	backupActs := 0
	for _, ev := range log.Events() {
		if act, ok := ev.(*ActuationEvent); ok && act.Node == PipeBackup {
			backupActs++
		}
	}
	if backupActs == 0 {
		t.Fatal("backup's actuations never arrived at the gateway")
	}
	if m := exp.Metrics(); m["active_controller"] != float64(PipeBackup) {
		t.Fatalf("active controller = %v, want backup %d", m["active_controller"], PipeBackup)
	}
}

// TestPipelineLineDutyBelowMesh checks the energy story of the line
// schedule: stations listening only to their neighbors spend a smaller
// fraction of the frame awake than the full-mesh equivalent with the
// same slot budget.
func TestPipelineLineDutyBelowMesh(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioPipeline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	exp.Cell.Run(time.Second)
	duty := exp.Metrics()["line_duty"]
	if duty <= 0 {
		t.Fatal("line duty not measured")
	}
	// Mesh equivalent for 5 nodes x 3 slots in a 50-slot frame: sync +
	// 3 own + 12 listen slots = 0.32.
	const meshDuty = (1.0 + 3 + 3*4) / 50.0
	if duty >= meshDuty {
		t.Fatalf("line duty %.3f not below mesh-equivalent %.3f", duty, meshDuty)
	}
}

// TestPipelineDeterminism: equal seeds reproduce the line cell's event
// stream byte for byte, relays and multi-hop routing included.
func TestPipelineDeterminism(t *testing.T) {
	run := func() []string {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioPipeline, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		if err := exp.Cell.ApplyFaultPlan(PipelinePrimaryCrashPlan(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		log := exp.Cell.Events().Log()
		exp.Cell.Run(25 * time.Second)
		return log.Strings()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("same-seed streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}
}

// TestLineScheduleValidation: a line cell whose rounds do not fit the
// frame is rejected, and its failed construction leaves nothing behind.
func TestLineScheduleValidation(t *testing.T) {
	// 30 nodes x 2 slots = 60 line slots: too many for a 50-slot frame.
	err := buildFails(t, CellSpec{Seed: 1, Nodes: Members(30), Line: true, VC: testVC(4)})
	if !strings.Contains(err.Error(), "does not fit") {
		t.Fatalf("oversized line schedule: %v", err)
	}
}

// TestLineCellAdmitsAlongTheLine admits a sixth station at the far end of
// the pipeline's line cell: the grown schedule keeps every member hearing
// only its line neighbors, each member keeps its rounds of slots, and the
// new station's join is relayed station by station to the head.
func TestLineCellAdmitsAlongTheLine(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioPipeline, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	cell := exp.Cell
	log := cell.Events().Log()
	cell.Run(2 * time.Second)
	const station NodeID = 6
	if _, err := cell.AddNodeRuntime(station); err != nil {
		t.Fatal(err)
	}
	line := cell.Members()
	sched := cell.Network().Schedule()
	for _, slot := range sim.SortedKeys(sched) {
		as := sched[slot]
		i := slices.Index(line, as.Owner)
		var want []NodeID
		if i > 0 {
			want = append(want, line[i-1])
		}
		if i >= 0 && i < len(line)-1 {
			want = append(want, line[i+1])
		}
		if i < 0 || !slices.Equal(as.Listeners, want) {
			t.Fatalf("slot %d: owner %v heard by %v, want its line neighbors %v of %v", slot, as.Owner, as.Listeners, want, line)
		}
	}
	for _, id := range line {
		if n := len(sched.OwnedSlots(id)); n != 3 {
			t.Fatalf("station %v owns %d slots, want 3", id, n)
		}
	}
	cell.Run(2 * time.Second)
	var joined *JoinEvent
	for _, ev := range log.Events() {
		if j, ok := ev.(JoinEvent); ok && j.Node == station {
			joined = &j
		}
	}
	if joined == nil {
		t.Fatalf("no JoinEvent for station %v within 2 s of its admission", station)
	}
	t.Logf("join of station %v heard at %v", station, joined.At)
}
