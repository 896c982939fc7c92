package evm

import (
	"fmt"
	"strings"
	"time"

	"evm/internal/vm"
)

// OTA scenario names (the fixed table in registry.go).
const (
	// ScenarioOTACampus is the over-the-air acceptance workload: a 4-cell
	// campus running a VM control law on every loop receives a staged
	// campus-wide rollout to capsule v2 at OTARolloutAt (canary cell
	// first), over a lossy ring backbone and through a radio PER burst in
	// unit-b — the rollout must complete with zero invariant violations
	// and byte-identical same-seed campus streams.
	ScenarioOTACampus = "ota-campus"
	// ScenarioModeChangeLine is the mixed-workload "mode changes under
	// loss" scenario (open since PR 1): the pipeline line cell runs two
	// control laws — normal boost (mode 1) and purge (mode 2) — and the
	// segment head switches the whole line between them mid-run with
	// synchronized TDMA-frame mode changes, through baseline radio loss
	// and a PER burst covering one switch.
	ScenarioModeChangeLine = "mode-change-line"
)

// OTARolloutAt is when the ota-campus scenario starts its staged v2
// rollout.
const OTARolloutAt = 10 * time.Second

// OTACellNodes is the member count of every ota-campus cell: gateway 1,
// head 2, loop candidate pairs 3/4 and 5/6, spares 7/8.
const OTACellNodes = 8

// otaLawV1 is the deployed v1 control law: out = 2 x (50 - in), the
// direct-acting proportional law from the OTA example.
const otaLawV1 = `
	PUSHQ 50.0
	IN 0
	SUB
	PUSHQ 2.0
	MULQ
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`

// otaLawV2 is the retuned v2 law shipped over the air: setpoint 70,
// gain 3.
const otaLawV2 = `
	PUSHQ 70.0
	IN 0
	SUB
	PUSHQ 3.0
	MULQ
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`

// otaLawBad is a syntactically valid capsule that attests and
// instantiates cleanly but never produces an actuator command — the
// "seeded bad capsule" for rollback experiments. Activating it silences
// the task (VMLogic.Step errors on a program with no OUT), so the
// rollout's post-activation health window trips missed-actuation and
// reverts to the prior version.
const otaLawBad = `
	IN 0
	DROP
	HALT`

// OTACampusTasks lists the task IDs of the ota-campus scenario: two
// pressure loops per unit.
func OTACampusTasks() []string {
	out := make([]string, 0, 8)
	for _, u := range []string{"a", "b", "c", "d"} {
		for i := 0; i < 2; i++ {
			out = append(out, fmt.Sprintf("%s-press-%d", u, i))
		}
	}
	return out
}

// OTABadCapsule assembles the seeded bad capsule for a task: it attests
// and instantiates but never actuates, so a rollout activating it trips
// the health window's missed-actuation signal.
func OTABadCapsule(taskID string, version uint8) (Capsule, error) {
	return AssembleCapsule(taskID, version, otaLawBad)
}

// RegisterOTACapsules registers capsule versions v1 (the deployed law)
// and v2 (the retuned law) for every listed task. Each law is assembled
// once; Register copies the code, so every task's capsule shares it.
func RegisterOTACapsules(store *CapsuleStore, tasks []string) error {
	for _, ver := range []struct {
		v   uint8
		src string
	}{{1, otaLawV1}, {2, otaLawV2}} {
		code, err := vm.Assemble(ver.src)
		if err != nil {
			return err
		}
		for _, task := range tasks {
			if err := store.Register(Capsule{TaskID: task, Version: ver.v, Code: code}); err != nil {
				return err
			}
		}
	}
	return nil
}

// otaUnit declares one ota-campus cell: OTACellNodes nodes on a 4x2
// grid, two VM-law pressure loops on candidate pairs 3/4 and 5/6, and a
// synthetic two-port feed. The v1 law is assembled once per unit; every
// replica's interpreter copies it.
func otaUnit(letter string) CellSpec {
	lawV1, lawErr := vm.Assemble(otaLawV1)
	tasks := make([]TaskSpec, 0, 2)
	for i := 0; i < 2; i++ {
		taskID := fmt.Sprintf("%s-press-%d", letter, i)
		tasks = append(tasks, TaskSpec{
			ID:              taskID,
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{NodeID(3 + 2*i), NodeID(4 + 2*i)},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic: func() (TaskLogic, error) {
				if lawErr != nil {
					return nil, lawErr
				}
				return NewVMLogic(Capsule{TaskID: taskID, Version: 1, Code: lawV1})
			},
		})
	}
	name := "unit-" + letter
	return CellSpec{
		Name:         name,
		Nodes:        Members(OTACellNodes),
		Placement:    Grid(4, 2),
		SlotsPerNode: 3,
		VC:           VCConfig{Name: name, Head: 2, Gateway: 1, Tasks: tasks, DormantAfter: 5 * time.Second},
		Feed: &FeedSpec{
			Source: 1,
			Period: 250 * time.Millisecond,
			Sample: fixedFeed(SensorReading{Port: 0, Value: 48}, SensorReading{Port: 1, Value: 46}),
		},
	}
}

// NewOTACampus builds the 4-cell ota campus: units a..d on a lossy ring
// backbone (every link drops 20% of hops, so rollout legs retransmit),
// with capsule versions v1 and v2 registered for every loop.
func NewOTACampus(seed uint64) (*Campus, error) {
	return newOTACampus(seed, "")
}

// newOTACampus is NewOTACampus under the named placement policy.
func newOTACampus(seed uint64, policy string) (*Campus, error) {
	store := NewCapsuleStore()
	if err := RegisterOTACapsules(store, OTACampusTasks()); err != nil {
		return nil, err
	}
	cfg := CampusConfig{
		Seed:      seed,
		Placement: policy,
		Capsules:  store,
		Backbone: BackboneConfig{
			RetryAfter: 150 * time.Millisecond,
			MaxRetries: 6,
		},
		Links: []BackboneLink{
			{A: "unit-a", B: "unit-b", Config: LinkConfig{PER: 0.2}},
			{A: "unit-b", B: "unit-c", Config: LinkConfig{PER: 0.2}},
			{A: "unit-c", B: "unit-d", Config: LinkConfig{PER: 0.2}},
			{A: "unit-d", B: "unit-a", Config: LinkConfig{PER: 0.2}},
		},
	}
	return NewCampus(cfg, otaUnit("a"), otaUnit("b"), otaUnit("c"), otaUnit("d"))
}

// OTACampusRolloutSpec is the scenario's staged upgrade: every loop to
// capsule v2, canary cell first (strategy "" = canary-cell).
func OTACampusRolloutSpec(strategy string) RolloutSpec {
	return RolloutSpec{
		Tasks:    OTACampusTasks(),
		Version:  2,
		Strategy: strategy,
	}
}

// buildOTACampusScenario assembles the ota campus with its choreography
// built in: at OTARolloutAt the campus starts the staged v2 rollout
// while unit-b's radios run a 25% PER burst covering every stage's
// health window. Metrics report the rollout's terminal state and how
// many loop masters ended up executing v2.
func buildOTACampusScenario(spec RunSpec) (*Experiment, error) {
	campus, err := newOTACampus(spec.Seed, spec.Policy)
	if err != nil {
		return nil, err
	}
	burst := FaultPlan{
		Name: "per-burst-unit-b",
		Steps: []FaultStep{
			{At: OTARolloutAt, PERBurst: &PERBurst{PER: 0.25, For: 8 * time.Second}},
		},
	}
	if err := campus.ApplyFaultPlan("unit-b", burst); err != nil {
		campus.Stop()
		return nil, err
	}
	var rollout *Rollout
	campus.eng.After(OTARolloutAt, func() {
		// A refused start (e.g. a task escalated away mid-run) surfaces
		// through the metrics: rollout_complete stays 0.
		rollout, _ = campus.StartRollout(OTACampusRolloutSpec(""))
	})
	return &Experiment{
		Campus:         campus,
		DefaultHorizon: 30 * time.Second,
		Metrics: func() map[string]float64 {
			m := map[string]float64{
				"rollout_complete":    0,
				"rollout_rolled_back": 0,
				"tasks_v2":            float64(tasksOnVersion(campus, 2)),
			}
			if rollout != nil {
				if rollout.State() == RolloutComplete {
					m["rollout_complete"] = 1
				}
				if rollout.State() == RolloutRolledBack {
					m["rollout_rolled_back"] = 1
				}
			}
			return m
		},
		Cleanup: campus.Stop,
	}, nil
}

// tasksOnVersion counts tasks whose current master executes the given
// capsule version. Placement keys are "<origin-cell>/<task-id>".
func tasksOnVersion(campus *Campus, version uint8) int {
	n := 0
	//evm:allow-maporder commutative integer count over pure read-only lookups; visit order cannot change the total
	for key, p := range campus.TaskPlacements() {
		task := key
		if i := strings.IndexByte(key, '/'); i >= 0 {
			task = key[i+1:]
		}
		node := campus.Cell(p.Cell).Node(p.Node)
		if node == nil {
			continue
		}
		if v, ok := node.CapsuleVersion(task); ok && v == version {
			n++
		}
	}
	return n
}

// --- mode-change-line ---------------------------------------------------------

// Mode-change-line station IDs, in line order: gateway at the plant, a
// relay station, then the backup and primary boost controllers with the
// segment head between them — the head is line-adjacent to BOTH
// controllers, so its synchronized mode broadcasts (and role changes)
// reach them in one hop.
const (
	ModeLineGateway NodeID = 1
	ModeLineRelay   NodeID = 2
	ModeLineBackup  NodeID = 3
	ModeLineHead    NodeID = 4
	ModeLinePrimary NodeID = 5
)

// Mode-change-line task IDs and modes: mode 1 runs the normal boost
// law, mode 2 the purge law.
const (
	ModeLineNormalTask = "line-normal"
	ModeLinePurgeTask  = "line-purge"
	ModeLineNormal     = 1
	ModeLinePurge      = 2
)

// modeLineOrder returns the station sequence along the line.
func modeLineOrder() []NodeID {
	return []NodeID{ModeLineGateway, ModeLineRelay, ModeLineBackup, ModeLineHead, ModeLinePrimary}
}

// modeLineTask declares one of the two line laws.
func modeLineTask(id string, actuator uint8, setpoint float64) TaskSpec {
	return TaskSpec{
		ID:              id,
		SensorPort:      0,
		ActuatorPort:    actuator,
		Period:          250 * time.Millisecond,
		WCET:            5 * time.Millisecond,
		Candidates:      []NodeID{ModeLinePrimary, ModeLineBackup},
		DeviationTol:    5,
		DeviationWindow: 4,
		SilenceWindow:   8,
		MakeLogic: func() (TaskLogic, error) {
			return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
				Setpoint: setpoint, CutoffHz: 0.4, RateHz: 4})
		},
	}
}

// buildModeChangeLineScenario assembles the mode-switching pipeline: the
// five-station line cell runs both laws on the far-end controller pair,
// gated by the node mode. The head drives the production schedule —
// normal from 2s, purge at 10s, back to normal at 18s, purge again at
// 26s — with each switch broadcast two TDMA frames ahead. Baseline
// radio PER is 2% and a 30% burst covers the 18s switch, so mode
// changes, sensor relaying and actuation relaying all run under loss.
func buildModeChangeLineScenario(spec RunSpec) (*Experiment, error) {
	vc := VCConfig{
		Name:    "mode-line",
		Head:    ModeLineHead,
		Gateway: ModeLineGateway,
		Tasks: []TaskSpec{
			modeLineTask(ModeLineNormalTask, 10, 50),
			modeLineTask(ModeLinePurgeTask, 11, 80),
		},
		DormantAfter: 5 * time.Second,
	}
	cell, err := NewCell(CellSpec{
		Seed:         spec.Seed,
		Nodes:        modeLineOrder(),
		SlotsPerNode: 3,
		Line:         true,
		PER:          0.02,
		VC:           vc,
		Feed: &FeedSpec{Source: ModeLineGateway, Period: 250 * time.Millisecond,
			Sample: fixedFeed(SensorReading{Port: 0, Value: 48}),
			To:     []NodeID{ModeLinePrimary, ModeLineBackup}},
	})
	if err != nil {
		return nil, err
	}
	for _, n := range cell.Nodes() {
		n.SetModeTasks(ModeLineNormal, []string{ModeLineNormalTask})
		n.SetModeTasks(ModeLinePurge, []string{ModeLinePurgeTask})
	}
	normalActs, purgeActs := 0, 0
	sub := cell.Events().Subscribe(func(ev Event) {
		if act, ok := ev.(*ActuationEvent); ok {
			switch act.Task {
			case ModeLineNormalTask:
				normalActs++
			case ModeLinePurgeTask:
				purgeActs++
			}
		}
	})
	head := cell.Node(ModeLineHead).Head()
	schedule := []struct {
		at   time.Duration
		mode uint8
	}{
		{2 * time.Second, ModeLineNormal},
		{10 * time.Second, ModeLinePurge},
		{18 * time.Second, ModeLineNormal},
		{26 * time.Second, ModeLinePurge},
	}
	for _, sw := range schedule {
		mode := sw.mode
		cell.Engine().After(sw.at, func() { head.SetMode(mode, 2) })
	}
	if err := cell.ApplyFaultPlan(FaultPlan{
		Name: "per-burst-at-switch",
		Steps: []FaultStep{
			{At: 17 * time.Second, PERBurst: &PERBurst{PER: 0.3, For: 3 * time.Second}},
		},
	}); err != nil {
		cell.Stop()
		return nil, err
	}
	return &Experiment{
		Cell:           cell,
		DefaultHorizon: 32 * time.Second,
		Metrics: func() map[string]float64 {
			return map[string]float64{
				"normal_actuations": float64(normalActs),
				"purge_actuations":  float64(purgeActs),
				"primary_mode":      float64(cell.Node(ModeLinePrimary).Mode()),
				"backup_mode":       float64(cell.Node(ModeLineBackup).Mode()),
			}
		},
		Cleanup: func() {
			sub.Cancel()
			cell.Stop()
		},
	}, nil
}
