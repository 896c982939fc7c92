package evm

import (
	"fmt"
	"time"
)

// Federation scenario names (the fixed table in registry.go).
const (
	// ScenarioRefinery is a 4-cell x 16-node campus: four process units,
	// each a full TDMA cell with its own gateway, head, four control
	// loops and six spare nodes, bridged by the backbone. The workload
	// class is an order of magnitude above the single-cell scenarios.
	ScenarioRefinery = "refinery"
	// ScenarioCampusFailover is the self-contained federation demo: a
	// two-cell campus where one cell dies wholesale at t=10s and the
	// coordinator resumes its control loop in the peer cell.
	ScenarioCampusFailover = "campus-failover"
	// ScenarioRefineryRing is the refinery campus on an explicit ring
	// backbone (a-b-c-d-a) whose far side is lossy, with homeward
	// rebalancing enabled — the policy-comparison workload: the spec's
	// Policy decides where escalated tasks land, and routing-aware
	// policies avoid the lossy two-hop path.
	ScenarioRefineryRing = "refinery-ring"
	// ScenarioRefineryRingSever is the link-dynamics acceptance workload:
	// the refinery on a clean ring whose unit-a dies at 10s and recovers
	// at 22s, while the d-a ring link is severed mid-outage (12s) and
	// only repaired at 30s. Escalated tasks rebalance home through the
	// prepare/commit handshake, with traffic from unit-d forced the long
	// way round (d-c-b-a); the invariant harness must find zero
	// dual-master ticks.
	ScenarioRefineryRingSever = "refinery-ring-sever"
)

// RefineryCellNodes is the member count of every refinery unit; node IDs
// run 1..RefineryCellNodes (gateway 1, head 2, loop pairs 3..10, spares
// 11..16). Fault plans that target a whole unit crash this ID range.
const RefineryCellNodes = 16

// RefineryMembers returns the node IDs of one refinery unit, for
// building whole-cell fault plans without a live campus.
func RefineryMembers() []NodeID {
	ids := make([]NodeID, RefineryCellNodes)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	return ids
}

// campusPID is the shared synthetic control law for federation cells.
func campusPID() (TaskLogic, error) {
	return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
		Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
}

// refineryUnit declares one process-unit cell of the refinery campus:
// 16 nodes on a 4x4 grid — gateway 1, head 2, four primary/backup loop
// pairs on nodes 3..10, spares 11..16 — plus a synthetic four-port feed.
// Task IDs carry the unit letter so they stay campus-unique.
func refineryUnit(letter string) CellSpec {
	tasks := make([]TaskSpec, 0, 4)
	for i := 0; i < 4; i++ {
		tasks = append(tasks, TaskSpec{
			ID:              fmt.Sprintf("%s-loop-%d", letter, i),
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{NodeID(3 + 2*i), NodeID(4 + 2*i)},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic:       campusPID,
		})
	}
	name := "unit-" + letter
	return CellSpec{
		Name:      name,
		Nodes:     Members(RefineryCellNodes),
		Placement: Grid(4, 4),
		// Three TX slots: after a fail-over one controller may hold two
		// active loops (two actuations + one health bundle).
		SlotsPerNode: 3,
		VC:           VCConfig{Name: name, Head: 2, Gateway: 1, Tasks: tasks, DormantAfter: 5 * time.Second},
		Feed: &FeedSpec{
			Source: 1,
			Period: 250 * time.Millisecond,
			Sample: fixedFeed(
				SensorReading{Port: 0, Value: 50}, SensorReading{Port: 1, Value: 49},
				SensorReading{Port: 2, Value: 51}, SensorReading{Port: 3, Value: 50},
			),
		},
	}
}

// campusMetrics summarizes coordinator placements: how many tasks exist,
// how many run outside their origin cell, how many sit on live nodes,
// and how many are back home in their origin cell.
func campusMetrics(campus *Campus) func() map[string]float64 {
	return func() map[string]float64 {
		placements := campus.TaskPlacements()
		foreign, alive := 0, 0
		//evm:allow-maporder commutative integer counts over pure read-only lookups; visit order cannot change the totals
		for _, p := range placements {
			if p.Foreign {
				foreign++
			}
			cell := campus.Cell(p.Cell)
			if r := cell.Medium().Radio(p.Node); r != nil && !r.Failed() {
				alive++
			}
		}
		return map[string]float64{
			"tasks_total":   float64(len(placements)),
			"tasks_foreign": float64(foreign),
			"tasks_alive":   float64(alive),
			"tasks_home":    float64(len(placements) - foreign),
		}
	}
}

// refineryCells declares the four process-unit cells of the refinery.
func refineryCells() []CellSpec {
	units := []string{"a", "b", "c", "d"}
	cells := make([]CellSpec, 0, len(units))
	for _, u := range units {
		cells = append(cells, refineryUnit(u))
	}
	return cells
}

// campusScenario builds a federation experiment on the campus cfg
// declares, under the spec's seed and placement policy, reporting
// campusMetrics. choreography, when non-nil, returns a fault plan the
// builder applies to faultCell before the run.
func campusScenario(spec RunSpec, cfg CampusConfig, horizon time.Duration, cells []CellSpec,
	faultCell string, choreography func(*Campus) FaultPlan) (*Experiment, error) {
	cfg.Seed, cfg.Placement = spec.Seed, spec.Policy
	campus, err := NewCampus(cfg, cells...)
	if err != nil {
		return nil, err
	}
	if choreography != nil {
		if err := campus.ApplyFaultPlan(faultCell, choreography(campus)); err != nil {
			campus.Stop()
			return nil, err
		}
	}
	return &Experiment{
		Campus:         campus,
		DefaultHorizon: horizon,
		Metrics:        campusMetrics(campus),
		Cleanup:        campus.Stop,
	}, nil
}

// buildRefineryScenario assembles the 4x16 refinery campus on the
// default full-mesh backbone. Fault plans from the RunSpec target the
// cell named by FaultCell (default unit-a); spec.Policy selects the
// placement policy (default least-loaded).
func buildRefineryScenario(spec RunSpec) (*Experiment, error) {
	return campusScenario(spec, CampusConfig{}, 30*time.Second, refineryCells(), "", nil)
}

// refineryRing is the refinery on an explicit ring backbone a-b-c-d-a
// with homeward rebalancing: when a killed unit recovers, its tasks
// migrate back. The far side (b-c and c-d) drops farPER of hops.
func refineryRing(farPER float64, maxRetries int) CampusConfig {
	return CampusConfig{
		Rebalance: true,
		Backbone:  BackboneConfig{RetryAfter: 150 * time.Millisecond, MaxRetries: maxRetries},
		Links: []BackboneLink{
			{A: "unit-a", B: "unit-b"},
			{A: "unit-b", B: "unit-c", Config: LinkConfig{PER: farPER}},
			{A: "unit-c", B: "unit-d", Config: LinkConfig{PER: farPER}},
			{A: "unit-d", B: "unit-a"},
		},
	}
}

// buildRefineryRingScenario assembles the refinery on its ring backbone
// — the policy-comparison topology. Links a-b and d-a are clean; the far
// side drops 90% of hops, so reaching unit-c from unit-a costs two hops
// with a near-certain retransmit. Placement policies that ignore the
// backbone (least-loaded) ship tasks into that path and strand them for
// extra coordinator ticks; the campus-BQP policy prices hops and keeps
// every transfer on the clean one-hop links.
func buildRefineryRingScenario(spec RunSpec) (*Experiment, error) {
	return campusScenario(spec, refineryRing(0.9, 2), 35*time.Second, refineryCells(), "", nil)
}

// buildRefineryRingSeverScenario assembles the refinery on a clean ring
// backbone with its fault choreography built in: unit-a dies wholesale
// at 10s (its four loops escalate over the ring) and recovers at 22s;
// the d-a ring link is severed at 12s — mid-outage — and repaired at
// 30s. When the recovered unit-a takes its loops back through the
// prepare/commit handshake, any loop hosted in unit-d must travel the
// long way round the severed ring (d-c-b-a), visible as a three-hop
// BackboneRouteEvent. The scenario is the acceptance workload for link
// dynamics + single-master safety: same-seed campus streams are
// byte-identical and the invariant harness reports zero dual-master
// ticks.
func buildRefineryRingSeverScenario(spec RunSpec) (*Experiment, error) {
	return campusScenario(spec, refineryRing(0, 4), 40*time.Second, refineryCells(), "unit-a",
		func(*Campus) FaultPlan {
			plan := RefineryOutagePlan(10*time.Second, 22*time.Second)
			plan.Name = "outage-and-sever"
			plan.Steps = append(plan.Steps,
				FaultStep{At: 12 * time.Second, LinkDown: &LinkRef{A: "unit-d", B: "unit-a"}},
				FaultStep{At: 30 * time.Second, LinkUp: &LinkRef{A: "unit-d", B: "unit-a"}},
			)
			return plan
		})
}

// RefineryOutagePlan is the policy-experiment fault plan: unit-a dies
// wholesale at from and recovers at until, driving escalation out over
// the ring and — on refinery-ring — rebalancing back home.
func RefineryOutagePlan(from, until time.Duration) FaultPlan {
	return OutageWindowPlan("outage-unit-a", from, until, RefineryMembers()...)
}

// buildCampusFailoverScenario is the two-cell outage demo: cell west
// runs one loop, cell east runs another with spare capacity; at t=10s
// every radio in west crashes and the coordinator ships west's loop over
// the backbone into east, where it resumes actuating.
func buildCampusFailoverScenario(spec RunSpec) (*Experiment, error) {
	unit := func(name, taskPrefix string) CellSpec {
		return CellSpec{
			Name:         name,
			Nodes:        Members(6),
			Placement:    Grid(3, 2),
			SlotsPerNode: 3,
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID:              taskPrefix + "-loop",
					SensorPort:      0,
					ActuatorPort:    10,
					Period:          250 * time.Millisecond,
					WCET:            5 * time.Millisecond,
					Candidates:      []NodeID{3, 4},
					DeviationTol:    5,
					DeviationWindow: 4,
					SilenceWindow:   8,
					MakeLogic:       campusPID,
				}},
				DormantAfter: 5 * time.Second,
			},
			Feed: &FeedSpec{
				Source: 1,
				Period: 250 * time.Millisecond,
				Sample: fixedFeed(SensorReading{Port: 0, Value: 50}),
			},
		}
	}
	return campusScenario(spec, CampusConfig{}, 30*time.Second,
		[]CellSpec{unit("west", "w"), unit("east", "e")}, "west",
		func(c *Campus) FaultPlan { return KillCellPlan(10*time.Second, c.Cell("west")) })
}
