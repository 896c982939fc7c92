package fuzz

import (
	"fmt"
	"time"

	"evm"
)

// TaskID names cell c's i-th control loop, campus-unique.
func TaskID(cell string, i int) string { return fmt.Sprintf("%s-loop-%d", cell, i) }

// LineOrder returns the physical station order along a multi-hop line
// cell, derived from roles: the gateway at the head end, the spares as
// relay stations, then the controllers at the far end arranged so every
// backup sits line-adjacent to both its primary and the segment head
// (silence detection and takeover reports only travel one hop, exactly
// the pipeline-scenario shape).
func LineOrder(c CellGen) []evm.NodeID {
	order := []evm.NodeID{1}
	for i := 0; i < c.Spares; i++ {
		order = append(order, evm.NodeID(3+2*c.Tasks+i))
	}
	if c.Tasks == 1 {
		return append(order, 2, 4, 3)
	}
	return append(order, 3, 4, 2, 6, 5)
}

// Builder returns a ScenarioBuilder that reconstructs the spec's system
// for any run seed. Generated specs run only this way, through
// Runner.Build; the built-in scenario table never holds them.
func Builder(s Spec) evm.ScenarioBuilder {
	return func(run evm.RunSpec) (*evm.Experiment, error) { return buildExperiment(s, run) }
}

// Checkers builds a fresh copy of the complete oracle: the default
// invariant set plus the timing invariants at their default bounds.
func Checkers() []evm.InvariantChecker {
	return append(evm.DefaultInvariants(), evm.TimingInvariants(0, 0)...)
}

func buildExperiment(s Spec, run evm.RunSpec) (*evm.Experiment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Cells) == 1 && s.Cells[0].Multihop {
		return buildMultihop(s, run)
	}
	return buildCampus(s, run)
}

// fuzzPID is the shared native control law for generated cells.
func fuzzPID() (evm.TaskLogic, error) {
	return evm.NewPIDLogic(evm.PIDParams{Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
		Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
}

// taskSpecs declares the cell's control loops on the repo-wide candidate
// layout. VM cells pull their v1 capsule from the campus store.
func taskSpecs(c CellGen, store *evm.CapsuleStore) []evm.TaskSpec {
	tasks := make([]evm.TaskSpec, 0, c.Tasks)
	for i := 0; i < c.Tasks; i++ {
		id := TaskID(c.Name, i)
		spec := evm.TaskSpec{
			ID:              id,
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          time.Duration(c.PeriodMS) * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []evm.NodeID{evm.NodeID(3 + 2*i), evm.NodeID(4 + 2*i)},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic:       fuzzPID,
		}
		if c.VM {
			spec.MakeLogic = func() (evm.TaskLogic, error) {
				capsule, ok := store.Get(id, 1)
				if !ok {
					return nil, fmt.Errorf("fuzz: no v1 capsule for %s", id)
				}
				return evm.NewVMLogic(capsule)
			}
		}
		tasks = append(tasks, spec)
	}
	return tasks
}

// feedSample synthesizes one fixed near-setpoint reading per loop.
func feedSample(tasks int) func() []evm.SensorReading {
	out := make([]evm.SensorReading, tasks)
	for i := range out {
		out[i] = evm.SensorReading{Port: uint8(i), Value: float64(48 + i)}
	}
	return func() []evm.SensorReading { return out }
}

func placementFor(c CellGen) evm.Placement {
	switch c.Placement {
	case PlacementLine:
		return evm.Line(3)
	case PlacementScatter:
		pos := make([]evm.Position, len(c.Positions))
		for i, p := range c.Positions {
			pos[i] = evm.Position{X: p.X, Y: p.Y}
		}
		return evm.Fixed(pos...)
	default:
		return evm.Grid(4, (c.Nodes()+3)/4)
	}
}

// campusCellSpec renders one generated cell as a declarative CellSpec.
func campusCellSpec(c CellGen, store *evm.CapsuleStore) evm.CellSpec {
	return evm.CellSpec{
		Name: c.Name,
		Options: []evm.CellOption{
			evm.WithNodeCount(c.Nodes()),
			evm.WithPlacement(placementFor(c)),
			evm.WithSlotsPerNode(3),
			evm.WithPER(c.PER),
		},
		VC: evm.VCConfig{
			Name: c.Name, Head: 2, Gateway: 1,
			Tasks:        taskSpecs(c, store),
			DormantAfter: 5 * time.Second,
		},
		Feed: &evm.FeedSpec{
			Source: 1,
			Period: time.Duration(c.PeriodMS) * time.Millisecond,
			Sample: feedSample(c.Tasks),
		},
	}
}

func ms(v int64) time.Duration { return time.Duration(v) * time.Millisecond }

type cellPlan struct {
	cell string
	plan evm.FaultPlan
}

// faultPlans groups the spec's declarative faults into per-cell
// FaultPlans, expanding cell-outage windows into crash-all/recover-all
// step pairs. Backbone link steps ride on the first cell's plan (they
// are campus-level either way).
func faultPlans(s Spec) []cellPlan {
	steps := make(map[string][]evm.FaultStep)
	add := func(cell string, st evm.FaultStep) { steps[cell] = append(steps[cell], st) }
	for _, f := range s.Faults {
		switch f.Kind {
		case KindCrash:
			add(f.Cell, evm.FaultStep{At: ms(f.AtMS), CrashNode: evm.NodeID(f.Node)})
		case KindRecover:
			add(f.Cell, evm.FaultStep{At: ms(f.AtMS), RecoverNode: evm.NodeID(f.Node)})
		case KindOutage:
			n := s.Cells[s.cell(f.Cell)].Nodes()
			for id := 1; id <= n; id++ {
				add(f.Cell, evm.FaultStep{At: ms(f.AtMS), CrashNode: evm.NodeID(id)})
			}
			for id := 1; id <= n; id++ {
				add(f.Cell, evm.FaultStep{At: ms(f.AtMS + f.ForMS), RecoverNode: evm.NodeID(id)})
			}
		case KindPERBurst:
			add(f.Cell, evm.FaultStep{At: ms(f.AtMS),
				PERBurst: &evm.PERBurst{PER: f.PER, For: ms(f.ForMS)}})
		case KindBattery:
			add(f.Cell, evm.FaultStep{At: ms(f.AtMS),
				BatteryDrain: &evm.BatteryDrain{Node: evm.NodeID(f.Node), Fraction: f.Fraction}})
		case KindDrift:
			add(f.Cell, evm.FaultStep{At: ms(f.AtMS),
				ClockDrift: &evm.ClockDrift{Node: evm.NodeID(f.Node), PPM: f.PPM}})
		case KindLinkDown:
			add(s.Cells[0].Name, evm.FaultStep{At: ms(f.AtMS), LinkDown: &evm.LinkRef{A: f.A, B: f.B}})
		case KindLinkUp:
			add(s.Cells[0].Name, evm.FaultStep{At: ms(f.AtMS), LinkUp: &evm.LinkRef{A: f.A, B: f.B}})
		}
	}
	out := make([]cellPlan, 0, len(steps))
	for _, c := range s.Cells {
		if st := steps[c.Name]; len(st) > 0 {
			out = append(out, cellPlan{cell: c.Name, plan: evm.FaultPlan{Name: "fuzz-" + c.Name, Steps: st}})
		}
	}
	return out
}

// buildCampus assembles the spec's campus: capsule store (for VM/OTA
// specs), backbone links, policy, fault plans and the scheduled rollout.
func buildCampus(s Spec, run evm.RunSpec) (*evm.Experiment, error) {
	policy := run.Policy
	if policy == "" {
		policy = s.Policy
	}
	var store *evm.CapsuleStore
	var taskIDs []string
	for _, c := range s.Cells {
		for i := 0; i < c.Tasks; i++ {
			taskIDs = append(taskIDs, TaskID(c.Name, i))
		}
	}
	anyVM := false
	for _, c := range s.Cells {
		anyVM = anyVM || c.VM
	}
	if anyVM {
		store = evm.NewCapsuleStore()
		if err := evm.RegisterOTACapsules(store, taskIDs); err != nil {
			return nil, err
		}
		if s.Rollout != nil && s.Rollout.Version == 3 {
			for _, id := range taskIDs {
				bad, err := evm.OTABadCapsule(id, 3)
				if err != nil {
					return nil, err
				}
				if err := store.Register(bad); err != nil {
					return nil, err
				}
			}
		}
	}
	cfg := evm.CampusConfig{
		Seed:      run.Seed,
		Placement: policy,
		Rebalance: s.Rebalance,
		Capsules:  store,
	}
	for _, l := range s.Links {
		cfg.Links = append(cfg.Links, evm.BackboneLink{
			A: l.A, B: l.B,
			Config: evm.LinkConfig{Latency: ms(l.LatencyMS), PER: l.PER},
		})
	}
	specs := make([]evm.CellSpec, 0, len(s.Cells))
	for _, c := range s.Cells {
		specs = append(specs, campusCellSpec(c, store))
	}
	campus, err := evm.NewCampus(cfg, specs...)
	if err != nil {
		return nil, err
	}
	for _, pl := range faultPlans(s) {
		if err := campus.ApplyFaultPlan(pl.cell, pl.plan); err != nil {
			campus.Stop()
			return nil, err
		}
	}
	var rollout *evm.Rollout
	if r := s.Rollout; r != nil {
		spec := evm.RolloutSpec{Tasks: taskIDs, Version: r.Version, Strategy: r.Strategy}
		campus.Engine().After(ms(r.AtMS), func() {
			// A refused start (e.g. a task escalated away mid-stage)
			// surfaces through rollout_started staying 0.
			rollout, _ = campus.StartRollout(spec)
		})
	}
	return &evm.Experiment{
		Campus:         campus,
		DefaultHorizon: s.Horizon(),
		Metrics: func() map[string]float64 {
			placements := campus.TaskPlacements()
			foreign, alive := 0, 0
			//evm:allow-maporder commutative integer counts over pure read-only lookups; visit order cannot change the totals
			for _, p := range placements {
				if p.Foreign {
					foreign++
				}
				if r := campus.Cell(p.Cell).Medium().Radio(p.Node); r != nil && !r.Failed() {
					alive++
				}
			}
			m := map[string]float64{
				"tasks_total":   float64(len(placements)),
				"tasks_foreign": float64(foreign),
				"tasks_alive":   float64(alive),
			}
			if s.Rollout != nil {
				m["rollout_started"] = 0
				m["rollout_complete"] = 0
				m["rollout_rolled_back"] = 0
				if rollout != nil {
					m["rollout_started"] = 1
					if rollout.State() == evm.RolloutComplete {
						m["rollout_complete"] = 1
					}
					if rollout.State() == evm.RolloutRolledBack {
						m["rollout_rolled_back"] = 1
					}
				}
			}
			return m
		},
		Cleanup: campus.Stop,
	}, nil
}

// buildMultihop assembles the single multi-hop line cell: role-derived
// station order, pinned scatter positions, line schedule, per-hop routes
// and a unicast feed relayed to every controller.
func buildMultihop(s Spec, run evm.RunSpec) (*evm.Experiment, error) {
	c := s.Cells[0]
	order := LineOrder(c)
	cell, err := evm.NewCellWith(evm.CellConfig{Seed: run.Seed},
		evm.WithNodes(order...),
		evm.WithPlacement(placementFor(c)),
		evm.WithSlotsPerNode(3),
		evm.WithPER(c.PER),
		evm.WithLineSchedule(order...))
	if err != nil {
		return nil, err
	}
	vc := evm.VCConfig{
		Name: c.Name, Head: 2, Gateway: 1,
		Tasks:        taskSpecs(c, nil),
		DormantAfter: 5 * time.Second,
	}
	if err := cell.Deploy(vc); err != nil {
		cell.Stop()
		return nil, err
	}
	dsts := make([]evm.NodeID, 0, 2*c.Tasks)
	for _, t := range vc.Tasks {
		dsts = append(dsts, t.Candidates...)
	}
	feed, err := cell.StartSensorFeedTo(1, time.Duration(c.PeriodMS)*time.Millisecond,
		feedSample(c.Tasks), dsts...)
	if err != nil {
		cell.Stop()
		return nil, err
	}
	if plans := faultPlans(s); len(plans) > 0 {
		if err := cell.ApplyFaultPlan(plans[0].plan); err != nil {
			feed.Stop()
			cell.Stop()
			return nil, err
		}
	}
	return &evm.Experiment{
		Cell:           cell,
		DefaultHorizon: s.Horizon(),
		Metrics: func() map[string]float64 {
			relayed := 0
			duty := 0.0
			sched := cell.Network().Schedule()
			for _, id := range order {
				relayed += cell.Network().Link(id).Stats().FragsRelayed
				duty += sched.ActiveSlotFraction(id, cell.Network().Config())
			}
			return map[string]float64{
				"relayed_frags": float64(relayed),
				"line_duty":     duty / float64(len(order)),
			}
		},
		QoS:     func() evm.QoSReport { return evm.EvaluateQoS(vc, cell.Nodes()) },
		Cleanup: func() { feed.Stop(); cell.Stop() },
	}, nil
}
