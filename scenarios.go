package evm

import (
	"fmt"
	"time"
)

// Built-in scenario names (the fixed table in registry.go).
const (
	ScenarioGasPlant        = "gas-plant"
	ScenarioEightController = "eight-controller"
	ScenarioCapacity        = "capacity"
)

// buildGasPlantScenario wraps the paper's hardware-in-loop testbed
// (Fig. 5) as a built-in scenario: closed-loop plant, gateway, and the
// three-task Virtual Component, with an 8-cycle deviation window so
// injected faults resolve within grid-sized horizons.
func buildGasPlantScenario(spec RunSpec) (*Experiment, error) {
	cfg := DefaultGasPlantConfig()
	cfg.Seed = spec.Seed
	cfg.DeviationWindow = 8
	s, err := NewGasPlant(cfg)
	if err != nil {
		return nil, err
	}
	// Summed in arrival order, as a kept list would be, so the mean is
	// the same float without keeping one.
	var latSum float64
	var latN int
	s.onActuation(func(lat time.Duration) {
		latSum += lat.Seconds()
		latN++
	})
	return &Experiment{
		Cell:           s.Cell,
		DefaultHorizon: 120 * time.Second,
		Metrics: func() map[string]float64 {
			gw := s.GW.Stats()
			meanLat := 0.0
			if latN > 0 {
				meanLat = latSum / float64(latN)
			}
			return map[string]float64{
				"lts_level_pct":      s.Plant.LTSLevelPct(),
				"lts_temp_c":         s.Plant.LTSTempC(),
				"actuations_ok":      float64(gw.ActuationsOK),
				"actuations_denied":  float64(gw.ActuationsDenied),
				"mean_act_latency_s": meanLat,
				"active_controller":  float64(s.ActiveController()),
			}
		},
		QoS: func() QoSReport { return EvaluateQoS(s.VC, s.Cell.Nodes()) },
		Cleanup: func() {
			s.GW.Stop()
			s.Cell.Stop()
		},
	}, nil
}

// fixedFeed is a feed sample that returns the same readings slice every
// tick, so a tick allocates nothing.
func fixedFeed(readings ...SensorReading) func() []SensorReading {
	return func() []SensorReading { return readings }
}

// buildEightControllerScenario mirrors the paper's deployment ("8
// different controllers are used"): four control loops, each with a
// primary/backup pair, spread over eight controller nodes on a 5x2 grid
// around a gateway and a head.
func buildEightControllerScenario(spec RunSpec) (*Experiment, error) {
	tasks := make([]TaskSpec, 0, 4)
	for i := 0; i < 4; i++ {
		tasks = append(tasks, TaskSpec{
			ID:              fmt.Sprintf("loop-%d", i),
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{NodeID(2 + 2*i), NodeID(3 + 2*i)},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic: func() (TaskLogic, error) {
				return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		})
	}
	vc := VCConfig{Name: "eight", Head: 10, Gateway: 1, Tasks: tasks, DormantAfter: 5 * time.Second}
	cell, err := NewCell(CellSpec{
		Seed:         spec.Seed,
		Nodes:        Members(10),
		Placement:    Grid(5, 2),
		SlotsPerNode: 3,
		VC:           vc,
		Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: fixedFeed(
			SensorReading{Port: 0, Value: 50}, SensorReading{Port: 1, Value: 49},
			SensorReading{Port: 2, Value: 51}, SensorReading{Port: 3, Value: 50},
		)},
	})
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Cell:           cell,
		DefaultHorizon: 60 * time.Second,
		Metrics: func() map[string]float64 {
			rep := EvaluateQoS(vc, cell.Nodes())
			return map[string]float64{
				"coverage":  rep.CoverageRatio,
				"redundant": float64(rep.Redundant),
				"tasks":     float64(rep.Tasks),
			}
		},
		QoS:     func() QoSReport { return EvaluateQoS(vc, cell.Nodes()) },
		Cleanup: cell.Stop,
	}, nil
}

// buildCapacityScenario exercises on-line capacity expansion: a two-loop
// component runs on two controllers, a third node joins at runtime, one
// loop migrates to it, and the head re-optimizes the assignment with the
// BQP solver.
func buildCapacityScenario(spec RunSpec) (*Experiment, error) {
	const (
		gwNode  NodeID = 1
		ctrl1   NodeID = 2
		ctrl2   NodeID = 3
		headN   NodeID = 4
		newNode NodeID = 9
	)
	task := func(id string, sensor, actuator uint8, primary, backup NodeID) TaskSpec {
		return TaskSpec{
			ID:              id,
			SensorPort:      sensor,
			ActuatorPort:    actuator,
			Period:          250 * time.Millisecond,
			WCET:            40 * time.Millisecond,
			Candidates:      []NodeID{primary, backup},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic: func() (TaskLogic, error) {
				return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		}
	}
	vc := VCConfig{
		Name:    "capacity",
		Head:    headN,
		Gateway: gwNode,
		Tasks: []TaskSpec{
			task("loop-a", 0, 1, ctrl1, ctrl2),
			task("loop-b", 1, 2, ctrl2, ctrl1),
		},
	}
	cell, err := NewCell(CellSpec{
		Seed:  spec.Seed,
		Nodes: []NodeID{gwNode, ctrl1, ctrl2, headN},
		VC:    vc,
		Feed: &FeedSpec{Source: gwNode, Period: 250 * time.Millisecond,
			Sample: fixedFeed(SensorReading{Port: 0, Value: 49}, SensorReading{Port: 1, Value: 51})},
	})
	if err != nil {
		return nil, err
	}
	// The expansion timeline rides the virtual clock so the whole
	// scenario stays declarative: join at 10 s, migrate at 15 s,
	// re-optimize at 20 s.
	moved := 0
	cell.Engine().After(10*time.Second, func() {
		_, _ = cell.AddNodeRuntime(newNode)
	})
	cell.Engine().After(15*time.Second, func() {
		if cell.Node(newNode) != nil {
			_ = cell.Node(ctrl1).MigrateTask("loop-a", newNode)
		}
	})
	cell.Engine().After(20*time.Second, func() {
		moved = cell.Node(headN).Head().Reoptimize(cell.RNG())
	})
	return &Experiment{
		Cell:           cell,
		DefaultHorizon: 40 * time.Second,
		Metrics: func() map[string]float64 {
			head := cell.Node(headN).Head()
			return map[string]float64{
				"members":         float64(len(head.Members())),
				"reopt_moved":     float64(moved),
				"reoptimizations": float64(head.Stats().Reoptimizations),
			}
		},
		QoS:     func() QoSReport { return EvaluateQoS(vc, cell.Nodes()) },
		Cleanup: cell.Stop,
	}, nil
}
