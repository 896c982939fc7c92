package evm

import (
	"fmt"
	"time"

	"evm/internal/rtlink"
)

// ScenarioRandomField is the large-cell random-topology workload open
// since PR 1: 50 nodes scattered uniformly over a 20 m square (every
// pair inside the 30 m radio range), eight control loops on sixteen
// candidate controllers, and a TDMA frame widened to fit the whole
// membership. Placement randomness comes from a dedicated fork of the
// cell seed, so equal seeds reproduce the field — and the event stream —
// byte for byte.
const ScenarioRandomField = "random-field"

// RandomFieldNodes is the member count of the random-field cell.
const RandomFieldNodes = 50

// randomFieldLink widens the default 50-slot frame so all 50 members own
// the default two TX slots: 102 slots of 5 ms = a 510 ms frame, paired with
// 1 s control loops.
func randomFieldLink() rtlink.Config {
	cfg := rtlink.DefaultConfig()
	cfg.SlotsPerFrame = 2*RandomFieldNodes + 2
	return cfg
}

// buildRandomFieldScenario assembles the 50-node random cell: gateway 1,
// head 2, eight loops with primary/backup pairs on nodes 3..18, spares
// up to 50.
func buildRandomFieldScenario(spec RunSpec) (*Experiment, error) {
	tasks := make([]TaskSpec, 0, 8)
	for i := 0; i < 8; i++ {
		tasks = append(tasks, TaskSpec{
			ID:              fmt.Sprintf("field-%d", i),
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          time.Second,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{NodeID(3 + 2*i), NodeID(4 + 2*i)},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic:       campusPID,
		})
	}
	vc := VCConfig{Name: "field", Head: 2, Gateway: 1, Tasks: tasks, DormantAfter: 5 * time.Second}
	readings := make([]SensorReading, 8)
	for i := range readings {
		readings[i] = SensorReading{Port: uint8(i), Value: 50 + float64(i%3) - 1}
	}
	cell, err := NewCell(CellSpec{
		Seed:      spec.Seed,
		Link:      randomFieldLink(),
		Nodes:     Members(RandomFieldNodes),
		Placement: RandomUniform(20),
		VC:        vc,
		Feed:      &FeedSpec{Source: 1, Period: time.Second, Sample: fixedFeed(readings...)},
	})
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Cell:           cell,
		DefaultHorizon: 40 * time.Second,
		Metrics: func() map[string]float64 {
			rep := EvaluateQoS(vc, cell.Nodes())
			return map[string]float64{
				"coverage":  rep.CoverageRatio,
				"redundant": float64(rep.Redundant),
				"tasks":     float64(rep.Tasks),
				"members":   float64(len(cell.Members())),
			}
		},
		QoS:     func() QoSReport { return EvaluateQoS(vc, cell.Nodes()) },
		Cleanup: cell.Stop,
	}, nil
}
