package evm

import (
	"time"
)

// ScenarioPipeline is the multi-hop line-cell scenario: five stations
// along a pipeline share a TDMA line schedule (rtlink.BuildLineSchedule)
// in which each slot is heard only by its line neighbors. Sensor
// snapshots are unicast from the head-end gateway and relayed station by
// station to the booster controllers at the far end; actuations ride the
// same static line routes back to the gateway. Crashing the far-end
// primary exercises fail-over across the line: the backup — one station
// closer to the gateway — detects the silence, reports to the adjacent
// head, takes over, and its actuations keep arriving at the gateway
// through the surviving relays.
const ScenarioPipeline = "pipeline"

// Pipeline station IDs in line order: gateway at the processing plant,
// a relay station, the segment head, then the backup and primary booster
// controllers toward the wellhead.
const (
	PipeGateway NodeID = 1
	PipeRelay   NodeID = 2
	PipeHead    NodeID = 3
	PipeBackup  NodeID = 4
	PipePrimary NodeID = 5
)

// PipelineTaskID names the booster-pressure loop.
const PipelineTaskID = "booster-loop"

// pipelineLine returns the station sequence along the pipeline.
func pipelineLine() []NodeID {
	return []NodeID{PipeGateway, PipeRelay, PipeHead, PipeBackup, PipePrimary}
}

// buildPipelineScenario assembles the line cell (which installs its own
// per-hop routes) and starts the unicast sensor feed toward both
// controllers.
func buildPipelineScenario(spec RunSpec) (*Experiment, error) {
	line := pipelineLine()
	vc := VCConfig{
		Name:    "pipeline",
		Head:    PipeHead,
		Gateway: PipeGateway,
		Tasks: []TaskSpec{{
			ID:              PipelineTaskID,
			SensorPort:      0,
			ActuatorPort:    10,
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{PipePrimary, PipeBackup},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic:       campusPID,
		}},
		DormantAfter: 5 * time.Second,
	}
	cell, err := NewCell(CellSpec{
		Seed:         spec.Seed,
		Nodes:        line,
		SlotsPerNode: 3,
		Line:         true,
		VC:           vc,
		Feed: &FeedSpec{Source: PipeGateway, Period: 250 * time.Millisecond,
			Sample: fixedFeed(SensorReading{Port: 0, Value: 50}),
			To:     []NodeID{PipePrimary, PipeBackup}},
	})
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Cell:           cell,
		DefaultHorizon: 30 * time.Second,
		Metrics: func() map[string]float64 {
			relayed := 0
			for _, id := range line {
				relayed += cell.Network().Link(id).Stats().FragsRelayed
			}
			duty := 0.0
			sched := cell.Network().Schedule()
			for _, id := range line {
				duty += sched.ActiveSlotFraction(id, cell.Network().Config())
			}
			duty /= float64(len(line))
			active := 0.0
			if id, ok := cell.Node(PipeHead).Head().ActiveNode(PipelineTaskID); ok {
				active = float64(id)
			}
			return map[string]float64{
				"relayed_frags":     float64(relayed),
				"line_duty":         duty,
				"active_controller": active,
			}
		},
		Cleanup: cell.Stop,
	}, nil
}

// PipelinePrimaryCrashPlan crashes the far-end primary controller at
// offset at — the line fail-over exercise.
func PipelinePrimaryCrashPlan(at time.Duration) FaultPlan {
	return FaultPlan{
		Name:  "crash-pipe-primary",
		Steps: []FaultStep{{At: at, CrashNode: PipePrimary}},
	}
}
