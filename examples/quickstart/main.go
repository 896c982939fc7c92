// Command quickstart is the smallest complete EVM program: a Virtual
// Component of two controller candidates plus a head, fed by a synthetic
// sensor. The primary develops a compute fault; the backup detects it by
// passive observation and the head fails the task over.
//
// It showcases the declarative experiment API: the cell is one CellSpec,
// the fault is a FaultPlan applied as data, and all observability rides
// the typed event bus.
package main

import (
	"fmt"
	"log"
	"time"

	"evm"
)

const (
	sensorNode evm.NodeID = 1
	primary    evm.NodeID = 2
	backup     evm.NodeID = 3
	headNode   evm.NodeID = 4
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vc := evm.VCConfig{
		Name:    "quickstart",
		Head:    headNode,
		Gateway: sensorNode,
		Tasks: []evm.TaskSpec{{
			ID:              "loop",
			SensorPort:      0,
			ActuatorPort:    1,
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []evm.NodeID{primary, backup},
			DeviationTol:    5,
			DeviationWindow: 4,
			SilenceWindow:   8,
			MakeLogic: func() (evm.TaskLogic, error) {
				return evm.NewPIDLogic(evm.PIDParams{
					Kp: 2, Ki: 0.5,
					OutMin: 0, OutMax: 100,
					Setpoint: 50,
					CutoffHz: 0.4, RateHz: 4,
				})
			},
		}},
		DormantAfter: 5 * time.Second,
	}
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:      7,
		Nodes:     []evm.NodeID{sensorNode, primary, backup, headNode},
		Placement: evm.Line(3),
		VC:        vc,
		// Synthetic sensor: the measured value sits at the setpoint.
		Feed: &evm.FeedSpec{Source: sensorNode, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 50}}
		}},
	})
	if err != nil {
		return err
	}

	// Observability is a typed event stream, not per-object callbacks.
	cell.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.FaultEvent:
			fmt.Printf("[%8v] fault: %s on node %v (task %q -> %.0f)\n", e.At, e.Kind, e.Node, e.Task, e.Value)
		case evm.FailoverEvent:
			fmt.Printf("[%8v] failover: task %q moved %v -> %v\n", e.At, e.Task, e.From, e.To)
		}
	})

	// The failure timeline is declarative data: at t=10s the primary
	// starts emitting 75 instead of the correct output.
	plan := evm.FaultPlan{
		Name: "byzantine-primary",
		Steps: []evm.FaultStep{{
			At:           10 * time.Second,
			ComputeFault: &evm.ComputeFault{Node: primary, Task: "loop", Output: 75},
		}},
	}
	if err := cell.ApplyFaultPlan(plan); err != nil {
		return err
	}

	fmt.Println("running 30s: 10s steady state, then the planned fault...")
	cell.Run(30 * time.Second)

	fmt.Printf("[%8v] roles: old-primary=%v new-primary=%v\n",
		cell.Now(), cell.Node(primary).Role("loop"), cell.Node(backup).Role("loop"))
	rep := evm.EvaluateQoS(vc, cell.Nodes())
	fmt.Printf("QoS: coverage %.0f%%, %d/%d tasks redundant\n",
		rep.CoverageRatio*100, rep.Redundant, rep.Tasks)
	cell.Stop()
	return nil
}
