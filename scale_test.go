package evm

import (
	"fmt"
	"testing"
	"time"
)

// buildEightControllerVC mirrors the paper's deployment: "8 different
// controllers are used (4 in top-level system and 4 in DePropanizer)",
// here as 4 control tasks each with a primary and a backup spread over 8
// controller nodes, plus a gateway (1) and a head (10).
func buildEightControllerVC(t *testing.T, seed uint64) (*Cell, VCConfig) {
	t.Helper()
	ids := make([]NodeID, 0, 10)
	ids = append(ids, 1) // gateway
	for i := NodeID(2); i <= 9; i++ {
		ids = append(ids, i) // 8 controllers
	}
	ids = append(ids, 10) // head
	tasks := make([]TaskSpec, 0, 4)
	for i := 0; i < 4; i++ {
		primary := NodeID(2 + 2*i)
		backup := NodeID(3 + 2*i)
		tasks = append(tasks, TaskSpec{
			ID:              fmt.Sprintf("loop-%d", i),
			SensorPort:      uint8(i),
			ActuatorPort:    uint8(10 + i),
			Period:          250 * time.Millisecond,
			WCET:            5 * time.Millisecond,
			Candidates:      []NodeID{primary, backup},
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
	cell, err := NewCell(CellSpec{Seed: seed, Nodes: ids, SlotsPerNode: 3, VC: vc,
		Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: func() []SensorReading {
			return []SensorReading{
				{Port: 0, Value: 50}, {Port: 1, Value: 49},
				{Port: 2, Value: 51}, {Port: 3, Value: 50},
			}
		}}})
	if err != nil {
		t.Fatal(err)
	}
	return cell, vc
}

func TestEightControllerSteadyState(t *testing.T) {
	cell, vc := buildEightControllerVC(t, 1)
	cell.Run(20 * time.Second)
	rep := EvaluateQoS(vc, cell.Nodes())
	if rep.CoverageRatio != 1 || rep.Redundant != 4 {
		t.Fatalf("steady QoS = %+v", rep)
	}
	head := cell.Node(10).Head()
	if head.Stats().Failovers != 0 {
		t.Fatalf("%d spurious failovers in an 8-controller cell", head.Stats().Failovers)
	}
	// Every task's primary actuates.
	for i := 0; i < 4; i++ {
		primary := NodeID(2 + 2*i)
		if cell.Node(primary).Stats().ActuationsSent == 0 {
			t.Fatalf("task %d primary never actuated", i)
		}
	}
}

func TestEightControllerSequentialFailures(t *testing.T) {
	// Kill every primary in sequence; each task must fail over to its
	// backup and coverage must stay total.
	cell, vc := buildEightControllerVC(t, 2)
	cell.Run(10 * time.Second)
	for i := 0; i < 4; i++ {
		cell.Node(NodeID(2 + 2*i)).Link().Radio().Fail()
		cell.Run(15 * time.Second)
	}
	rep := EvaluateQoS(vc, cell.Nodes())
	if rep.CoverageRatio != 1 {
		t.Fatalf("coverage %.2f after 4 primary failures, want 1.0", rep.CoverageRatio)
	}
	head := cell.Node(10).Head()
	if head.Stats().Failovers != 4 {
		t.Fatalf("failovers = %d, want 4", head.Stats().Failovers)
	}
	for i := 0; i < 4; i++ {
		backup := NodeID(3 + 2*i)
		if active, _ := head.ActiveNode(fmt.Sprintf("loop-%d", i)); active != backup {
			t.Fatalf("task %d master = %v, want backup %v", i, active, backup)
		}
	}
}

func TestEightControllerByzantineStorm(t *testing.T) {
	// Simultaneous byzantine faults on two primaries: both fail over
	// independently without disturbing the healthy loops.
	cell, vc := buildEightControllerVC(t, 3)
	cell.Run(10 * time.Second)
	cell.Node(2).InjectComputeFault("loop-0", 99)
	cell.Node(6).InjectComputeFault("loop-2", 99)
	cell.Run(30 * time.Second)
	head := cell.Node(10).Head()
	if a, _ := head.ActiveNode("loop-0"); a != 3 {
		t.Fatalf("loop-0 master = %v, want 3", a)
	}
	if a, _ := head.ActiveNode("loop-2"); a != 7 {
		t.Fatalf("loop-2 master = %v, want 7", a)
	}
	for _, task := range []string{"loop-1", "loop-3"} {
		if a, _ := head.ActiveNode(task); a != NodeID(map[string]NodeID{"loop-1": 4, "loop-3": 8}[task]) {
			t.Fatalf("healthy task %s moved to %v", task, a)
		}
	}
	rep := EvaluateQoS(vc, cell.Nodes())
	if rep.CoverageRatio != 1 {
		t.Fatalf("coverage %.2f", rep.CoverageRatio)
	}
}
