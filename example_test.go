package evm_test

import (
	"fmt"
	"time"

	"evm"
)

// Example deploys a minimal Virtual Component, injects a compute fault on
// the primary and lets the EVM fail the task over to the backup.
func Example() {
	vc := evm.VCConfig{
		Name: "demo", Head: 4, Gateway: 1,
		Tasks: []evm.TaskSpec{{
			ID: "loop", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []evm.NodeID{2, 3},
			DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
			MakeLogic: func() (evm.TaskLogic, error) {
				return evm.NewPIDLogic(evm.PIDParams{
					Kp: 2, Ki: 0.5, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4,
				})
			},
		}},
	}
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:  7,
		Nodes: evm.Members(4),
		VC:    vc,
		Feed: &evm.FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 50}}
		}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cell.Stop()

	cell.Run(5 * time.Second)
	fmt.Println("before fault:", cell.Node(2).Role("loop"), "/", cell.Node(3).Role("loop"))
	cell.Node(2).InjectComputeFault("loop", 75)
	cell.Run(20 * time.Second)
	fmt.Println("after fault: ", cell.Node(2).Role("loop"), "/", cell.Node(3).Role("loop"))
	// Output:
	// before fault: active / backup
	// after fault:  indicator / active
}

// ExampleNewGasPlant reruns the paper's Fig. 6(b) fail-over case study at
// a compressed timeline.
func ExampleNewGasPlant() {
	cfg := evm.DefaultGasPlantConfig()
	cfg.DeviationWindow = 40 // 10 s deliberation for a quick demo
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := s.RunFig6(30*time.Second, 120*time.Second)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("failover happened:", res.FailoverAt > res.FaultAt)
	fmt.Println("new master is Ctrl-B:", s.ActiveController() == evm.GasCtrlBID)
	// Output:
	// failover happened: true
	// new master is Ctrl-B: true
}
