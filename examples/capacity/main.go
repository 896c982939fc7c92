// Command capacity demonstrates on-line capacity expansion (paper §4.2
// objective 2: "more controllers can be added to share the load and
// trigger re-distribution of tasks"): a new node joins the Virtual
// Component at runtime, receives the running task's state by migration,
// and the head's BQP re-optimization redistributes masters.
package main

import (
	"fmt"
	"log"
	"time"

	"evm"
)

const (
	gwNode  evm.NodeID = 1
	ctrl1   evm.NodeID = 2
	ctrl2   evm.NodeID = 3
	headN   evm.NodeID = 4
	newNode evm.NodeID = 9
)

func task(id string, sensor, actuator uint8, primary, backup evm.NodeID) evm.TaskSpec {
	return evm.TaskSpec{
		ID:              id,
		SensorPort:      sensor,
		ActuatorPort:    actuator,
		Period:          250 * time.Millisecond,
		WCET:            40 * time.Millisecond,
		Candidates:      []evm.NodeID{primary, backup},
		DeviationTol:    5,
		DeviationWindow: 4,
		SilenceWindow:   8,
		MakeLogic: func() (evm.TaskLogic, error) {
			return evm.NewPIDLogic(evm.PIDParams{
				Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
				Setpoint: 50, CutoffHz: 0.4, RateHz: 4,
			})
		},
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	vc := evm.VCConfig{
		Name:    "capacity",
		Head:    headN,
		Gateway: gwNode,
		Tasks: []evm.TaskSpec{
			task("loop-a", 0, 1, ctrl1, ctrl2),
			task("loop-b", 1, 2, ctrl2, ctrl1),
		},
	}
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:  11,
		Nodes: []evm.NodeID{gwNode, ctrl1, ctrl2, headN},
		VC:    vc,
		Feed: &evm.FeedSpec{Source: gwNode, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 49}, {Port: 1, Value: 51}}
		}},
	})
	if err != nil {
		return err
	}
	// Watch the admission and the state transfer on the typed event bus.
	cell.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.JoinEvent:
			fmt.Printf("[%8v] head admitted node %v\n", e.At, e.Node)
		case evm.MigrationEvent:
			fmt.Printf("[%8v] task %q migrated %v -> %v\n", e.At, e.Task, e.From, e.To)
		case evm.FailoverEvent:
			fmt.Printf("[%8v] master switch: %q %v -> %v\n", e.At, e.Task, e.From, e.To)
		}
	})

	head := cell.Node(headN).Head()
	fmt.Println("running with 2 controllers...")
	cell.Run(10 * time.Second)
	fmt.Printf("members: %v\n", head.Members())

	fmt.Printf("admitting node %v at runtime...\n", newNode)
	added, err := cell.AddNodeRuntime(newNode)
	if err != nil {
		return err
	}
	cell.Run(5 * time.Second)
	fmt.Printf("members after join: %v (joins seen by head: %d)\n",
		head.Members(), head.Stats().Joins)

	fmt.Println("migrating loop-a replica to the new node...")
	if err := cell.Node(ctrl1).MigrateTask("loop-a", newNode); err != nil {
		return err
	}
	cell.Run(5 * time.Second)
	fmt.Printf("new node: migrations-in=%d role(loop-a)=%v\n",
		added.Stats().MigrationsIn, added.Role("loop-a"))

	moved := head.Reoptimize(cell.RNG())
	cell.Run(5 * time.Second)
	fmt.Printf("BQP re-optimization moved %d masters\n", moved)
	for _, id := range []string{"loop-a", "loop-b"} {
		if n, ok := head.ActiveNode(id); ok {
			fmt.Printf("  %s -> %v\n", id, n)
		}
	}
	cell.Stop()
	return nil
}
