// Command modechange demonstrates planned reconfiguration (paper §1:
// "the assembly line stations can adapt to a schedule where every 3
// Camrys are interleaved with 2 Prius' with synchronized changes in
// operation modes"): two control tasks model a red-unit and a blue-unit
// station; the head switches the Virtual Component between modes at TDMA
// frame boundaries, and only the mode's task actuates.
package main

import (
	"fmt"
	"log"
	"time"

	"evm"
)

const (
	feeder  evm.NodeID = 1
	station evm.NodeID = 2
	spare   evm.NodeID = 3
	headN   evm.NodeID = 4
)

func spec(id string, actuator uint8) evm.TaskSpec {
	return evm.TaskSpec{
		ID:              id,
		SensorPort:      0,
		ActuatorPort:    actuator,
		Period:          250 * time.Millisecond,
		WCET:            5 * time.Millisecond,
		Candidates:      []evm.NodeID{station, spare},
		DeviationTol:    5,
		DeviationWindow: 4,
		SilenceWindow:   8,
		MakeLogic: func() (evm.TaskLogic, error) {
			return evm.NewPIDLogic(evm.PIDParams{
				Kp: 1, Ki: 0.2, OutMin: 0, OutMax: 100,
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
	// The four nodes sit on a 2x2 grid — any placement works for a
	// single-hop cell; the spec makes the topology explicit data.
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:      3,
		Nodes:     []evm.NodeID{feeder, station, spare, headN},
		Placement: evm.Grid(2, 2),
		VC: evm.VCConfig{
			Name:    "assembly-line",
			Head:    headN,
			Gateway: feeder,
			Tasks:   []evm.TaskSpec{spec("red-station", 1), spec("blue-station", 2)},
		},
		Feed: &evm.FeedSpec{Source: feeder, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 48}}
		}},
	})
	if err != nil {
		return err
	}
	// Mode 1 builds red units, mode 2 blue units.
	for _, n := range cell.Nodes() {
		n.SetModeTasks(1, []string{"red-station"})
		n.SetModeTasks(2, []string{"blue-station"})
	}

	head := cell.Node(headN).Head()
	report := func(tag string) {
		st := cell.Node(station).Stats()
		fmt.Printf("[%8v] %-22s mode=%d cycles=%d actuations=%d\n",
			cell.Now(), tag, cell.Node(station).Mode(), st.CyclesRun, st.ActuationsSent)
	}

	// The schedule: 3 red batches interleaved with 2 blue batches.
	for batch := 0; batch < 5; batch++ {
		mode := uint8(1)
		name := "red batch"
		if batch%2 == 1 {
			mode = 2
			name = "blue batch"
		}
		head.SetMode(mode, 2) // synchronized switch 2 frames out
		cell.Run(5 * time.Second)
		report(name)
	}
	cell.Stop()
	return nil
}
