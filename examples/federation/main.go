// Command federation demonstrates the multi-cell campus: two TDMA cells
// bridged by a backbone, each running its own Virtual Component on a
// shared virtual timeline. At t=10s every radio in cell "west" crashes —
// a whole-cell outage that no in-cell fail-over can absorb. The campus
// coordinator detects the stranded control loop, ships its checkpointed
// state over the backbone and re-deploys it in cell "east", where it
// resumes actuating with state continuity.
//
// Everything is observable on the merged campus event stream: cell
// events arrive wrapped in CellEvent, and the federation publishes
// CellOverloadEvent, BackboneEvent and InterCellMigrationEvent.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"evm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// unit declares one cell: gateway 1, head 2, a primary/backup loop on
// nodes 3/4, spares 5/6, and a synthetic sensor feed.
func unit(name, taskID string) evm.CellSpec {
	return evm.CellSpec{
		Name:         name,
		Nodes:        evm.Members(6),
		Placement:    evm.Grid(3, 2),
		SlotsPerNode: 3,
		VC: evm.VCConfig{
			Name: name, Head: 2, Gateway: 1,
			Tasks: []evm.TaskSpec{{
				ID:              taskID,
				SensorPort:      0,
				ActuatorPort:    10,
				Period:          250 * time.Millisecond,
				WCET:            5 * time.Millisecond,
				Candidates:      []evm.NodeID{3, 4},
				DeviationTol:    5,
				DeviationWindow: 4,
				SilenceWindow:   8,
				MakeLogic: func() (evm.TaskLogic, error) {
					return evm.NewPIDLogic(evm.PIDParams{
						Kp: 2, Ki: 0.3, OutMin: 0, OutMax: 100,
						Setpoint: 50, CutoffHz: 0.4, RateHz: 4,
					})
				},
			}},
			DormantAfter: 5 * time.Second,
		},
		Feed: &evm.FeedSpec{
			Source: 1,
			Period: 250 * time.Millisecond,
			Sample: func() []evm.SensorReading {
				return []evm.SensorReading{{Port: 0, Value: 50}}
			},
		},
	}
}

func run() error {
	campus, err := evm.NewCampus(evm.CampusConfig{Seed: 7},
		unit("west", "west-loop"),
		unit("east", "east-loop"))
	if err != nil {
		return err
	}
	defer campus.Stop()

	// The merged campus stream: cell events tagged by name, federation
	// events flat.
	campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.CellOverloadEvent:
			fmt.Printf("[%8v] overload: cell %s (%s), stranded %v\n", e.At, e.Cell, e.Reason, e.Tasks)
		case evm.BackboneEvent:
			fmt.Printf("[%8v] backbone: %s %s -> %s (%dB)\n", e.At, e.Kind, e.From, e.To, e.Bytes)
		case evm.InterCellMigrationEvent:
			fmt.Printf("[%8v] intercell: task %q %s/%v -> %s/%v\n",
				e.At, e.Task, e.FromCell, e.From, e.ToCell, e.To)
		}
	})

	// Kill the whole west cell at t=10s: gateway, head, both candidates.
	kill := evm.KillCellPlan(10*time.Second, campus.Cell("west"))
	if err := campus.ApplyFaultPlan("west", kill); err != nil {
		return err
	}

	fmt.Println("running 30s: 10s steady state, then cell west dies wholesale...")
	campus.Run(30 * time.Second)

	placements := campus.TaskPlacements()
	keys := make([]string, 0, len(placements))
	for key := range placements {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		p := placements[key]
		fmt.Printf("placement %-16s -> cell %s node %v (foreign=%v)\n", key, p.Cell, p.Node, p.Foreign)
	}
	bb := campus.Backbone().Stats()
	fmt.Printf("backbone: %d sent, %d delivered, %d dropped\n", bb.Sent, bb.Delivered, bb.Dropped)
	return nil
}
