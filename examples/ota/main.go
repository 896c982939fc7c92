// Command ota demonstrates the over-the-air reprogramming subsystem: a
// two-cell campus registers versioned control-law capsules in a
// CapsuleStore, rolls v2 out campus-wide with a staged canary strategy
// (attest/stage on every replica, then an atomic per-cell activation,
// then a health window), and finally seeds a deliberately bad v3 whose
// health window trips an automatic rollback — "runtime programmable
// WSAC networks allow for flexible item-by-item process customization"
// (paper §1), now as a fault-tolerant campus operation.
package main

import (
	"fmt"
	"log"
	"time"

	"evm"
)

// v1 is the deployed control law: out = 2 x (50 - in).
const v1Source = `
	PUSHQ 50.0
	IN 0
	SUB
	PUSHQ 2.0
	MULQ
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`

// v2 retunes the law over the air: setpoint 70, gain 3.
const v2Source = `
	PUSHQ 70.0
	IN 0
	SUB
	PUSHQ 3.0
	MULQ
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`

// v3 is the bad batch: it attests and instantiates cleanly but never
// writes an actuator command, so the task falls silent the moment it
// activates.
const v3Source = `
	IN 0
	DROP
	HALT`

// unit declares one six-node cell (gateway 1, head 2, loop candidates
// 3/4) running taskID on the v1 capsule.
func unit(name, taskID string) evm.CellSpec {
	return evm.CellSpec{
		Name:         name,
		Nodes:        evm.Members(6),
		Placement:    evm.Grid(3, 2),
		SlotsPerNode: 3,
		VC: evm.VCConfig{
			Name: name, Head: 2, Gateway: 1,
			Tasks: []evm.TaskSpec{{
				ID: taskID, SensorPort: 0, ActuatorPort: 10,
				Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
				Candidates:   []evm.NodeID{3, 4},
				DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
				MakeLogic: func() (evm.TaskLogic, error) {
					c, err := evm.AssembleCapsule(taskID, 1, v1Source)
					if err != nil {
						return nil, err
					}
					return evm.NewVMLogic(c)
				},
			}},
			DormantAfter: 5 * time.Second,
		},
		Feed: &evm.FeedSpec{
			Source: 1,
			Period: 250 * time.Millisecond,
			Sample: func() []evm.SensorReading {
				return []evm.SensorReading{{Port: 0, Value: 40}}
			},
		},
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tasks := []string{"north-loop", "south-loop"}

	// The versioned capsule store: v1 (deployed) and v2 (the retune) for
	// both loops. Registration validates encoding; the store keeps the
	// attestation checksum the receiving nodes verify on delivery.
	store := evm.NewCapsuleStore()
	for _, task := range tasks {
		for v, src := range map[uint8]string{1: v1Source, 2: v2Source} {
			c, err := evm.AssembleCapsule(task, v, src)
			if err != nil {
				return err
			}
			if err := store.Register(c); err != nil {
				return err
			}
		}
	}

	campus, err := evm.NewCampus(
		evm.CampusConfig{Seed: 5, Capsules: store},
		unit("north", "north-loop"), unit("south", "south-loop"))
	if err != nil {
		return err
	}
	defer campus.Stop()

	// The whole rollout is visible on the campus event bus.
	campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.RolloutEvent:
			fmt.Printf("[%8v] rollout %-9s stage=%d cells=%v %s\n", e.At, e.Phase, e.Stage, e.Cells, e.Reason)
		case evm.CapsuleDeliveryEvent:
			fmt.Printf("[%8v]   capsule v%d -> %s/%d (task %s, attested)\n", e.At, e.Version, e.Cell, e.Node, e.Task)
		case evm.RollbackEvent:
			fmt.Printf("[%8v] ROLLBACK %s v%d -> v%d: %s\n", e.At, e.Task, e.FromVersion, e.ToVersion, e.Reason)
		}
	})

	campus.Run(5 * time.Second)
	north := campus.Cell("north").Node(3)
	out, _ := north.LastOutput("north-loop")
	fmt.Printf("v1 law active: output %.1f (2 x (50-40))\n\n", out)

	// Campus-wide staged rollout to v2: the canary cell upgrades first,
	// passes its health window, then the rest follow. Each cell's
	// replicas attest + stage the capsule, and swap versions at one
	// commit instant — a task's master and backups never run mixed
	// versions.
	rollout, err := campus.StartRollout(evm.RolloutSpec{
		Tasks:    tasks,
		Version:  2,
		Strategy: evm.RolloutCanaryCell,
	})
	if err != nil {
		return err
	}
	campus.Run(10 * time.Second)
	out, _ = north.LastOutput("north-loop")
	fmt.Printf("\nrollout %s; v2 law active: output %.1f (3 x (70-40))\n\n", rollout.State(), out)

	// The bad batch: v3 attests fine but never actuates. The health
	// window after activation trips missed-actuation, and the subsystem
	// swaps the v2 code back into the running interpreter: the loop
	// resumes on v2 with the state the interpreter holds.
	bad, err := evm.AssembleCapsule("north-loop", 3, v3Source)
	if err != nil {
		return err
	}
	if err := campus.Capsules().Register(bad); err != nil {
		return err
	}
	badRollout, err := campus.StartRollout(evm.RolloutSpec{
		Tasks:          []string{"north-loop"},
		Version:        3,
		Strategy:       evm.RolloutAllAtOnce,
		HealthWindow:   1500 * time.Millisecond,
		ActuationBound: time.Second,
	})
	if err != nil {
		return err
	}
	campus.Run(10 * time.Second)
	out, _ = north.LastOutput("north-loop")
	v, _ := north.CapsuleVersion("north-loop")
	fmt.Printf("\nbad rollout %s (%s); loop back on v%d, output %.1f\n",
		badRollout.State(), badRollout.Reason(), v, out)
	return nil
}
