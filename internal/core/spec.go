// Package core implements the Embedded Virtual Machine runtime: Virtual
// Components spanning physical nodes, primary/backup control replication,
// passive fault detection, head arbitration and fail-over, task state
// migration in attested capsules, membership management, mode changes and
// BQP-based runtime re-optimization.
//
// This is the paper's primary contribution (§3): "an EVM is the
// distributed runtime system that dynamically selects primary-backup sets
// of controllers to guarantee QoS given spatial and temporal constraints
// of the underlying wireless network".
package core

import (
	"fmt"
	"time"

	"evm/internal/radio"
	"evm/internal/rtos"
)

// TaskSpec describes one control task of a Virtual Component: which
// sensor it reads, which actuator it drives, its timing, its candidate
// controllers in fail-over order, and the fault-detection policy its
// backups apply.
type TaskSpec struct {
	ID           string
	SensorPort   uint8
	ActuatorPort uint8
	// Period is the control cycle (the paper targets <= 250 ms).
	Period time.Duration
	// WCET is the per-cycle execution demand used for schedulability
	// admission on migration.
	WCET time.Duration
	// Candidates lists the nodes able to run this task, in fail-over
	// priority order: Candidates[0] is the initial primary.
	Candidates []radio.NodeID
	// DeviationTol is the output difference beyond which a backup counts
	// a cycle as deviating.
	DeviationTol float64
	// DeviationWindow is the number of consecutive deviating cycles
	// before the backup reports a fault.
	DeviationWindow int
	// SilenceWindow is the number of cycles without hearing the
	// primary's health before reporting a silent fault.
	SilenceWindow int
	// MaxInputAge discards sensor data older than this (temporal-
	// conditional transfer); 0 disables the check.
	MaxInputAge time.Duration
	// ReplicateEvery enables active state sharing: every N cycles the
	// primary ships its state snapshot to the other candidates, keeping
	// backups consistent even when they miss cycles (paper §3: "state is
	// shared either passively or actively"). 0 keeps sharing passive.
	ReplicateEvery int
	// MakeLogic constructs a fresh replica of the control law. Every
	// candidate node instantiates its own copy ("multiple copies of each
	// algorithm are present on the physical nodes", §3).
	MakeLogic func() (TaskLogic, error)
}

// failoverCooldown is how long a fail-over report about the task is
// held back: after the head decides a fail-over it takes no other report
// about the task for this long, and after a backup reports a fault it
// sends no other report about the task for this long. It is four
// silence windows, a fixed multiple; deriving it from the schedule and
// the fail-over-latency bound of TimingInvariants is open work (ROADMAP,
// "Derive the cooldowns").
func (s TaskSpec) failoverCooldown() time.Duration {
	return 4 * time.Duration(s.SilenceWindow) * s.Period
}

// Validate checks the spec.
func (s TaskSpec) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("core: task with empty ID")
	}
	if len(s.ID) > 32 {
		return fmt.Errorf("core: task ID %q too long for slot payloads", s.ID)
	}
	if s.Period <= 0 {
		return fmt.Errorf("core: task %s period %v", s.ID, s.Period)
	}
	if s.WCET <= 0 || s.WCET > s.Period {
		return fmt.Errorf("core: task %s wcet %v vs period %v", s.ID, s.WCET, s.Period)
	}
	if len(s.Candidates) == 0 {
		return fmt.Errorf("core: task %s has no candidate nodes", s.ID)
	}
	seen := make(map[radio.NodeID]bool, len(s.Candidates))
	for _, c := range s.Candidates {
		if seen[c] {
			return fmt.Errorf("core: task %s lists node %v twice", s.ID, c)
		}
		seen[c] = true
	}
	if s.DeviationTol < 0 {
		return fmt.Errorf("core: task %s negative deviation tolerance", s.ID)
	}
	if s.DeviationWindow <= 0 {
		return fmt.Errorf("core: task %s deviation window %d", s.ID, s.DeviationWindow)
	}
	if s.SilenceWindow <= 0 {
		return fmt.Errorf("core: task %s silence window %d", s.ID, s.SilenceWindow)
	}
	if s.MakeLogic == nil {
		return fmt.Errorf("core: task %s has no logic factory", s.ID)
	}
	return nil
}

// RTOSTask converts the spec to the nano-RK task used for admission.
func (s TaskSpec) RTOSTask() rtos.Task {
	return rtos.Task{ID: rtos.TaskID(s.ID), Period: s.Period, WCET: s.WCET}
}

// VCConfig describes a Virtual Component: its head, gateway and tasks.
// The object-transfer relations of §3.1.2 follow from the task list and
// are enforced where data moves: sensor snapshots flow from the gateway
// and actuations back to it, each replica observes the health of its
// task's current primary (Node.onHealth), and MaxInputAge discards stale
// sensor data (Node.onSensor).
type VCConfig struct {
	Name string
	// Head is the arbiter node ("the head of the Virtual Component",
	// §4.2).
	Head radio.NodeID
	// Gateway is the plant bridge node (excluded from task placement).
	Gateway radio.NodeID
	Tasks   []TaskSpec
	// DormantAfter is how long a demoted primary stays Indicator before
	// the head sets it Dormant (paper: T3 - T2 = 200 s).
	DormantAfter time.Duration
}

// Validate checks the VC configuration.
func (c VCConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("core: VC with empty name")
	}
	if len(c.Tasks) == 0 {
		return fmt.Errorf("core: VC %s has no tasks", c.Name)
	}
	seen := make(map[string]bool, len(c.Tasks))
	for _, t := range c.Tasks {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("core: duplicate task %s", t.ID)
		}
		seen[t.ID] = true
		for _, cand := range t.Candidates {
			if cand == c.Gateway {
				return fmt.Errorf("core: task %s places a controller on the gateway", t.ID)
			}
		}
	}
	if c.DormantAfter < 0 {
		return fmt.Errorf("core: negative DormantAfter")
	}
	return nil
}

// TaskByID returns the spec for a task ID.
func (c VCConfig) TaskByID(id string) (TaskSpec, bool) {
	for _, t := range c.Tasks {
		if t.ID == id {
			return t, true
		}
	}
	return TaskSpec{}, false
}

// InitialRole returns the role a node starts with for a task: the first
// candidate is Active, later candidates are Backup, others Dormant.
func (c VCConfig) InitialRole(task string, node radio.NodeID) RoleOf {
	spec, ok := c.TaskByID(task)
	if !ok {
		return RoleOf{}
	}
	for i, cand := range spec.Candidates {
		if cand == node {
			if i == 0 {
				return RoleOf{Holds: true, Active: true}
			}
			return RoleOf{Holds: true}
		}
	}
	return RoleOf{}
}

// RoleOf describes a node's initial relationship to a task.
type RoleOf struct {
	Holds  bool // node is a candidate (has a replica)
	Active bool // node is the initial primary
}
