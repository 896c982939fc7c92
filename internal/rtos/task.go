// Package rtos is the admission control of the nano-RK resource kernel
// the EVM runs on: periodic tasks with implicit deadlines under fully
// preemptive fixed priorities, rate-monotonic priority assignment, and
// classical schedulability analysis (Liu-Layland utilization bound and
// exact response-time analysis).
//
// The EVM (internal/core) uses this package for runtime admission control:
// a migrated or replicated task is only activated on a node if the node's
// task set remains schedulable (paper §3.1.1, operations 2-4).
package rtos

import (
	"fmt"
	"sort"
	"time"
)

// TaskID names a task within a node.
type TaskID string

// Task is a periodic real-time task in the nano-RK sense. Its deadline
// is implicit: each job must finish before the next is released.
type Task struct {
	ID     TaskID
	Period time.Duration
	WCET   time.Duration // worst-case execution time per job
	// Priority is the fixed scheduling priority; lower value = higher
	// priority (nano-RK convention). Assign with AssignRM or set
	// explicitly.
	Priority int
}

// Utilization returns WCET/Period.
func (t Task) Utilization() float64 {
	if t.Period <= 0 {
		return 0
	}
	return float64(t.WCET) / float64(t.Period)
}

// Validate checks task sanity.
func (t Task) Validate() error {
	if t.ID == "" {
		return fmt.Errorf("rtos: task with empty ID")
	}
	if t.Period <= 0 {
		return fmt.Errorf("rtos: task %s period %v", t.ID, t.Period)
	}
	if t.WCET <= 0 {
		return fmt.Errorf("rtos: task %s wcet %v", t.ID, t.WCET)
	}
	if t.WCET > t.Period {
		return fmt.Errorf("rtos: task %s wcet %v exceeds period %v", t.ID, t.WCET, t.Period)
	}
	return nil
}

// TaskSet is a collection of tasks on one node.
type TaskSet []Task

// Validate checks every task and ID uniqueness.
func (ts TaskSet) Validate() error {
	seen := make(map[TaskID]bool, len(ts))
	for _, t := range ts {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("rtos: duplicate task ID %s", t.ID)
		}
		seen[t.ID] = true
	}
	return nil
}

// Utilization returns the total CPU utilization of the set.
func (ts TaskSet) Utilization() float64 {
	var u float64
	for _, t := range ts {
		u += t.Utilization()
	}
	return u
}

// Find returns the task with the given ID.
func (ts TaskSet) Find(id TaskID) (Task, bool) {
	for _, t := range ts {
		if t.ID == id {
			return t, true
		}
	}
	return Task{}, false
}

// Without returns a copy of the set with the given task removed.
func (ts TaskSet) Without(id TaskID) TaskSet {
	out := make(TaskSet, 0, len(ts))
	for _, t := range ts {
		if t.ID != id {
			out = append(out, t)
		}
	}
	return out
}

// AssignRM assigns rate-monotonic priorities (shorter period = higher
// priority). Returns a new set; priorities start at 1.
func AssignRM(ts TaskSet) TaskSet {
	out := append(TaskSet(nil), ts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Period != out[j].Period {
			return out[i].Period < out[j].Period
		}
		return out[i].ID < out[j].ID
	})
	for i := range out {
		out[i].Priority = i + 1
	}
	return out
}
