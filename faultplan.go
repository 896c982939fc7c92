package evm

import (
	"fmt"
	"time"
)

// ComputeFault forces a node's replica of a task to emit a fixed wrong
// output — the paper's Fig. 6 byzantine failure ("75% instead of
// 11.48%"). A positive For clears the fault again after that long.
type ComputeFault struct {
	Node   NodeID
	Task   string
	Output float64
	For    time.Duration
}

// TaskRef names one node's replica of a task.
type TaskRef struct {
	Node NodeID
	Task string
}

// PERBurst forces a fixed packet error rate on every link for a window,
// then restores the previous channel model — a declarative form of the
// loss sweeps in the fail-over experiments.
type PERBurst struct {
	PER float64
	For time.Duration
}

// BatteryDrain instantly consumes a fraction of a node's battery
// capacity (internal/radio/energy.go). Draining a primary below the 5%
// threshold exercises the head's proactive energy fail-over (§3.1.1
// op 5): the next health bundle reports the low charge and the head
// migrates the node's duties away.
type BatteryDrain struct {
	Node NodeID
	// Fraction of total capacity to consume, in (0, 1].
	Fraction float64
}

// ClockDrift sets a node's oscillator drift in parts per million. The
// drift accumulates between AM sync pulses, degrading the node's slot
// alignment the longer it goes unsynchronized.
type ClockDrift struct {
	Node NodeID
	PPM  float64
}

// LinkRef names one backbone link by its cell pair (order irrelevant).
type LinkRef struct {
	A, B string
}

// FaultStep is one timed entry of a FaultPlan. At is relative to the
// moment the plan is applied. Any combination of the action fields may be
// set; they execute in declaration order and each emits a FaultEvent on
// the cell's event bus. LinkDown/LinkUp are campus-level actions: they
// target the federation backbone rather than a cell, so plans containing
// them must be applied through Campus.ApplyFaultPlan.
type FaultStep struct {
	At time.Duration
	// CrashNode fails the node's radio (silent crash). Zero = no crash.
	CrashNode NodeID
	// RecoverNode brings a crashed node's radio back. Zero = none.
	RecoverNode NodeID
	// ComputeFault injects a wrong-output fault on a deployed replica.
	ComputeFault *ComputeFault
	// ClearCompute removes a previously injected compute fault.
	ClearCompute *TaskRef
	// PERBurst forces cell-wide packet loss for a window.
	PERBurst *PERBurst
	// BatteryDrain consumes part of a node's battery instantly.
	BatteryDrain *BatteryDrain
	// ClockDrift sets a node's oscillator drift.
	ClockDrift *ClockDrift
	// LinkDown severs the backbone link between two named cells; the
	// backbone reroutes remaining traffic and drops in-flight frames
	// (campus plans only).
	LinkDown *LinkRef
	// LinkUp restores a previously severed backbone link (campus plans
	// only).
	LinkUp *LinkRef
}

// cellActions reports whether the step carries any cell-level action
// (everything but the campus-level link fields).
func (st FaultStep) cellActions() bool {
	return st.CrashNode != 0 || st.RecoverNode != 0 || st.ComputeFault != nil ||
		st.ClearCompute != nil || st.PERBurst != nil || st.BatteryDrain != nil ||
		st.ClockDrift != nil
}

// linkActions reports whether the step carries a backbone link action.
func (st FaultStep) linkActions() bool { return st.LinkDown != nil || st.LinkUp != nil }

// FaultPlan is a declarative fault-injection schedule applied to a cell.
// Plans are plain data: they can be stored, swept in experiment grids and
// crossed with scenarios and seeds by the Runner.
type FaultPlan struct {
	// Name labels the plan in run results ("" reads as "none").
	Name  string
	Steps []FaultStep
}

// Label returns the plan name, or "none" for an unnamed empty plan.
func (p FaultPlan) Label() string {
	if p.Name != "" {
		return p.Name
	}
	if len(p.Steps) == 0 {
		return "none"
	}
	return fmt.Sprintf("%d-steps", len(p.Steps))
}

// validate checks the plan against the cell's current membership.
func (p FaultPlan) validate(c *Cell) error {
	for i, st := range p.Steps {
		if st.At < 0 {
			return fmt.Errorf("evm: fault step %d at negative offset %v", i, st.At)
		}
		for _, id := range []NodeID{st.CrashNode, st.RecoverNode} {
			if id != 0 && c.med.Radio(id) == nil {
				return fmt.Errorf("evm: fault step %d names unknown node %v", i, id)
			}
		}
		if cf := st.ComputeFault; cf != nil {
			if c.nodes[cf.Node] == nil {
				return fmt.Errorf("evm: fault step %d compute fault on undeployed node %v", i, cf.Node)
			}
			if cf.For < 0 {
				return fmt.Errorf("evm: fault step %d negative compute-fault window", i)
			}
		}
		if cl := st.ClearCompute; cl != nil && c.nodes[cl.Node] == nil {
			return fmt.Errorf("evm: fault step %d clears fault on undeployed node %v", i, cl.Node)
		}
		if b := st.PERBurst; b != nil {
			if b.PER < 0 || b.PER > 1 {
				return fmt.Errorf("evm: fault step %d PER %g outside [0,1]", i, b.PER)
			}
			if b.For <= 0 {
				return fmt.Errorf("evm: fault step %d PER burst needs a positive window", i)
			}
		}
		if bd := st.BatteryDrain; bd != nil {
			if c.med.Radio(bd.Node) == nil {
				return fmt.Errorf("evm: fault step %d drains unknown node %v", i, bd.Node)
			}
			if bd.Fraction <= 0 || bd.Fraction > 1 {
				return fmt.Errorf("evm: fault step %d drain fraction %g outside (0,1]", i, bd.Fraction)
			}
		}
		if cd := st.ClockDrift; cd != nil && c.med.Radio(cd.Node) == nil {
			return fmt.Errorf("evm: fault step %d drifts unknown node %v", i, cd.Node)
		}
		if st.linkActions() {
			return fmt.Errorf("evm: fault step %d targets a backbone link; apply the plan through Campus.ApplyFaultPlan", i)
		}
	}
	return nil
}

// ApplyFaultPlan schedules every step of the plan on the cell's virtual
// timeline, offsets measured from now. It subsumes the imperative
// InjectComputeFault / Radio().Fail() calls: the same faults become
// declarative data, and each executed action is published as a FaultEvent.
func (c *Cell) ApplyFaultPlan(p FaultPlan) error {
	if err := p.validate(c); err != nil {
		return err
	}
	for _, st := range p.Steps {
		step := st
		c.eng.After(step.At, func() { c.runFaultStep(step) })
	}
	return nil
}

func (c *Cell) runFaultStep(st FaultStep) {
	if st.CrashNode != 0 {
		if r := c.med.Radio(st.CrashNode); r != nil {
			r.Fail()
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultCrash, Node: st.CrashNode})
		}
	}
	if st.RecoverNode != 0 {
		if r := c.med.Radio(st.RecoverNode); r != nil {
			r.Recover()
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultRecover, Node: st.RecoverNode})
		}
	}
	if cf := st.ComputeFault; cf != nil {
		if n := c.nodes[cf.Node]; n != nil {
			n.InjectComputeFault(cf.Task, cf.Output)
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultCompute, Node: cf.Node, Task: cf.Task, Value: cf.Output})
			if cf.For > 0 {
				c.eng.After(cf.For, func() {
					n.ClearComputeFault(cf.Task)
					c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultComputeClear, Node: cf.Node, Task: cf.Task})
				})
			}
		}
	}
	if cl := st.ClearCompute; cl != nil {
		if n := c.nodes[cl.Node]; n != nil {
			n.ClearComputeFault(cl.Task)
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultComputeClear, Node: cl.Node, Task: cl.Task})
		}
	}
	if bd := st.BatteryDrain; bd != nil {
		if r := c.med.Radio(bd.Node); r != nil && r.Battery() != nil {
			r.Battery().ConsumeFraction(bd.Fraction)
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultBatteryDrain, Node: bd.Node, Value: bd.Fraction})
		}
	}
	if cd := st.ClockDrift; cd != nil {
		if r := c.med.Radio(cd.Node); r != nil {
			r.SetDriftPPM(cd.PPM)
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultClockDrift, Node: cd.Node, Value: cd.PPM})
		}
	}
	if b := st.PERBurst; b != nil {
		// Restore whatever channel was in force when the burst started —
		// a forced rate set through any path (CellSpec.PER,
		// Medium.ForcePER) or the channel model (negative).
		prev := c.med.ForcedPER()
		c.med.ForcePER(b.PER)
		c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultPERBurst, Value: b.PER})
		c.eng.After(b.For, func() {
			c.med.ForcePER(prev)
			restored := prev
			if restored < 0 {
				restored = 0
			}
			c.bus.publish(FaultEvent{At: c.eng.Now(), Kind: FaultPERRestore, Value: restored})
		})
	}
}
