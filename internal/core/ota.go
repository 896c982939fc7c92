package core

import (
	"fmt"

	"evm/internal/vm"
)

// Over-the-air reprogramming: the per-node half of a capsule rollout.
// A rollout upgrades a live replica in two steps mirroring the
// federation's prepare/commit handshake — StageCapsule admits attested
// code without running it, ActivateStaged swaps it into the replica's
// running interpreter at the commit point — and remembers the outgoing
// code so RevertCapsule can swap it back when a post-activation health
// window trips (paper §1: "runtime programmable WSAC networks allow for
// flexible item-by-item process customization").

// VerifiedCapsule is an attested capsule with the encoding it arrived in.
// A rollout verifies each prepare leg once and stages the result on every
// replica holder in the cell, so nothing may modify it afterwards.
type VerifiedCapsule struct {
	vm.Capsule
	Encoded []byte // the encoding checkpoints and migrations ship
}

// VerifyCapsule attests an encoded capsule (vm.Decode verifies its
// checksum) and keeps enc as its encoding: the caller hands enc over.
func VerifyCapsule(enc []byte) (*VerifiedCapsule, error) {
	c, err := vm.Decode(enc)
	if err != nil {
		return nil, err
	}
	return &VerifiedCapsule{Capsule: c, Encoded: enc}, nil
}

// StageCapsule admits attested code for the node's replica of the
// capsule's task without running it: the running logic and its state keep
// executing until ActivateStaged. The node keeps c itself. Staging a task
// the node holds no replica of, or an empty program, is an error;
// re-staging replaces a staged capsule. Admission needs no new
// schedulability test: the capsule reprograms a task already admitted
// with the same period and WCET.
func (n *Node) StageCapsule(c *VerifiedCapsule) error {
	r := n.replica(c.TaskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s to stage", n.id, c.TaskID)
	}
	if len(c.Code) == 0 {
		return fmt.Errorf("core: stage %s v%d: empty capsule", c.TaskID, c.Version)
	}
	r.staged = c
	return nil
}

// StagedVersion returns the version of the capsule staged for a task,
// if any.
func (n *Node) StagedVersion(taskID string) (uint8, bool) {
	if r := n.replica(taskID); r != nil && r.staged != nil {
		return r.staged.Version, true
	}
	return 0, false
}

// ClearStaged drops a staged capsule without activating it (rollout
// abort before the commit point). No-op when nothing is staged.
func (n *Node) ClearStaged(taskID string) {
	if r := n.replica(taskID); r != nil {
		r.staged = nil
	}
}

// ActivateStaged swaps the staged code into the replica's running
// interpreter — the commit point of a rollout. Controller state carries
// over when vm.Interp.SwapCode keeps it (VM capsules share the
// persistent-memory convention) and starts fresh otherwise. Native logic
// gets its interpreter here, restored from its snapshot when that fits.
// The outgoing code (or native logic) is kept for RevertCapsule. Role and
// output sequence are untouched: an active master keeps actuating.
func (n *Node) ActivateStaged(taskID string) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s", n.id, taskID)
	}
	if r.staged == nil {
		return fmt.Errorf("core: node %v has no staged capsule for task %s", n.id, taskID)
	}
	if vl, ok := r.logic.(*VMLogic); ok {
		r.outgoing, r.native = vl.code, nil
		vl.swap(r.staged)
	} else {
		vl := &VMLogic{}
		vl.interp = vm.New(nil, &vl.host)
		vl.swap(r.staged)
		if blob, err := r.logic.AppendSnapshot(nil); err == nil {
			_ = vl.Restore(blob) // best effort: a refused state stays fresh
		}
		r.outgoing, r.native, r.logic = nil, r.logic, vl
	}
	r.staged = nil
	return nil
}

// RevertCapsule swaps the code that ran before the last ActivateStaged
// back into the interpreter, which keeps its current state under the
// same check: the prior law continues from the state the failed epoch
// left, not from the state at activation. Native logic comes back with
// the state it had at activation. Role and output sequence continue
// unbroken. Reverting twice (or without an activation) is an error.
func (n *Node) RevertCapsule(taskID string) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s", n.id, taskID)
	}
	if r.native != nil {
		r.logic = r.native
	} else if vl, isVM := r.logic.(*VMLogic); isVM && r.outgoing != nil {
		vl.swap(r.outgoing)
	} else {
		return fmt.Errorf("core: node %v has no previous capsule for task %s", n.id, taskID)
	}
	r.outgoing, r.native = nil, nil
	return nil
}

// CapsuleVersion returns the version of the capsule currently executing
// a task's replica. Tasks running native (non-VM) logic report ok=false.
func (n *Node) CapsuleVersion(taskID string) (uint8, bool) {
	r := n.replica(taskID)
	if r == nil {
		return 0, false
	}
	if vl, isVM := r.logic.(*VMLogic); isVM {
		return vl.code.Version, true
	}
	return 0, false
}
