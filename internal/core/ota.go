package core

import (
	"fmt"

	"evm/internal/vm"
)

// Over-the-air reprogramming: the per-node half of a capsule rollout.
// A rollout upgrades a live replica in two steps mirroring the
// federation's prepare/commit handshake — StageCapsule attests and
// admits the new code without running it, ActivateStaged swaps it in at
// the commit point — and keeps the previously active logic around so
// RevertCapsule can roll the replica back when a post-activation health
// window trips (paper §1: "runtime programmable WSAC networks allow for
// flexible item-by-item process customization").

// StageCapsule installs a new code capsule next to the node's live
// replica of the capsule's task without activating it: the capsule is
// instantiated (a malformed program fails here), but the running logic —
// and its state — keep executing until ActivateStaged. The capsule's
// attestation digest is verified by vm.Decode on the delivery path;
// staging a task the node holds no replica of is an error. Re-staging
// replaces a previously staged capsule. Admission needs no new
// schedulability test: the capsule reprograms a task already admitted
// with the same period and WCET.
func (n *Node) StageCapsule(c vm.Capsule) error {
	r := n.replica(c.TaskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s to stage", n.id, c.TaskID)
	}
	logic, err := NewVMLogic(c)
	if err != nil {
		return fmt.Errorf("core: stage %s v%d: %w", c.TaskID, c.Version, err)
	}
	r.staged = logic
	r.stagedVersion = c.Version
	return nil
}

// StagedVersion returns the version of the capsule staged for a task,
// if any.
func (n *Node) StagedVersion(taskID string) (uint8, bool) {
	if r := n.replica(taskID); r != nil && r.staged != nil {
		return r.stagedVersion, true
	}
	return 0, false
}

// ClearStaged drops a staged capsule without activating it (rollout
// abort before the commit point). No-op when nothing is staged.
func (n *Node) ClearStaged(taskID string) {
	if r := n.replica(taskID); r != nil {
		r.staged = nil
		r.stagedVersion = 0
	}
}

// ActivateStaged swaps the replica onto its staged capsule — the commit
// point of a rollout. The outgoing logic's state carries into the new
// logic when the layouts are compatible (VM capsules share the
// persistent-memory convention, so controller state carries over): a VM
// capsule's state is copied interpreter to interpreter, native logic's
// goes through its snapshot bytes. The outgoing logic itself is
// retained, state intact, so RevertCapsule can restore the previous
// version with full state continuity. The
// replica's role and output sequence are untouched: an active master
// keeps actuating, now running the new law.
func (n *Node) ActivateStaged(taskID string) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s", n.id, taskID)
	}
	if r.staged == nil {
		return fmt.Errorf("core: node %v has no staged capsule for task %s", n.id, taskID)
	}
	// Best effort: a state the staged logic refuses leaves it fresh.
	if vl, ok := r.logic.(*VMLogic); ok {
		_ = r.staged.interp.CopyStateFrom(vl.interp)
	} else if blob, err := r.logic.AppendSnapshot(nil); err == nil {
		_ = r.staged.Restore(blob)
	}
	r.prev = r.logic
	r.prevVersion, _ = n.CapsuleVersion(taskID)
	r.logic = r.staged
	r.staged = nil
	r.stagedVersion = 0
	return nil
}

// RevertCapsule rolls the replica back to the logic that was active
// before the last ActivateStaged. The retained previous logic kept its
// own state through the failed epoch, so the control law resumes where
// the prior version left off; role and output sequence continue
// unbroken. Reverting twice (or without a prior activation) is an error.
func (n *Node) RevertCapsule(taskID string) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no replica of task %s", n.id, taskID)
	}
	if r.prev == nil {
		return fmt.Errorf("core: node %v has no previous capsule for task %s", n.id, taskID)
	}
	r.logic = r.prev
	r.prev = nil
	r.prevVersion = 0
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
		return vl.Capsule().Version, true
	}
	return 0, false
}
