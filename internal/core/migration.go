package core

import (
	"fmt"
	"slices"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/rtos"
	"evm/internal/vm"
	"evm/internal/wire"
)

// MigrateTask ships this node's replica of a task to another node: the
// code capsule first (for VM tasks), then the serialized state. The
// transfer rides ordinary RT-Link slots and is fragmented automatically.
func (n *Node) MigrateTask(taskID string, dest radio.NodeID) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no task %s", n.id, taskID)
	}
	if vl, isVM := r.logic.(*VMLogic); isVM {
		n.send(rtlink.Message{Dst: dest, Kind: wire.KindCapsule, Payload: vl.code.Encoded})
	}
	blob, err := r.logic.AppendSnapshot(nil)
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", taskID, err)
	}
	payload, err := wire.StateXfer{TaskID: taskID, Seq: r.outSeq, Blob: blob}.Encode()
	if err != nil {
		return err
	}
	n.send(rtlink.Message{Dst: dest, Kind: wire.KindState, Payload: payload})
	n.stats.MigrationsOut++
	return nil
}

// DeployCapsule ships a (possibly brand-new) control-law capsule to dest
// over the air: the receiver attests it, runs schedulability admission
// and installs it as a replica of the task named by the capsule. This is
// the EVM's runtime reprogramming path — new code reaches a live Virtual
// Component without redeploying nodes.
func (n *Node) DeployCapsule(c vm.Capsule, dest radio.NodeID) error {
	if _, ok := n.cfg.TaskByID(c.TaskID); !ok {
		return fmt.Errorf("core: capsule names unknown task %q", c.TaskID)
	}
	if dest == n.id {
		return fmt.Errorf("core: deploy to self — install directly")
	}
	n.stats.MigrationsOut++
	enc, err := c.Encode()
	if err != nil {
		return err
	}
	n.send(rtlink.Message{Dst: dest, Kind: wire.KindCapsule, Payload: enc})
	return nil
}

// onMigrateCmd executes a head-ordered migration.
func (n *Node) onMigrateCmd(msg rtlink.Message) {
	mc, err := wire.DecodeMigrateCmd(msg.Payload)
	if err != nil {
		return
	}
	_ = n.MigrateTask(mc.TaskID, radio.NodeID(mc.Dest))
}

// onCapsule receives migrated code: attestation happens inside vm.Decode
// (checksum over the capsule), then the task is admitted against the
// node's schedulability test before a replica is created — the paper's
// §3.1.1 op 8 ("the node executes a basic attestation test to ensure the
// code/data is not corrupted and passes the schedulability test").
func (n *Node) onCapsule(msg rtlink.Message) {
	c, err := vm.Decode(msg.Payload)
	if err != nil {
		return // attestation failed: drop
	}
	spec, ok := n.cfg.TaskByID(c.TaskID)
	if !ok {
		return
	}
	logic, err := NewVMLogic(c)
	if err != nil {
		return
	}
	if !n.ensureAdmitted(spec) {
		return
	}
	n.installReplica(spec, logic)
}

// onState receives migrated task state. For tasks whose logic can be
// instantiated from the shared spec (PID controllers), state alone
// suffices; VM tasks need a capsule first.
func (n *Node) onState(msg rtlink.Message) {
	sx, err := wire.DecodeStateXfer(msg.Payload)
	if err != nil {
		return
	}
	r := n.replica(sx.TaskID)
	if r == nil {
		spec, specOK := n.cfg.TaskByID(sx.TaskID)
		if !specOK {
			return
		}
		logic, err := spec.MakeLogic()
		if err != nil {
			return
		}
		if !n.ensureAdmitted(spec) {
			return
		}
		r = n.installReplica(spec, logic)
	}
	if err := r.logic.Restore(sx.Blob); err != nil {
		return
	}
	r.outSeq = sx.Seq
	n.stats.MigrationsIn++
	if n.migrationSink != nil {
		n.migrationSink(sx.TaskID, msg.Src)
	}
}

// HasReplica reports whether the node holds a replica of the task
// (regardless of role).
func (n *Node) HasReplica(taskID string) bool {
	return n.replica(taskID) != nil
}

// ReplicaCount returns how many task replicas the node holds.
func (n *Node) ReplicaCount() int { return len(n.replicas) }

// ExportTask packages this node's replica of a task for out-of-band
// transfer into ex, which the caller owns: the serialized state, the
// output sequence number and, for byte-code tasks, the encoded code
// capsule. The state and capsule bytes are written over ex.Blob and
// ex.Capsule, so an export refreshed in place allocates only when the
// state outgrows it; on error ex holds no usable checkpoint. The
// federation layer ships the export over the campus backbone when a cell
// can no longer host the task locally.
func (n *Node) ExportTask(taskID string, ex *wire.TaskExport) error {
	r := n.replica(taskID)
	if r == nil {
		return fmt.Errorf("core: node %v holds no task %s", n.id, taskID)
	}
	ex.TaskID, ex.Seq, ex.Capsule = taskID, r.outSeq, ex.Capsule[:0]
	if vl, isVM := r.logic.(*VMLogic); isVM {
		ex.Capsule = append(ex.Capsule, vl.code.Encoded...)
	}
	blob, err := r.logic.AppendSnapshot(ex.Blob[:0])
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", taskID, err)
	}
	ex.Blob = blob
	return nil
}

// ImportTask installs a replica of a foreign task delivered out-of-band
// (cross-cell migration over the federation backbone). The capsule, when
// present, is attested by vm.Decode; the state snapshot is restored into
// the new logic; the task passes schedulability admission like any
// migrated task; and with activate the replica starts as the task's
// master immediately — the importing cell's head does not arbitrate
// foreign tasks. A refused import leaves the node as it was: no replica
// and no admission slot.
func (n *Node) ImportTask(spec TaskSpec, ex wire.TaskExport, activate bool) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.ID != ex.TaskID {
		return fmt.Errorf("core: export names task %q, spec %q", ex.TaskID, spec.ID)
	}
	if n.replica(spec.ID) != nil {
		return fmt.Errorf("core: node %v already holds task %s", n.id, spec.ID)
	}
	var logic TaskLogic
	if len(ex.Capsule) > 0 {
		c, err := vm.Decode(ex.Capsule) // attestation
		if err != nil {
			return fmt.Errorf("core: capsule attestation: %w", err)
		}
		logic, err = NewVMLogic(c)
		if err != nil {
			return err
		}
	} else {
		var err error
		logic, err = spec.MakeLogic()
		if err != nil {
			return err
		}
	}
	if len(ex.Blob) > 0 {
		if err := logic.Restore(ex.Blob); err != nil {
			return fmt.Errorf("restore %s: %w", spec.ID, err)
		}
	}
	if !n.ensureAdmitted(spec) {
		return fmt.Errorf("core: node %v cannot schedule imported task %s", n.id, spec.ID)
	}
	r := n.installReplica(spec, logic)
	r.outSeq = ex.Seq
	if activate {
		r.role = wire.RoleActive
		r.activeNode = n.id
	}
	n.stats.MigrationsIn++
	return nil
}

// RetireTask removes this node's replica of a task and frees its
// admission slot. The federation layer retires foreign copies after a
// rebalanced task resumed in its origin cell, so exactly one master
// survives campus-wide.
func (n *Node) RetireTask(taskID string) error {
	if n.replica(taskID) == nil {
		return fmt.Errorf("core: node %v holds no task %s", n.id, taskID)
	}
	i, _ := n.replicaIndex(taskID)
	n.replicas = slices.Delete(slices.Clone(n.replicas), i, i+1)
	n.taskset = n.taskset.Without(rtos.TaskID(taskID))
	return nil
}

// AdoptState restores an out-of-band state snapshot into this node's
// existing replica of the task (or imports a fresh replica when none
// exists). Used when a rebalanced task returns to a home node that kept
// its replica through the outage: the stale local state is overwritten
// by the checkpoint the foreign host shipped back.
func (n *Node) AdoptState(spec TaskSpec, ex wire.TaskExport) error {
	r := n.replica(ex.TaskID)
	if r == nil {
		return n.ImportTask(spec, ex, false)
	}
	if len(ex.Blob) > 0 {
		if err := r.logic.Restore(ex.Blob); err != nil {
			return fmt.Errorf("restore %s: %w", ex.TaskID, err)
		}
	}
	r.outSeq = ex.Seq
	n.stats.MigrationsIn++
	return nil
}

// ensureAdmitted runs schedulability admission for a task not yet in the
// node's task set.
func (n *Node) ensureAdmitted(spec TaskSpec) bool {
	if _, has := n.taskset.Find(rtos.TaskID(spec.ID)); has {
		return true
	}
	grown, ok := rtos.Admit(n.taskset, spec.RTOSTask(), rtos.TestRTA)
	if !ok {
		return false
	}
	n.taskset = grown
	return true
}

// installReplica creates (or replaces) the local replica in Backup role;
// activation is the head's decision.
func (n *Node) installReplica(spec TaskSpec, logic TaskLogic) *replica {
	r := n.replica(spec.ID)
	if r == nil {
		r = &replica{spec: spec, activeNode: spec.Candidates[0], enabled: true}
		n.putReplica(r)
	}
	r.logic = logic
	if r.role == 0 {
		r.role = wire.RoleBackup
	}
	return r
}
