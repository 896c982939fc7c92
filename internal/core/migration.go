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
	if spec, ok := n.cfg.TaskByID(c.TaskID); ok {
		_, _ = n.install(spec, &c, nil, 0)
	}
}

// onState receives migrated task state. For tasks whose logic can be
// instantiated from the shared spec (PID controllers), state alone
// suffices; VM tasks need a capsule first.
func (n *Node) onState(msg rtlink.Message) {
	sx, err := wire.DecodeStateXfer(msg.Payload)
	if err != nil {
		return
	}
	spec, ok := n.cfg.TaskByID(sx.TaskID)
	if r := n.replica(sx.TaskID); r != nil {
		spec, ok = r.spec, true
	}
	if !ok {
		return
	}
	if _, err := n.install(spec, nil, sx.Blob, sx.Seq); err != nil {
		return
	}
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

// ImportTask installs a task delivered out-of-band (cross-cell migration
// over the federation backbone). A node without a replica attests the
// capsule, when present, with vm.Decode, restores the state snapshot into
// the new logic and admits the task like any migrated task; with activate
// the new replica starts as the task's master immediately — the importing
// cell's head does not arbitrate foreign tasks. A replica the node
// already holds (a rebalanced task returning to a home node that kept it
// through the outage) keeps its role and code and takes the state. A
// refused import leaves the node as it was.
func (n *Node) ImportTask(spec TaskSpec, ex wire.TaskExport, activate bool) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.ID != ex.TaskID {
		return fmt.Errorf("core: export names task %q, spec %q", ex.TaskID, spec.ID)
	}
	held := n.HasReplica(spec.ID)
	var code *vm.Capsule
	if len(ex.Capsule) > 0 && !held {
		c, err := vm.Decode(ex.Capsule)
		if err != nil {
			return fmt.Errorf("core: capsule attestation: %w", err)
		}
		code = &c
	}
	r, err := n.install(spec, code, ex.Blob, ex.Seq)
	if err != nil {
		return err
	}
	if activate && !held {
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
