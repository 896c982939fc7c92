package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/rtos"
	"evm/internal/sim"
	"evm/internal/wire"
)

// NodeStats counts one node's EVM activity.
type NodeStats struct {
	CyclesRun       int
	ActuationsSent  int
	HealthSent      int
	FaultsReported  int
	RoleChangesSeen int
	MigrationsIn    int
	MigrationsOut   int
	StaleInputs     int
	SendErrors      int
	LogicErrors     int
}

// replica is one node's copy of a control task.
type replica struct {
	spec  TaskSpec
	logic TaskLogic
	role  wire.Role

	outSeq     uint32
	lastOutput float64
	haveOutput bool

	// Observation of the current primary (passive state sharing).
	activeNode     radio.NodeID
	lastPrimaryOut float64
	havePrimary    bool
	lastPrimaryAt  time.Duration
	deviationCount int
	lastDevSeq     uint32 // primary health seq already judged
	cooldownUntil  time.Duration

	roleSeq uint32 // last applied role-change sequence
	enabled bool   // mode gating

	// OTA staging (see ota.go): staged holds an attested-but-inactive
	// capsule logic awaiting the rollout commit point; prev retains the
	// previously active logic (state intact) for rollback.
	staged        *VMLogic
	stagedVersion uint8
	prev          TaskLogic
	prevVersion   uint8
}

// Node is the EVM runtime on one physical node: it executes its task
// replicas every control cycle, publishes health assessments, passively
// observes primaries when in Backup role, reports faults to the VC head,
// and accepts migrated code/state.
type Node struct {
	eng  *sim.Engine
	link *rtlink.Link
	net  *rtlink.Network
	cfg  VCConfig
	id   radio.NodeID

	// replicas holds the node's task replicas sorted by task ID, so every
	// iteration over them is reproducible; lookups binary-search it.
	// putReplica and RetireTask replace the slice rather than edit it in
	// place, so a loop over it keeps its snapshot even when a callback it
	// makes installs or retires a replica.
	replicas []*replica
	taskset  rtos.TaskSet
	head     *Head
	stats    NodeStats
	watchdog *sim.Ticker

	// computeFaults forces a replica's output to a fixed wrong value
	// (Fig. 6 failure injection: Ctrl-A "sets a wrong valve output
	// level, 75% instead of 11.48%").
	computeFaults map[string]float64

	mode        uint8
	modeTasks   map[uint8]map[string]bool // mode -> enabled task IDs
	pendingMode *wire.ModeChange

	// migrationSink is the facade's event-bus observer for completed
	// migrations (MigrationEvent on evm.Cell.Events).
	migrationSink func(taskID string, from radio.NodeID)

	// lastSensorAt is when the node last heard the gateway.
	lastSensorAt time.Duration

	// Per-cycle scratch: sensorIn is the decode target of onSensor,
	// healthIn that of onHealth, healthOut the record buffer of
	// sendHealthBundle, and out the encode buffer of sendActuate and
	// sendHealthBundle, which the link copies in Send, and the snapshot
	// buffer of replicateState, which the StateXfer encoder copies. None
	// of them re-enters itself, so each may keep reading its buffer while
	// the work it does sends messages: a node dispatches locally only
	// what it addresses to itself, never a broadcast, and only the
	// gateway sends snapshots; every other message reaches a handler
	// through the radio, in a later event.
	sensorIn  wire.SensorSnapshot
	healthIn  wire.HealthBundle
	healthOut []wire.HealthRecord
	out       []byte
}

// SetMigrationSink registers the facade-level migration observer.
func (n *Node) SetMigrationSink(fn func(taskID string, from radio.NodeID)) {
	n.migrationSink = fn
}

// NewNode builds the EVM runtime for one member node. The node creates a
// replica for every task that lists it as a candidate.
func NewNode(net *rtlink.Network, link *rtlink.Link, cfg VCConfig) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Node{
		eng:           net.Engine(),
		link:          link,
		net:           net,
		cfg:           cfg,
		id:            link.ID(),
		computeFaults: make(map[string]float64),
		modeTasks:     make(map[uint8]map[string]bool),
	}
	for _, spec := range cfg.Tasks {
		ro := cfg.InitialRole(spec.ID, n.id)
		if !ro.Holds {
			continue
		}
		logic, err := spec.MakeLogic()
		if err != nil {
			return nil, fmt.Errorf("task %s logic: %w", spec.ID, err)
		}
		role := wire.RoleBackup
		if ro.Active {
			role = wire.RoleActive
		}
		grown, ok := rtos.Admit(n.taskset, spec.RTOSTask(), rtos.TestRTA)
		if !ok {
			return nil, fmt.Errorf("core: node %v cannot schedule task %s", n.id, spec.ID)
		}
		n.taskset = grown
		n.putReplica(&replica{
			spec:       spec,
			logic:      logic,
			role:       role,
			activeNode: spec.Candidates[0],
			enabled:    true,
		})
	}
	link.SetHandler(n.onMessage)
	if n.id == cfg.Head {
		n.head = newHead(n)
	}
	return n, nil
}

// ID returns the node's network identity.
func (n *Node) ID() radio.NodeID { return n.id }

// Stats returns a copy of the node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Head returns the head runtime if this node is the VC head.
func (n *Node) Head() *Head { return n.head }

// Link exposes the underlying RT-Link layer.
func (n *Node) Link() *rtlink.Link { return n.link }

// Role returns the node's role for a task (RoleDormant if no replica).
func (n *Node) Role(taskID string) wire.Role {
	if r := n.replica(taskID); r != nil {
		return r.role
	}
	return wire.RoleDormant
}

// LastOutput returns the node's latest computed output for a task.
func (n *Node) LastOutput(taskID string) (float64, bool) {
	if r := n.replica(taskID); r != nil {
		return r.lastOutput, r.haveOutput
	}
	return 0, false
}

// SetModeTasks registers the task set active in a mode. Tasks of
// unregistered modes stay enabled (mode 0 is "everything on").
func (n *Node) SetModeTasks(mode uint8, taskIDs []string) {
	m := make(map[string]bool, len(taskIDs))
	for _, id := range taskIDs {
		m[id] = true
	}
	n.modeTasks[mode] = m
}

// Mode returns the node's current operating mode.
func (n *Node) Mode() uint8 { return n.mode }

// InjectComputeFault makes the node's replica output a fixed wrong value.
func (n *Node) InjectComputeFault(taskID string, wrongOutput float64) {
	n.computeFaults[taskID] = wrongOutput
}

// ClearComputeFault removes the injected fault.
func (n *Node) ClearComputeFault(taskID string) {
	delete(n.computeFaults, taskID)
}

// Start launches the per-node silent-primary watchdog.
func (n *Node) Start() {
	period := n.minPeriod()
	n.watchdog = n.eng.Every(period, n.watchdogTick)
}

// Stop halts the watchdog.
func (n *Node) Stop() {
	if n.watchdog != nil {
		n.watchdog.Stop()
	}
	if n.head != nil {
		n.head.stop()
	}
}

func (n *Node) minPeriod() time.Duration {
	min := time.Duration(0)
	for _, r := range n.replicas {
		if min == 0 || r.spec.Period < min {
			min = r.spec.Period
		}
	}
	if min == 0 {
		min = 250 * time.Millisecond
	}
	return min
}

// replicaIndex returns where the replica of taskID is, or would be
// inserted, in n.replicas, and whether it is there.
func (n *Node) replicaIndex(taskID string) (int, bool) {
	return slices.BinarySearchFunc(n.replicas, taskID, func(r *replica, id string) int {
		return strings.Compare(r.spec.ID, id)
	})
}

// replica returns the node's replica of taskID, or nil.
func (n *Node) replica(taskID string) *replica {
	if i, ok := n.replicaIndex(taskID); ok {
		return n.replicas[i]
	}
	return nil
}

// putReplica adds a replica for a task the node does not hold yet.
func (n *Node) putReplica(r *replica) {
	i, _ := n.replicaIndex(r.spec.ID)
	grown := make([]*replica, len(n.replicas)+1)
	copy(grown, n.replicas[:i])
	grown[i] = r
	copy(grown[i+1:], n.replicas[i:])
	n.replicas = grown
}

// send transmits a message, dispatching locally when the destination is
// this node (the head talks to itself without the radio).
func (n *Node) send(msg rtlink.Message) {
	if msg.Dst == n.id {
		msg.Src = n.id
		n.onMessage(msg)
		return
	}
	if err := n.link.Send(msg); err != nil {
		n.stats.SendErrors++
	}
}

// onMessage is the RT-Link delivery handler.
func (n *Node) onMessage(msg rtlink.Message) {
	switch msg.Kind {
	case wire.KindSensor:
		n.onSensor(msg)
	case wire.KindHealth:
		n.onHealth(msg)
	case wire.KindRoleChange:
		n.onRoleChange(msg)
	case wire.KindFaultReport:
		if n.head != nil {
			n.head.onFaultReport(msg)
		}
	case wire.KindJoin:
		if n.head != nil {
			n.head.onJoin(msg)
		}
	case wire.KindModeChange:
		n.onModeChange(msg)
	case wire.KindMigrateCmd:
		n.onMigrateCmd(msg)
	case wire.KindCapsule:
		n.onCapsule(msg)
	case wire.KindState:
		n.onState(msg)
	case wire.KindStateSync:
		n.onStateSync(msg)
	}
}

// onSensor runs one control cycle for every replica fed by the snapshot.
func (n *Node) onSensor(msg rtlink.Message) {
	snap := &n.sensorIn
	if err := wire.DecodeSnapshotInto(msg.Payload, snap); err != nil {
		return
	}
	n.lastSensorAt = n.eng.Now()
	n.applyPendingMode()
	ran := false
	for _, r := range n.replicas {
		if !r.enabled {
			continue
		}
		if r.role != wire.RoleActive && r.role != wire.RoleBackup {
			continue
		}
		input, ok := reading(snap.Readings, r.spec.SensorPort)
		if !ok {
			continue
		}
		// Temporal-conditional transfer: discard stale data (§3.1.2).
		if r.spec.MaxInputAge > 0 && snap.At > 0 && n.eng.Now()-snap.At > r.spec.MaxInputAge {
			n.stats.StaleInputs++
			continue
		}
		n.runCycle(r, input)
		ran = true
	}
	if ran {
		n.sendHealthBundle()
	}
}

// reading returns the value of the last reading for port; a snapshot
// holds a handful of readings, so a scan beats building a map per cycle.
func reading(rds []wire.SensorReading, port uint8) (float64, bool) {
	for i := len(rds) - 1; i >= 0; i-- {
		if rds[i].Port == port {
			return rds[i].Value, true
		}
	}
	return 0, false
}

func (n *Node) runCycle(r *replica, input float64) {
	dt := r.spec.Period.Seconds()
	out, err := r.logic.Step(input, dt)
	if err != nil {
		n.stats.LogicErrors++
		return
	}
	if wrong, faulty := n.computeFaults[r.spec.ID]; faulty {
		out = wrong
	}
	r.lastOutput = out
	r.haveOutput = true
	r.outSeq++
	n.stats.CyclesRun++

	if r.role == wire.RoleActive {
		n.sendActuate(r)
		if r.spec.ReplicateEvery > 0 && r.outSeq%uint32(r.spec.ReplicateEvery) == 0 {
			n.replicateState(r)
		}
	}
}

// replicateState implements active state sharing: the primary ships its
// snapshot to every other candidate so backups stay consistent even when
// they missed cycles.
func (n *Node) replicateState(r *replica) {
	blob, err := r.logic.AppendSnapshot(n.out[:0])
	if err != nil {
		return
	}
	n.out = blob
	payload, err := wire.StateXfer{TaskID: r.spec.ID, Seq: r.outSeq, Blob: blob}.Encode()
	if err != nil {
		return
	}
	for _, cand := range r.spec.Candidates {
		if cand == n.id {
			continue
		}
		n.send(rtlink.Message{Dst: cand, Kind: wire.KindStateSync, Payload: payload})
	}
}

// onStateSync applies an active-replication snapshot to a backup replica.
func (n *Node) onStateSync(msg rtlink.Message) {
	sx, err := wire.DecodeStateXfer(msg.Payload)
	if err != nil {
		return
	}
	r := n.replica(sx.TaskID)
	if r == nil || r.role != wire.RoleBackup {
		return
	}
	// Only accept state from the node we believe is the primary.
	if msg.Src != r.activeNode {
		return
	}
	if err := r.logic.Restore(sx.Blob); err != nil {
		return
	}
	r.outSeq = sx.Seq
}

func (n *Node) sendActuate(r *replica) {
	payload, err := wire.Actuate{
		Port:   r.spec.ActuatorPort,
		Value:  r.lastOutput,
		TaskID: r.spec.ID,
		Seq:    r.outSeq,
	}.AppendTo(n.out[:0])
	if err != nil {
		return
	}
	n.out = payload
	n.send(rtlink.Message{Dst: n.cfg.Gateway, Kind: wire.KindActuate, Payload: payload})
	n.stats.ActuationsSent++
}

// sendHealthBundle broadcasts one health-assessment frame covering every
// enabled replica on this node.
func (n *Node) sendHealthBundle() {
	battery := n.link.Radio().BatteryFraction()
	records := n.healthOut[:0]
	for _, r := range n.replicas {
		if !r.enabled {
			continue
		}
		if r.role != wire.RoleActive && r.role != wire.RoleBackup {
			continue
		}
		records = append(records, wire.HealthRecord{
			TaskID: r.spec.ID,
			Role:   r.role,
			Seq:    r.outSeq,
			Output: r.lastOutput,
			HasOut: r.haveOutput,
		})
	}
	n.healthOut = records
	if len(records) == 0 {
		return
	}
	payload, err := wire.HealthBundle{
		Node:    uint16(n.id),
		Battery: battery,
		Records: records,
	}.AppendTo(n.out[:0])
	if err != nil {
		return
	}
	n.out = payload
	n.send(rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindHealth, Payload: payload})
	n.stats.HealthSent++
}

// onHealth implements the passive observation side of the health-
// assessment transfer: a backup compares the primary's announced output
// with its own computation. Every node hears every bundle, but only the
// head and the observers of the sender read one, so a member drops the
// rest on the sender field alone.
func (n *Node) onHealth(msg rtlink.Message) {
	if n.head == nil && !n.observes(msg.Payload) {
		return
	}
	hb := &n.healthIn
	if err := wire.DecodeHealthBundleInto(msg.Payload, hb, (*taskIDs)(n)); err != nil {
		return
	}
	if n.head != nil {
		n.head.onHealthBundle(*hb)
	}
	for _, rec := range hb.Records {
		r := n.replica(rec.TaskID)
		if r == nil || radio.NodeID(hb.Node) != r.activeNode || hb.Node == uint16(n.id) {
			continue
		}
		r.lastPrimaryAt = n.eng.Now()
		if !rec.HasOut {
			continue
		}
		r.lastPrimaryOut = rec.Output
		r.havePrimary = true
		if r.role == wire.RoleBackup {
			n.checkDeviation(r, rec.Seq)
		}
	}
}

// observes reports whether the health bundle in payload can touch one of
// the node's replicas, which onHealth's loop does only when the bundle's
// sender is another node and a replica's activeNode.
func (n *Node) observes(payload []byte) bool {
	src, err := wire.HealthBundleSender(payload)
	if err != nil || src == uint16(n.id) {
		return false
	}
	for _, r := range n.replicas {
		if r.activeNode == radio.NodeID(src) {
			return true
		}
	}
	return false
}

// taskIDs interns decoded task IDs against the ID strings the node
// already holds: its component's tasks, then its own replicas (adopted
// foreign tasks among them). It needs no storage of its own.
type taskIDs Node

// Intern implements wire.Interner.
func (t *taskIDs) Intern(b []byte) string {
	for i := range t.cfg.Tasks {
		if id := t.cfg.Tasks[i].ID; id == string(b) {
			return id
		}
	}
	for _, r := range t.replicas {
		if r.spec.ID == string(b) {
			return r.spec.ID
		}
	}
	return string(b)
}

// checkDeviation judges one primary health record against the backup's
// own latest computation. The primary's health for cycle k arrives after
// the backup computed cycle k in the same TDMA frame, so the comparison
// pairs fresh outputs; each primary sequence number is judged once.
func (n *Node) checkDeviation(r *replica, primarySeq uint32) {
	if !r.haveOutput || !r.havePrimary {
		return
	}
	if primarySeq == r.lastDevSeq {
		return
	}
	r.lastDevSeq = primarySeq
	dev := r.lastPrimaryOut - r.lastOutput
	if dev < 0 {
		dev = -dev
	}
	if dev > r.spec.DeviationTol {
		r.deviationCount++
	} else {
		r.deviationCount = 0
	}
	if r.deviationCount >= r.spec.DeviationWindow {
		n.reportFault(r, wire.FaultOutputDeviation, dev)
	}
}

// watchdogTick detects silent primaries (crash faults).
func (n *Node) watchdogTick() {
	now := n.eng.Now()
	for _, r := range n.replicas {
		if r.role != wire.RoleBackup || !r.enabled {
			continue
		}
		if r.lastPrimaryAt == 0 {
			// Never heard: only alarm once sensor traffic is flowing.
			if n.lastSensorAt == 0 {
				continue
			}
			r.lastPrimaryAt = n.lastSensorAt
			continue
		}
		silence := now - r.lastPrimaryAt
		if silence > time.Duration(r.spec.SilenceWindow)*r.spec.Period {
			n.reportFault(r, wire.FaultSilent, silence.Seconds())
		}
	}
}

func (n *Node) reportFault(r *replica, reason wire.FaultReason, magnitude float64) {
	if n.eng.Now() < r.cooldownUntil {
		return
	}
	r.cooldownUntil = n.eng.Now() + 4*time.Duration(r.spec.SilenceWindow)*r.spec.Period
	r.deviationCount = 0
	payload, err := wire.FaultReport{
		Reporter:  uint16(n.id),
		Suspect:   uint16(r.activeNode),
		TaskID:    r.spec.ID,
		Reason:    reason,
		Deviation: magnitude,
		Cycles:    uint16(r.spec.DeviationWindow),
	}.Encode()
	if err != nil {
		return
	}
	n.send(rtlink.Message{Dst: n.cfg.Head, Kind: wire.KindFaultReport, Payload: payload})
	n.stats.FaultsReported++
}

// onRoleChange applies the head's arbitration decision.
func (n *Node) onRoleChange(msg rtlink.Message) {
	rc, err := wire.DecodeRoleChangeInterned(msg.Payload, (*taskIDs)(n))
	if err != nil {
		return
	}
	n.stats.RoleChangesSeen++
	r := n.replica(rc.TaskID)
	if r == nil {
		return
	}
	if rc.Seq != 0 && rc.Seq <= r.roleSeq {
		return // stale decision
	}
	r.roleSeq = rc.Seq
	if rc.Role == wire.RoleActive {
		// Everyone learns the new primary.
		r.activeNode = radio.NodeID(rc.Node)
		r.havePrimary = false
		r.deviationCount = 0
		r.lastPrimaryAt = n.eng.Now()
	}
	if radio.NodeID(rc.Node) == n.id {
		r.role = rc.Role
	} else if rc.Role == wire.RoleActive && r.role == wire.RoleActive {
		// Someone else became primary: demote self to backup unless
		// a separate decision says otherwise.
		r.role = wire.RoleBackup
	}
}

// onModeChange schedules a synchronized task-set switch.
func (n *Node) onModeChange(msg rtlink.Message) {
	mc, err := wire.DecodeModeChange(msg.Payload)
	if err != nil {
		return
	}
	n.pendingMode = &mc
	n.applyPendingMode()
}

func (n *Node) applyPendingMode() {
	if n.pendingMode == nil {
		return
	}
	if n.net.Frame() < n.pendingMode.AtFrame {
		return
	}
	n.mode = n.pendingMode.Mode
	n.pendingMode = nil
	enabled, ok := n.modeTasks[n.mode]
	for _, r := range n.replicas {
		if !ok {
			r.enabled = true
			continue
		}
		r.enabled = enabled[r.spec.ID]
	}
}
