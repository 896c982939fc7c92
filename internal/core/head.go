package core

import (
	"math"
	"sort"
	"time"

	"evm/internal/bqp"
	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/sim"
	"evm/internal/wire"
)

// HeadStats counts arbitration activity.
type HeadStats struct {
	Failovers       int
	ReportsIgnored  int
	Joins           int
	RoleChangesSent int
	Reoptimizations int
}

// Head is the Virtual Component's arbiter: it receives fault reports from
// backups, selects new masters, manages membership and triggers runtime
// re-optimization of the task assignment.
type Head struct {
	node *Node
	seq  uint32

	active     map[string]radio.NodeID
	lastHealth map[radio.NodeID]time.Duration
	cooldown   map[string]time.Duration
	members    map[radio.NodeID]wire.Join
	// adopted holds task specs imported from peer cells (federation
	// foreign-task adoption): the head arbitrates them like its own,
	// using the in-cell candidate set chosen at adoption time.
	adopted    map[string]TaskSpec
	dormantEvs []*sim.Event
	stats      HeadStats

	// failoverSink, joinSink and modeSink are the facade's event-bus
	// observers (FailoverEvent / JoinEvent / ModeChangeEvent on
	// evm.Cell.Events).
	failoverSink func(taskID string, from, to radio.NodeID)
	joinSink     func(id radio.NodeID)
	modeSink     func(mode uint8, atFrame uint64)
}

// SetFailoverSink registers the facade-level failover observer.
func (h *Head) SetFailoverSink(fn func(taskID string, from, to radio.NodeID)) {
	h.failoverSink = fn
}

// SetJoinSink registers the facade-level membership observer.
func (h *Head) SetJoinSink(fn func(id radio.NodeID)) { h.joinSink = fn }

// SetModeSink registers the facade-level mode-change observer, fired
// when the head issues a synchronized mode switch.
func (h *Head) SetModeSink(fn func(mode uint8, atFrame uint64)) { h.modeSink = fn }

func newHead(n *Node) *Head {
	h := &Head{
		node:       n,
		active:     make(map[string]radio.NodeID, len(n.cfg.Tasks)),
		lastHealth: make(map[radio.NodeID]time.Duration),
		cooldown:   make(map[string]time.Duration),
		members:    make(map[radio.NodeID]wire.Join),
	}
	for _, t := range n.cfg.Tasks {
		h.active[t.ID] = t.Candidates[0]
		for _, cand := range t.Candidates {
			if _, ok := h.members[cand]; !ok {
				h.members[cand] = wire.Join{Node: uint16(cand), CPUCapacity: 1, Battery: 1}
			}
		}
	}
	return h
}

func (h *Head) stop() {
	for _, ev := range h.dormantEvs {
		h.node.eng.Cancel(ev)
	}
}

// Stats returns a copy of the head counters.
func (h *Head) Stats() HeadStats { return h.stats }

// AdoptTask registers a task imported from a peer cell: the head records
// the spec (with its in-cell candidate set), marks the given node as the
// task's master, and admits the candidates as members. From then on the
// head arbitrates the foreign task's fail-over exactly like a native one.
func (h *Head) AdoptTask(spec TaskSpec, active radio.NodeID) {
	if h.adopted == nil {
		h.adopted = make(map[string]TaskSpec)
	}
	h.adopted[spec.ID] = spec
	h.active[spec.ID] = active
	for _, cand := range spec.Candidates {
		if _, ok := h.members[cand]; !ok {
			h.members[cand] = wire.Join{Node: uint16(cand), CPUCapacity: 1, Battery: 1}
		}
	}
}

// RetireMaster relinquishes a task's mastership without electing a
// successor: the recorded master (typically a stale primary that
// resumed after an outage while the live copy runs in a peer cell) is
// demoted to backup, and the head records no active node — so any later
// health bundle still claiming Active for the task is demoted too. The
// federation coordinator calls this when a recovered cell's task is
// hosted elsewhere; a subsequent Promote re-establishes a master.
func (h *Head) RetireMaster(taskID string) {
	cur, ok := h.active[taskID]
	if !ok || cur == 0 {
		return
	}
	h.broadcastRole(wire.RoleChange{Node: uint16(cur), TaskID: taskID, Role: wire.RoleBackup})
	h.active[taskID] = 0
}

// DropTask forgets an adopted task (its home cell took it back). Tasks
// of the cell's own Virtual Component are never dropped.
func (h *Head) DropTask(taskID string) {
	if _, native := h.node.cfg.TaskByID(taskID); native {
		return
	}
	delete(h.adopted, taskID)
	delete(h.active, taskID)
	delete(h.cooldown, taskID)
}

// taskSpec resolves a task the head arbitrates: the cell's own Virtual
// Component first, then adopted foreign tasks.
func (h *Head) taskSpec(id string) (TaskSpec, bool) {
	if s, ok := h.node.cfg.TaskByID(id); ok {
		return s, true
	}
	s, ok := h.adopted[id]
	return s, ok
}

// ActiveNode returns the current master for a task.
func (h *Head) ActiveNode(taskID string) (radio.NodeID, bool) {
	n, ok := h.active[taskID]
	return n, ok
}

// Members returns the known member IDs, sorted.
func (h *Head) Members() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(h.members))
	for id := range h.members {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (h *Head) onHealthBundle(hb wire.HealthBundle) {
	h.lastHealth[radio.NodeID(hb.Node)] = h.node.eng.Now()
	// A node claiming Active for a task whose master is someone else is
	// stale (e.g. a crashed primary that recovered and missed the role
	// change): demote it so the component has a single master.
	for _, rec := range hb.Records {
		if rec.Role != wire.RoleActive {
			continue
		}
		if master, ok := h.active[rec.TaskID]; ok && master != radio.NodeID(hb.Node) {
			h.broadcastRole(wire.RoleChange{Node: hb.Node, TaskID: rec.TaskID, Role: wire.RoleBackup})
		}
	}
	if hb.Battery < 0.05 {
		// Energy fault: migrate duties away proactively if this node is
		// a master (paper §3.1.1 op 5). Adopted foreign tasks migrate
		// like native ones, in sorted order for determinism.
		for _, spec := range h.node.cfg.Tasks {
			if h.active[spec.ID] == radio.NodeID(hb.Node) {
				h.failover(spec.ID, radio.NodeID(hb.Node), 0)
			}
		}
		adoptedIDs := make([]string, 0, len(h.adopted))
		for id := range h.adopted {
			adoptedIDs = append(adoptedIDs, id)
		}
		sort.Strings(adoptedIDs)
		for _, id := range adoptedIDs {
			if h.active[id] == radio.NodeID(hb.Node) {
				h.failover(id, radio.NodeID(hb.Node), 0)
			}
		}
	}
}

// alive reports whether the head has heard the node recently.
func (h *Head) alive(id radio.NodeID, within time.Duration) bool {
	if id == h.node.id {
		return true
	}
	t, ok := h.lastHealth[id]
	if !ok {
		return false
	}
	return h.node.eng.Now()-t <= within
}

func (h *Head) onFaultReport(msg rtlink.Message) {
	fr, err := wire.DecodeFaultReport(msg.Payload)
	if err != nil {
		return
	}
	task := fr.TaskID
	cur, ok := h.active[task]
	if !ok || cur != radio.NodeID(fr.Suspect) {
		h.stats.ReportsIgnored++
		return // stale or duplicate report
	}
	if h.node.eng.Now() < h.cooldown[task] {
		h.stats.ReportsIgnored++
		return
	}
	h.failover(task, cur, radio.NodeID(fr.Reporter))
}

// failover selects a new master for the task: the highest-priority
// candidate that is alive and not the suspect, preferring the reporter as
// a tie-break fallback.
func (h *Head) failover(task string, suspect, reporter radio.NodeID) {
	spec, ok := h.taskSpec(task)
	if !ok {
		return
	}
	aliveWindow := time.Duration(spec.SilenceWindow) * spec.Period
	var next radio.NodeID
	found := false
	for _, cand := range spec.Candidates {
		if cand == suspect {
			continue
		}
		if cand == reporter || h.alive(cand, aliveWindow) {
			next = cand
			found = true
			break
		}
	}
	if !found {
		if reporter == 0 {
			return
		}
		next = reporter
	}
	h.cooldown[task] = h.node.eng.Now() + spec.failoverCooldown()
	h.promote(task, next, suspect)
}

// Promote performs an operator-planned master switch for a task: the
// same arbitration path as a fail-over, used for planned activations
// (e.g. after over-the-air deployment of new code).
func (h *Head) Promote(task string, next, old radio.NodeID) { h.promote(task, next, old) }

// promote issues the role changes of one fail-over: the new master goes
// Active, the old one goes Indicator, then Dormant after DormantAfter.
func (h *Head) promote(task string, next, old radio.NodeID) {
	h.stats.Failovers++
	h.broadcastRole(wire.RoleChange{Node: uint16(next), TaskID: task, Role: wire.RoleActive})
	if old != 0 && old != next {
		h.broadcastRole(wire.RoleChange{Node: uint16(old), TaskID: task, Role: wire.RoleIndicator})
		if h.node.cfg.DormantAfter > 0 {
			ev := h.node.eng.After(h.node.cfg.DormantAfter, func() {
				h.broadcastRole(wire.RoleChange{Node: uint16(old), TaskID: task, Role: wire.RoleDormant})
			})
			h.dormantEvs = append(h.dormantEvs, ev)
		}
	}
	h.active[task] = next
	if h.failoverSink != nil {
		h.failoverSink(task, old, next)
	}
}

func (h *Head) broadcastRole(rc wire.RoleChange) {
	h.seq++
	rc.Seq = h.seq
	payload, err := rc.Encode()
	if err != nil {
		return
	}
	msg := rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindRoleChange, Payload: payload}
	h.node.send(msg)
	h.stats.RoleChangesSent++
	// Broadcasts do not loop back; apply locally too.
	local := msg
	local.Src = h.node.id
	h.node.onRoleChange(local)
}

func (h *Head) onJoin(msg rtlink.Message) {
	j, err := wire.DecodeJoin(msg.Payload)
	if err != nil {
		return
	}
	h.members[radio.NodeID(j.Node)] = j
	h.lastHealth[radio.NodeID(j.Node)] = h.node.eng.Now()
	h.stats.Joins++
	if h.joinSink != nil {
		h.joinSink(radio.NodeID(j.Node))
	}
}

// SetMode broadcasts a synchronized mode change activating after the
// given number of frames.
func (h *Head) SetMode(mode uint8, inFrames uint64) {
	mc := wire.ModeChange{Mode: mode, AtFrame: h.node.net.Frame() + inFrames}
	payload, err := mc.Encode()
	if err != nil {
		return
	}
	msg := rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindModeChange, Payload: payload}
	h.node.send(msg)
	local := msg
	local.Src = h.node.id
	h.node.onModeChange(local)
	if h.modeSink != nil {
		h.modeSink(mc.Mode, mc.AtFrame)
	}
}

// CommandMigration orders the holder of a task to ship it to dest.
func (h *Head) CommandMigration(taskID string, holder, dest radio.NodeID) {
	mc := wire.MigrateCmd{TaskID: taskID, Dest: uint16(dest)}
	payload, err := mc.Encode()
	if err != nil {
		return
	}
	h.node.send(rtlink.Message{Dst: holder, Kind: wire.KindMigrateCmd, Payload: payload})
}

// Reoptimize recomputes the master assignment with the BQP solver over
// the currently-alive members and issues the necessary role changes
// (paper §3.1.1 op 7). It returns the number of tasks moved.
func (h *Head) Reoptimize(rng *sim.RNG) int {
	tasks := h.node.cfg.Tasks
	nodes := h.aliveMembers()
	if len(nodes) == 0 || len(tasks) == 0 {
		return 0
	}
	prob := h.buildProblem(tasks, nodes)
	sol, err := bqp.SolveAnneal(prob, rng, 20_000)
	if err != nil {
		return 0
	}
	h.stats.Reoptimizations++
	moved := 0
	for ti, spec := range tasks {
		target := nodes[sol.Assign[ti]]
		if h.active[spec.ID] == target {
			continue
		}
		old := h.active[spec.ID]
		// Ship the old master's code and state to every target: a
		// candidate's replica takes them, and any other node installs
		// the task from them (see Node.install).
		if old != 0 && old != h.node.id {
			h.CommandMigration(spec.ID, old, target)
		} else if old == h.node.id {
			_ = h.node.MigrateTask(spec.ID, target)
		}
		h.promote(spec.ID, target, old)
		moved++
	}
	return moved
}

// aliveMembers lists members heard recently (the head itself always
// counts), excluding the gateway. The window matches the silent-fault
// detection horizon so a crashed node is never re-selected.
func (h *Head) aliveMembers() []radio.NodeID {
	window := h.node.minPeriod() * time.Duration(maxSilenceWindow(h.node.cfg))
	var out []radio.NodeID
	for _, id := range h.Members() {
		if id == h.node.cfg.Gateway {
			continue
		}
		if h.alive(id, window) {
			out = append(out, id)
		}
	}
	return out
}

func maxSilenceWindow(cfg VCConfig) int {
	max := 1
	for _, t := range cfg.Tasks {
		if t.SilenceWindow > max {
			max = t.SilenceWindow
		}
	}
	return max
}

// buildProblem constructs the BQP instance: placement cost follows the
// candidate priority order (non-candidates pay a migration premium), a
// pairwise penalty discourages stacking masters on one node, and CPU
// capacity bounds utilization.
func (h *Head) buildProblem(tasks []TaskSpec, nodes []radio.NodeID) *bqp.Problem {
	p := &bqp.Problem{
		Cost: make([][]float64, len(tasks)),
		Pair: make([][]float64, len(tasks)),
		Util: make([]float64, len(tasks)),
		Cap:  make([]float64, len(nodes)),
	}
	for ni := range nodes {
		p.Cap[ni] = 1
	}
	for ti, spec := range tasks {
		p.Cost[ti] = make([]float64, len(nodes))
		p.Pair[ti] = make([]float64, len(tasks))
		p.Util[ti] = spec.RTOSTask().Utilization()
		for ni, node := range nodes {
			cost := float64(len(spec.Candidates)) + 2 // migration premium
			for ci, cand := range spec.Candidates {
				if cand == node {
					cost = float64(ci)
					break
				}
			}
			p.Cost[ti][ni] = cost
		}
	}
	// Mild spreading penalty between every task pair.
	for ti := range tasks {
		for tj := ti + 1; tj < len(tasks); tj++ {
			p.Pair[ti][tj] = 0.5
			p.Pair[tj][ti] = 0.5
		}
	}
	// Guard against degenerate instances.
	for ti := range tasks {
		feasible := false
		for ni := range nodes {
			if !math.IsInf(p.Cost[ti][ni], 1) {
				feasible = true
				break
			}
		}
		if !feasible {
			p.Cost[ti][0] = 0
		}
	}
	return p
}
