package evm

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
	"evm/internal/wire"
)

// CampusConfig parameterizes a Campus.
type CampusConfig struct {
	// Seed drives every random stream of every cell and the backbone;
	// equal seeds reproduce campuses bit-for-bit.
	Seed uint64
	// Backbone configures the inter-cell network (zero value = defaults).
	Backbone BackboneConfig
	// Links fixes the backbone topology: only the listed links exist (a
	// later entry for the same pair replaces an earlier one). Empty
	// gives the full mesh of Backbone's default link. Links cannot be
	// added after NewCampus; they can only be severed and restored.
	Links []BackboneLink
	// Placement names the policy that picks the destination cell when a
	// task escalates across the backbone: one of PlacementPolicies
	// ("" = least-loaded).
	Placement string
	// Rebalance migrates every foreign task home as soon as its origin
	// cell recovers, via a prepare/commit handshake over the backbone.
	// False keeps tasks where fail-over put them; either way the
	// coordinator demotes a recovered cell's stale master as soon as its
	// radios come back, so the foreign copy stays the single master.
	Rebalance bool
	// Capsules is the campus's versioned capsule store for over-the-air
	// rollouts (nil = an empty store, created on first use).
	Capsules *CapsuleStore
}

// checkPeriod is the federation coordinator's scan-and-checkpoint
// cadence: each tick snapshots every task's state and escalates
// fail-over for stranded tasks.
const checkPeriod = time.Second

// handshakeTimeout bounds one prepare/commit rebalance exchange: if the
// handshake has not committed by then it aborts and the foreign master
// keeps the task.
const handshakeTimeout = 10 * checkPeriod

// taskPlacement is the coordinator's view of one control task: where it
// runs now, its origin cell, and the latest state checkpoint used for
// cross-cell transfer.
type taskPlacement struct {
	key    string // "<origin-cell>/<task-id>", the task table's sort key
	origin int    // cell index the task was declared in
	cell   int    // cell index the task currently runs in
	node   NodeID
	spec   TaskSpec

	export    wire.TaskExport // latest checkpoint, refreshed in place by tick
	have      bool
	foreign   bool // true once migrated out of its origin cell
	migrating bool // transfer in flight on the backbone
	dest      int  // destination cell of the in-flight transfer
	// localCands are the in-cell candidates the hosting cell's head
	// adopted for a foreign task (master first), so fail-over stays
	// local to the cell.
	localCands []NodeID
	// hs is the in-flight prepare/commit rebalance handshake (nil when
	// none). Stale callbacks from an aborted handshake compare against
	// it and drop themselves.
	hs *rebalanceHandshake
	// ota marks a capsule rollout of the task in flight (one at a time).
	ota bool
}

// rebalanceHandshake tracks one prepare/commit exchange rehoming a
// foreign task: prepare ships the checkpoint host -> origin and restores
// it into an inactive home replica; commit travels origin -> host and its
// delivery retires the foreign master immediately before the home
// replica activates. Abort (lost leg, relapsed origin, or timeout)
// keeps the foreign master and discards a freshly imported home replica.
type rebalanceHandshake struct {
	// home is the origin-cell node holding the prepared replica.
	home NodeID
	// imported marks a freshly imported prepared replica (retired again
	// on abort); false when the prepare adopted state into a replica the
	// home node already had.
	imported bool
	export   wire.TaskExport
	deadline *sim.Event
	// spanID is the open rebalance-handshake trace span, closed with the
	// handshake's outcome on commit or abort (zero when tracing is off).
	spanID span.ID
}

// Campus federates N cells into one schedulable, fault-tolerant system:
// every cell keeps its own radio medium, TDMA network and Virtual
// Component, all driven by one shared simulation engine; a Backbone
// bridges the cell gateways; and the federation coordinator escalates
// fail-over across cells — when a cell exhausts local migration
// candidates (or its head dies), the task capsule is checkpointed,
// shipped over the backbone and re-deployed in a peer cell chosen by
// the campus placement policy. The hosting cell's head adopts foreign
// tasks (registering an in-cell backup candidate) so later fail-over is
// local, and with Rebalance set tasks migrate home when their origin
// cell recovers.
//
// All cell event streams, plus the campus-level CellOverloadEvent,
// InterCellMigrationEvent, CellRecoveredEvent, BackboneRouteEvent and
// BackboneEvent, merge into one deterministic campus event stream
// (Events): equal seeds reproduce the merged stream byte for byte.
type Campus struct {
	cfg      CampusConfig
	eng      *sim.Engine
	rng      *sim.RNG
	cells    []*Cell
	byName   map[string]int
	backbone *Backbone
	events   *Bus // the merged campus stream

	// pick is the placement policy named by CampusConfig.Placement.
	pick func(placementRequest) (int, bool)

	// tasks is the coordinator's task table, fixed by NewCampus and
	// sorted by placement key: every walk of it (escalation order, the
	// float load sums policies compare) follows that order, so runs
	// reproduce byte for byte. byTask indexes it by task ID.
	tasks    []*taskPlacement
	byTask   map[string]*taskPlacement
	cellDown []bool // head-down state, for recovery events
	ticker   *sim.Ticker

	// capsules is the versioned capsule store for OTA rollouts.
	capsules *CapsuleStore
}

// NewCampus builds the federation: cells in spec order on one shared
// engine, each built, deployed and fed the way NewCell builds a cell but
// with a fork of the campus RNG and its own radio medium; then the
// backbone and the coordinator.
func NewCampus(cfg CampusConfig, specs ...CellSpec) (*Campus, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("evm: campus needs at least one cell")
	}
	cfg.Backbone = cfg.Backbone.withDefaults()
	if err := cfg.Backbone.validate(); err != nil {
		return nil, err
	}
	if cfg.Placement == "" {
		cfg.Placement = PolicyLeastLoaded
	}
	pick, err := lookup("placement policy", placementPolicies, cfg.Placement)
	if err != nil {
		return nil, err
	}
	c := &Campus{
		cfg:      cfg,
		events:   &Bus{},
		eng:      sim.New(),
		rng:      sim.NewRNG(cfg.Seed),
		byName:   make(map[string]int, len(specs)),
		byTask:   make(map[string]*taskPlacement),
		pick:     pick,
		cellDown: make([]bool, len(specs)),
		capsules: cfg.Capsules,
	}
	names := make([]string, len(specs))
	for i, cs := range specs {
		if cs.Name == "" {
			cs.Name = fmt.Sprintf("cell-%d", i)
		}
		name := cs.Name
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("evm: duplicate cell name %q", name)
		}
		c.byName[name] = i
		names[i] = name

		cell, err := buildCell(c.eng, c.rng.Fork(), cs)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("evm: cell %s: %w", name, err)
		}
		c.cells = append(c.cells, cell)
		// Merge the cell's events into the campus stream, tagged with
		// the cell name. Cells share one engine, so the merged order is
		// the global virtual-time order and fully deterministic. The
		// cell's borrowed actuation is forwarded in a wrapper boxed
		// once here, so an actuation allocates nothing on its way to
		// campus subscribers either; every other kind is wrapped anew.
		var act Event = CellEvent{Cell: name, Inner: &cell.act}
		cell.Events().Subscribe(func(ev Event) {
			out := act
			if ev != Event(&cell.act) {
				out = CellEvent{Cell: name, Inner: ev}
			}
			//evm:allow-eventorder synchronous bus-to-bus bridge: cells share one engine, campus subscribers never publish back into a cell bus, so delivery cannot re-enter or reorder
			c.events.publish(out)
		})
		for _, t := range cs.VC.Tasks {
			// Task IDs must be campus-unique: a cell cannot host a
			// foreign replica of a task ID its own head arbitrates.
			if _, dup := c.byTask[t.ID]; dup {
				c.Stop()
				return nil, fmt.Errorf("evm: task %q declared in more than one cell", t.ID)
			}
			p := &taskPlacement{
				key: name + "/" + t.ID, origin: i, cell: i, node: t.Candidates[0], spec: t,
			}
			c.tasks = append(c.tasks, p)
			c.byTask[t.ID] = p
		}
	}
	sort.SliceStable(c.tasks, func(i, j int) bool { return c.tasks[i].key < c.tasks[j].key })
	bb, err := newBackbone(c.eng, c.rng.Fork(), cfg.Backbone, names, cfg.Links, c.events)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.backbone = bb
	// Track local fail-overs so checkpoints follow the task to its new
	// master (adopted foreign tasks are arbitrated by the hosting cell's
	// head, so any placement currently in the event's cell moves here),
	// and demote stale origin masters the moment a radio recovers in a
	// cell whose tasks are hosted elsewhere — waiting for the next
	// coordinator tick would let the stale master actuate alongside the
	// foreign copy for up to a full coordinator tick.
	c.events.Subscribe(func(ev Event) {
		ce, ok := ev.(CellEvent)
		if !ok {
			return
		}
		idx, ok := c.byName[ce.Cell]
		if !ok {
			return
		}
		switch inner := ce.Inner.(type) {
		case FailoverEvent:
			if p, ok := c.byTask[inner.Task]; ok && p.cell == idx {
				p.node = inner.To
			}
		case FaultEvent:
			if inner.Kind == FaultRecover {
				c.demoteStaleMasters(idx)
			}
		}
	})
	c.ticker = c.eng.Every(checkPeriod, c.tick)
	return c, nil
}

// Events returns the merged campus event stream: every cell's events
// wrapped in CellEvent plus the federation-level events.
func (c *Campus) Events() *Bus { return c.events }

// Backbone returns the inter-cell network.
func (c *Campus) Backbone() *Backbone { return c.backbone }

// Engine returns the shared virtual-time engine.
func (c *Campus) Engine() *sim.Engine { return c.eng }

// Cells returns the campus cells in declaration order.
func (c *Campus) Cells() []*Cell { return append([]*Cell(nil), c.cells...) }

// Cell returns the cell with the given name, or nil.
func (c *Campus) Cell(name string) *Cell {
	if i, ok := c.byName[name]; ok {
		return c.cells[i]
	}
	return nil
}

// Now returns the current virtual time.
func (c *Campus) Now() time.Duration { return c.eng.Now() }

// Run advances the whole campus by d on the shared engine.
func (c *Campus) Run(d time.Duration) {
	_ = c.eng.RunUntil(c.eng.Now() + d)
}

// Stop halts the coordinator and every cell, feeds included.
func (c *Campus) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
	for _, cell := range c.cells {
		cell.Stop()
	}
}

// ApplyFaultPlan applies a fault plan to the named cell ("" = the first
// cell). The plan's cell-level events appear on the campus stream tagged
// with the cell name. Steps with LinkDown/LinkUp actions target the
// federation backbone instead of the cell: the named link is severed or
// restored at the step's offset (publishing BackboneLinkEvent), routes
// recompute, and frames in flight on a severed link drop.
func (c *Campus) ApplyFaultPlan(cell string, p FaultPlan) error {
	idx := 0
	if cell != "" {
		i, ok := c.byName[cell]
		if !ok {
			return fmt.Errorf("evm: unknown cell %q", cell)
		}
		idx = i
	}
	cellPlan := FaultPlan{Name: p.Name}
	var linkSteps []FaultStep
	for i, st := range p.Steps {
		if st.linkActions() {
			if st.At < 0 {
				return fmt.Errorf("evm: fault step %d at negative offset %v", i, st.At)
			}
			for _, l := range []*LinkRef{st.LinkDown, st.LinkUp} {
				if l == nil {
					continue
				}
				ai, ci, err := c.backbone.resolveLink(l.A, l.B)
				if err != nil {
					return fmt.Errorf("evm: fault step %d: %w", i, err)
				}
				// The topology is fixed after NewCampus, so a link absent
				// now will be absent at fire time too — reject instead of
				// silently no-opping the sever.
				if c.backbone.links[ai][ci] == nil {
					return fmt.Errorf("evm: fault step %d targets nonexistent backbone link %s-%s", i, l.A, l.B)
				}
			}
			linkSteps = append(linkSteps, st)
			// A combined step keeps its cell-level actions on the cell.
			st.LinkDown, st.LinkUp = nil, nil
		}
		if st.cellActions() {
			cellPlan.Steps = append(cellPlan.Steps, st)
		}
	}
	if len(cellPlan.Steps) > 0 {
		if err := c.cells[idx].ApplyFaultPlan(cellPlan); err != nil {
			return err
		}
	}
	for _, st := range linkSteps {
		step := st
		c.eng.After(step.At, func() { c.runLinkStep(step) })
	}
	return nil
}

// runLinkStep executes the backbone actions of one campus fault step.
// Severing an already-severed link (or restoring a live one) is a no-op,
// so overlapping plans compose.
func (c *Campus) runLinkStep(st FaultStep) {
	if l := st.LinkDown; l != nil {
		_ = c.backbone.SetLinkDown(l.A, l.B)
	}
	if l := st.LinkUp; l != nil {
		_ = c.backbone.SetLinkUp(l.A, l.B)
	}
}

// TaskPlacement reports where a control task currently runs.
type TaskPlacement struct {
	Cell    string
	Node    NodeID
	Foreign bool // true once the task migrated out of its origin cell
}

// TaskPlacements returns the coordinator's current placement of every
// task, keyed "<origin-cell>/<task-id>".
func (c *Campus) TaskPlacements() map[string]TaskPlacement {
	out := make(map[string]TaskPlacement, len(c.tasks))
	for _, p := range c.tasks {
		out[p.key] = TaskPlacement{Cell: c.cellName(p.cell), Node: p.node, Foreign: p.foreign}
	}
	return out
}

func (c *Campus) cellName(i int) string { return c.cells[i].Name() }

// nodeFailed reports whether a node's radio is gone or crashed.
func (c *Campus) nodeFailed(cell int, id NodeID) bool {
	r := c.cells[cell].med.Radio(id)
	return r == nil || r.Failed()
}

// headDown reports whether a cell's configured head is unreachable.
func (c *Campus) headDown(cell int) bool {
	return c.nodeFailed(cell, c.cells[cell].spec.VC.Head)
}

// tick is the coordinator heartbeat: detect cell recoveries, checkpoint
// every task's state, escalate fail-over for stranded tasks — tasks
// whose current node is dead while the hosting cell has no usable local
// candidate (or no live head to arbitrate one) — and offer foreign
// tasks of healthy origin cells home when Rebalance is set.
func (c *Campus) tick() {
	c.detectRecoveries()
	var found []*taskPlacement
	for _, p := range c.tasks {
		if p.migrating {
			continue
		}
		cell := c.cells[p.cell]
		if !c.nodeFailed(p.cell, p.node) {
			if n := cell.nodes[p.node]; n != nil && n.HasReplica(p.spec.ID) {
				// The checkpoint is refreshed in place, reusing p.export's
				// buffers. Its readers, escalate and startRebalance,
				// Encode it (a copy) at once, and a placement in transfer
				// is skipped above, so no reader sees it change.
				p.have = n.ExportTask(p.spec.ID, &p.export) == nil
			}
			continue
		}
		headDown := c.headDown(p.cell)
		// A local candidate plus a live head means in-cell fail-over will
		// handle it: declared candidates for native tasks, head-adopted
		// candidates for foreign ones.
		cands := p.spec.Candidates
		if p.foreign {
			cands = p.localCands
		}
		candidateAlive := false
		for _, cand := range cands {
			if cand != p.node && !c.nodeFailed(p.cell, cand) {
				candidateAlive = true
				break
			}
		}
		if candidateAlive && !headDown {
			continue
		}
		found = append(found, p)
	}
	if len(found) > 0 {
		// One overload event per affected cell, in cell order.
		byCell := make(map[int][]string)
		for _, p := range found {
			byCell[p.cell] = append(byCell[p.cell], p.spec.ID)
		}
		cellIdxs := make([]int, 0, len(byCell))
		for i := range byCell {
			cellIdxs = append(cellIdxs, i)
		}
		sort.Ints(cellIdxs)
		for _, i := range cellIdxs {
			reason := "candidates-exhausted"
			if c.headDown(i) {
				reason = "head-down"
			}
			sort.Strings(byCell[i])
			c.events.publish(CellOverloadEvent{
				At: c.eng.Now(), Cell: c.cellName(i), Reason: reason, Tasks: byCell[i],
			})
		}
		for _, p := range found {
			c.escalate(p)
		}
	}
	c.rebalanceTick()
}

// detectRecoveries publishes CellRecoveredEvent on a cell's head-down ->
// head-up transition and demotes the cell's stale masters — even with
// Rebalance false, so a recovered cell can never run a second master
// for a task that failed over to a peer.
func (c *Campus) detectRecoveries() {
	for i := range c.cells {
		down := c.headDown(i)
		if down == c.cellDown[i] {
			continue
		}
		if !down {
			c.events.publish(CellRecoveredEvent{At: c.eng.Now(), Cell: c.cellName(i)})
			c.demoteStaleMasters(i)
		}
		c.cellDown[i] = down
	}
}

// demoteStaleMasters retires the origin-cell mastership of every task
// currently hosted in a peer cell: after an outage the pre-outage master
// still holds an Active replica and would resume actuating alongside the
// foreign copy (a permanent split-brain when Rebalance is false). Called
// on every radio recovery in the cell and again on CellRecoveredEvent;
// RetireMaster no-ops once the mastership is gone.
func (c *Campus) demoteStaleMasters(origin int) {
	if c.headDown(origin) {
		return
	}
	hn := c.cells[origin].nodes[c.cells[origin].spec.VC.Head]
	if hn == nil || hn.Head() == nil {
		return
	}
	for _, p := range c.tasks {
		if p.origin != origin || !p.foreign {
			continue
		}
		hn.Head().RetireMaster(p.spec.ID)
	}
}

// loads returns per-cell placement counts and utilization sums. Counts
// attribute an in-flight transfer to both endpoints (the legacy
// least-loaded accounting); utilization attributes it to the
// destination only, matching how displacedTask records it so capacity
// arithmetic stays consistent.
func (c *Campus) loads() (count []int, util []float64) {
	count = make([]int, len(c.cells))
	util = make([]float64, len(c.cells))
	// Task-table order: the per-cell utilization sums are float
	// accumulations, and placement policies compare them — a map-order
	// sum could flip a policy tie between same-seed runs.
	for _, q := range c.tasks {
		u := q.spec.RTOSTask().Utilization()
		count[q.cell]++
		if q.migrating {
			count[q.dest]++
			util[q.dest] += u
		} else {
			util[q.cell] += u
		}
	}
	return count, util
}

// condition snapshots one cell for a policy request. from is the cell
// the task currently occupies (hop distances are measured from it).
func (c *Campus) condition(i, from, origin int, taskID string, count []int, util []float64) cellCondition {
	capacity := 0.0
	for _, id := range c.cells[i].spec.Nodes {
		if c.cells[i].nodes[id] != nil && !c.nodeFailed(i, id) {
			capacity++
		}
	}
	return cellCondition{
		Index:         i,
		Placed:        count[i],
		EligibleHosts: len(c.destNodes(i, taskID)),
		Utilization:   util[i],
		Capacity:      capacity,
		Hops:          c.backbone.Hops(from, i),
		Origin:        i == origin,
	}
}

// request assembles the policy view for one stranded task.
func (c *Campus) request(p *taskPlacement) placementRequest {
	count, util := c.loads()
	req := placementRequest{Task: p.spec}
	for i := range c.cells {
		if i == p.cell {
			continue
		}
		req.Cells = append(req.Cells, c.condition(i, p.cell, p.origin, p.spec.ID, count, util))
	}
	for _, q := range c.tasks {
		if q == p || (!q.foreign && !q.migrating) {
			continue
		}
		cell := q.cell
		if q.migrating {
			cell = q.dest
		}
		req.Displaced = append(req.Displaced, displacedTask{
			Cell: cell, Util: q.spec.RTOSTask().Utilization(),
		})
	}
	return req
}

// escalate ships one stranded task to a peer cell over the backbone.
func (c *Campus) escalate(p *taskPlacement) {
	dst, ok := c.pick(c.request(p))
	if !ok {
		return // no peer can host it; retry next tick
	}
	ex := p.export
	if !p.have {
		// Never checkpointed (task died before producing state): ship an
		// empty export — the peer re-instantiates from the spec catalog.
		ex = wire.TaskExport{TaskID: p.spec.ID}
	}
	payload, err := ex.Encode()
	if err != nil {
		return
	}
	p.migrating = true
	p.dest = dst
	src := p.cell
	esc := c.eng.Tracer().Open("escalation", "federation", "federation", c.eng.Now(),
		span.Arg{Key: "task", Val: p.spec.ID},
		span.Arg{Key: "from", Val: c.cellName(src)},
		span.Arg{Key: "to", Val: c.cellName(dst)})
	c.backbone.Send(src, dst, payload,
		func(b []byte) {
			c.deliver(p, dst, b)
			// The request never lists src, so landing in dst means a
			// host admitted the task; anything else retries next tick.
			outcome := "no-host"
			if p.cell == dst {
				outcome = "placed"
			}
			c.eng.Tracer().Close(esc, c.eng.Now(), span.Arg{Key: "outcome", Val: outcome})
		},
		func() {
			p.migrating = false
			c.eng.Tracer().Close(esc, c.eng.Now(), span.Arg{Key: "outcome", Val: "transfer-failed"})
		})
}

// destNodes lists a cell's eligible hosts for a task — live runtimes not
// already holding a replica of it — least-loaded (fewest replicas)
// first, lowest ID on ties. The cell head sorts last: the arbiter is a
// host of last resort, so a hosting-node fault can still be resolved by
// in-cell fail-over.
func (c *Campus) destNodes(cell int, taskID string) []NodeID {
	var out []NodeID
	for _, id := range c.cells[cell].spec.Nodes {
		n := c.cells[cell].nodes[id]
		if n == nil || c.nodeFailed(cell, id) {
			continue
		}
		if n.HasReplica(taskID) {
			continue
		}
		out = append(out, id)
	}
	cellNodes := c.cells[cell].nodes
	head := c.cells[cell].spec.VC.Head
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i] == head) != (out[j] == head) {
			return out[j] == head
		}
		return cellNodes[out[i]].ReplicaCount() < cellNodes[out[j]].ReplicaCount()
	})
	return out
}

// deliver lands a task export in the destination cell: pick a host,
// attest + admit + restore via core.ImportTask, activate it, publish
// the InterCellMigrationEvent, and have the hosting cell's head adopt
// the task so subsequent fail-over is local.
func (c *Campus) deliver(p *taskPlacement, dst int, payload []byte) {
	p.migrating = false
	ex, err := wire.DecodeTaskExport(payload)
	if err != nil {
		return
	}
	fromCell, fromNode := p.cell, p.node
	wasForeign, oldCands := p.foreign, p.localCands
	for _, id := range c.destNodes(dst, ex.TaskID) {
		if err := c.cells[dst].nodes[id].ImportTask(p.spec, ex, true); err != nil {
			continue // e.g. schedulability admission failed; try the next host
		}
		if wasForeign {
			// Leaving a foreign host: retire the stale copies there (the
			// dead master and any adopted backup — whose node may recover
			// later) and the old head's adoption, so the departed cell
			// can never re-promote the task into a second master.
			c.retireForeignCopies(fromCell, ex.TaskID, oldCands)
		}
		// A policy may escalate a stranded foreign task straight back to
		// its origin cell (e.g. affinity after the origin recovered):
		// that delivery is a homecoming, not a foreign placement.
		p.cell, p.node, p.foreign = dst, id, dst != p.origin
		c.events.publish(InterCellMigrationEvent{
			At:       c.eng.Now(),
			Task:     ex.TaskID,
			FromCell: c.cellName(fromCell),
			ToCell:   c.cellName(dst),
			From:     fromNode,
			To:       id,
		})
		if p.foreign {
			c.adoptForeign(dst, p, ex)
		} else {
			p.localCands = nil
			// Realign the origin head's arbitration with the imported
			// master, or its next health bundle would demote it.
			if hn := c.cells[dst].nodes[c.cells[dst].spec.VC.Head]; hn != nil && hn.Head() != nil && !c.headDown(dst) {
				if old, ok := hn.Head().ActiveNode(ex.TaskID); ok && old != id {
					hn.Head().Promote(ex.TaskID, id, old)
				}
			}
		}
		return
	}
	// No host could admit it; the next tick retries (possibly elsewhere).
}

// adoptForeign registers a freshly imported foreign task with the
// hosting cell's head and provisions an in-cell backup replica, so the
// next fault of the hosting node is resolved by ordinary in-cell
// fail-over instead of another backbone round-trip.
func (c *Campus) adoptForeign(dst int, p *taskPlacement, ex wire.TaskExport) {
	p.localCands = []NodeID{p.node}
	headID := c.cells[dst].spec.VC.Head
	headNode := c.cells[dst].nodes[headID]
	if headNode == nil || headNode.Head() == nil || c.nodeFailed(dst, headID) {
		return // no live head to arbitrate; the coordinator stays in charge
	}
	if cands := c.destNodes(dst, ex.TaskID); len(cands) > 0 {
		backup := cands[0]
		spec := p.spec
		spec.Candidates = []NodeID{p.node, backup}
		if err := c.cells[dst].nodes[backup].ImportTask(spec, ex, false); err == nil {
			p.localCands = append(p.localCands, backup)
		}
	}
	adopted := p.spec
	adopted.Candidates = append([]NodeID(nil), p.localCands...)
	headNode.Head().AdoptTask(adopted, p.node)
}

// rebalanceTick ships every settled foreign task whose origin cell is
// healthy again back home.
func (c *Campus) rebalanceTick() {
	if !c.cfg.Rebalance {
		return
	}
	for _, p := range c.tasks {
		if !p.foreign || p.migrating || !p.have {
			continue
		}
		if c.nodeFailed(p.cell, p.node) {
			continue // stranded, not settled: escalation handles it
		}
		origin := p.origin
		if c.headDown(origin) || c.backbone.Hops(p.cell, origin) < 0 {
			continue
		}
		if c.homeHost(origin, p.spec) == 0 {
			continue
		}
		c.startRebalance(p)
	}
}

// startRebalance opens the prepare/commit handshake for one foreign
// task: the prepare leg carries the latest checkpoint from the hosting
// cell to the recovered origin. The placement stays migrating (shielded
// from escalation and re-offers) until the handshake commits or aborts.
func (c *Campus) startRebalance(p *taskPlacement) {
	exPayload, err := p.export.Encode()
	if err != nil {
		return
	}
	prep, err := (wire.RebalanceMsg{
		Phase: wire.RebalancePrepare, TaskID: p.spec.ID, Export: exPayload,
	}).Encode()
	if err != nil {
		return
	}
	hs := &rebalanceHandshake{}
	p.hs = hs
	p.migrating = true
	p.dest = p.origin
	hs.spanID = c.eng.Tracer().Open("handshake", "federation", "federation", c.eng.Now(),
		span.Arg{Key: "task", Val: p.spec.ID},
		span.Arg{Key: "host", Val: c.cellName(p.cell)},
		span.Arg{Key: "origin", Val: c.cellName(p.origin)})
	hs.deadline = c.eng.After(handshakeTimeout, func() { c.abortRebalance(p, hs, "timeout") })
	leg := c.eng.Tracer().Open("prepare-leg", "federation", "federation", c.eng.Now(),
		span.Arg{Key: "task", Val: p.spec.ID})
	c.backbone.Send(p.cell, p.origin, prep,
		func(b []byte) {
			c.eng.Tracer().Close(leg, c.eng.Now(), span.Arg{Key: "outcome", Val: "delivered"})
			c.onPrepare(p, hs, b)
		},
		func() {
			c.eng.Tracer().Close(leg, c.eng.Now(), span.Arg{Key: "outcome", Val: "lost"})
			c.abortRebalance(p, hs, "prepare-lost")
		})
}

// onPrepare lands the prepare leg at the origin cell: restore the
// shipped checkpoint into an inactive home replica (nothing actuates
// yet) and send the commit leg back to the hosting cell. Any
// precondition lost since the handshake opened — origin head down again,
// no eligible home host, restore failure — aborts, keeping the foreign
// master.
func (c *Campus) onPrepare(p *taskPlacement, hs *rebalanceHandshake, payload []byte) {
	if p.hs != hs {
		return // aborted while the prepare leg was in flight
	}
	msg, err := wire.DecodeRebalanceMsg(payload)
	if err != nil || msg.Phase != wire.RebalancePrepare {
		c.abortRebalance(p, hs, "decode")
		return
	}
	ex, err := wire.DecodeTaskExport(msg.Export)
	if err != nil {
		c.abortRebalance(p, hs, "decode")
		return
	}
	origin := p.origin
	if c.headDown(origin) {
		c.abortRebalance(p, hs, "origin-down")
		return
	}
	dst := c.homeHost(origin, p.spec)
	if dst == 0 {
		c.abortRebalance(p, hs, "no-home-host")
		return
	}
	destNode := c.cells[origin].nodes[dst]
	held := destNode.HasReplica(ex.TaskID)
	if err := destNode.ImportTask(p.spec, ex, false); err != nil {
		c.abortRebalance(p, hs, "restore")
		return
	}
	hs.imported = !held
	hs.home = dst
	hs.export = ex
	commit, err := (wire.RebalanceMsg{Phase: wire.RebalanceCommit, TaskID: p.spec.ID}).Encode()
	if err != nil {
		c.abortRebalance(p, hs, "encode")
		return
	}
	leg := c.eng.Tracer().Open("commit-leg", "federation", "federation", c.eng.Now(),
		span.Arg{Key: "task", Val: p.spec.ID})
	c.backbone.Send(origin, p.cell, commit,
		func([]byte) {
			c.eng.Tracer().Close(leg, c.eng.Now(), span.Arg{Key: "outcome", Val: "delivered"})
			c.onCommit(p, hs)
		},
		func() {
			c.eng.Tracer().Close(leg, c.eng.Now(), span.Arg{Key: "outcome", Val: "lost"})
			c.abortRebalance(p, hs, "commit-lost")
		})
}

// onCommit lands the commit leg at the hosting cell — the commit point:
// the foreign master and its adopted backup retire first, then the
// prepared home replica is promoted by the origin head, so no instant
// ever has two masters. If the origin relapsed while the commit leg was
// in flight the handshake aborts instead and the foreign master stays.
func (c *Campus) onCommit(p *taskPlacement, hs *rebalanceHandshake) {
	if p.hs != hs {
		return
	}
	origin := p.origin
	headNode := c.cells[origin].nodes[c.cells[origin].spec.VC.Head]
	if headNode == nil || headNode.Head() == nil || c.headDown(origin) {
		c.abortRebalance(p, hs, "origin-relapsed")
		return
	}
	host, hostNode := p.cell, p.node
	c.retireForeignCopies(host, p.spec.ID, p.localCands)
	old, _ := headNode.Head().ActiveNode(p.spec.ID)
	headNode.Head().Promote(p.spec.ID, hs.home, old)
	p.cell, p.node, p.foreign, p.localCands = origin, hs.home, false, nil
	p.export, p.have = hs.export, true
	c.eng.Tracer().Close(hs.spanID, c.eng.Now(), span.Arg{Key: "outcome", Val: "commit"})
	c.finishHandshake(p, hs)
	c.events.publish(InterCellMigrationEvent{
		At:        c.eng.Now(),
		Task:      p.spec.ID,
		FromCell:  c.cellName(host),
		ToCell:    c.cellName(origin),
		From:      hostNode,
		To:        hs.home,
		Rebalance: true,
	})
}

// abortRebalance cancels an in-flight handshake: a freshly imported
// prepared replica is retired again (a pre-existing home replica just
// keeps its backup role), the foreign master keeps actuating, and the
// next coordinator tick may reopen the handshake. Every abort publishes
// a RebalanceAbortEvent naming its cause, so runs can count aborts
// directly instead of inferring them from backbone failures.
func (c *Campus) abortRebalance(p *taskPlacement, hs *rebalanceHandshake, reason string) {
	if p.hs != hs {
		return
	}
	if hs.imported && hs.home != 0 {
		if n := c.cells[p.origin].nodes[hs.home]; n != nil {
			_ = n.RetireTask(p.spec.ID)
		}
	}
	c.eng.Tracer().Close(hs.spanID, c.eng.Now(),
		span.Arg{Key: "outcome", Val: "abort"}, span.Arg{Key: "reason", Val: reason})
	c.finishHandshake(p, hs)
	c.events.publish(RebalanceAbortEvent{
		At:     c.eng.Now(),
		Task:   p.spec.ID,
		Host:   c.cellName(p.cell),
		Origin: c.cellName(p.origin),
		Reason: reason,
	})
}

// finishHandshake releases the handshake's timeout and migration shield.
func (c *Campus) finishHandshake(p *taskPlacement, hs *rebalanceHandshake) {
	c.eng.Cancel(hs.deadline)
	p.hs = nil
	p.migrating = false
}

// retireForeignCopies removes a task's replicas from a cell that used
// to host it (the listed adopted candidates) and drops the cell head's
// adoption, so the departed cell can never arbitrate the task again.
func (c *Campus) retireForeignCopies(cell int, taskID string, cands []NodeID) {
	for _, id := range cands {
		if n := c.cells[cell].nodes[id]; n != nil {
			_ = n.RetireTask(taskID)
		}
	}
	if hn := c.cells[cell].nodes[c.cells[cell].spec.VC.Head]; hn != nil && hn.Head() != nil {
		hn.Head().DropTask(taskID)
	}
}

// homeHost returns the node that should resume a rebalanced task in its
// origin cell: the first live declared candidate, else the least-loaded
// eligible host, else 0.
func (c *Campus) homeHost(origin int, spec TaskSpec) NodeID {
	for _, cand := range spec.Candidates {
		if c.cells[origin].nodes[cand] != nil && !c.nodeFailed(origin, cand) {
			return cand
		}
	}
	if nodes := c.destNodes(origin, spec.ID); len(nodes) > 0 {
		return nodes[0]
	}
	return 0
}

// KillNodesPlan returns a fault plan that crashes every listed radio at
// offset at. Unlike KillCellPlan it needs no live cell, so it also
// serves RunSpec grids built before any campus exists.
func KillNodesPlan(name string, at time.Duration, ids ...NodeID) FaultPlan {
	steps := make([]FaultStep, 0, len(ids))
	for _, id := range ids {
		steps = append(steps, FaultStep{At: at, CrashNode: id})
	}
	return FaultPlan{Name: name, Steps: steps}
}

// OutageWindowPlan crashes every listed radio at from and recovers them
// at until: the whole-cell outage window that drives escalation out and
// — with Rebalance set — migration back home.
func OutageWindowPlan(name string, from, until time.Duration, ids ...NodeID) FaultPlan {
	steps := make([]FaultStep, 0, 2*len(ids))
	for _, id := range ids {
		steps = append(steps, FaultStep{At: from, CrashNode: id})
	}
	for _, id := range ids {
		steps = append(steps, FaultStep{At: until, RecoverNode: id})
	}
	return FaultPlan{Name: name, Steps: steps}
}

// KillCellPlan returns a fault plan that crashes every member radio of
// the cell at offset at — the whole-cell outage that forces the
// federation coordinator to escalate fail-over across the backbone.
func KillCellPlan(at time.Duration, cell *Cell) FaultPlan {
	name := "kill-cell"
	if cell.Name() != "" {
		name = "kill-" + cell.Name()
	}
	return KillNodesPlan(name, at, cell.Members()...)
}

// --- campus events ------------------------------------------------------------

// Metric keys the Runner counts from campus events.
const (
	MetricInterCellMigrations = "intercell_migrations"
	MetricCellOverloads       = "cell_overloads"
	// MetricRebalances counts homeward inter-cell migrations (recovered
	// origin cells taking tasks back); these are also included in
	// MetricInterCellMigrations.
	MetricRebalances = "rebalances"
	// MetricCellRecoveries counts head-down -> head-up transitions.
	MetricCellRecoveries = "cell_recoveries"
	// MetricRebalanceAborts counts aborted prepare/commit rebalance
	// handshakes (the foreign master kept the task).
	MetricRebalanceAborts = "rebalance_aborts"
)

// Runner counter bits the kinds below return from counters.
var (
	cellOverloadsCounter       = counter(MetricCellOverloads)
	cellRecoveriesCounter      = counter(MetricCellRecoveries)
	rebalanceAbortsCounter     = counter(MetricRebalanceAborts)
	interCellMigrationsCounter = counter(MetricInterCellMigrations)
	rebalancesCounter          = counter(MetricRebalances)
)

// CellEvent wraps one cell's event for the merged campus stream,
// attributing it to the cell by name.
type CellEvent struct {
	Cell  string
	Inner Event
}

// When implements Event.
func (e CellEvent) When() time.Duration { return e.Inner.When() }

// String implements Event.
func (e CellEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

// appendText prefixes the inner event's line with "cell=<name> ".
func (e CellEvent) appendText(dst []byte) []byte {
	dst = append(dst, "cell="...)
	dst = append(dst, e.Cell...)
	return e.Inner.appendText(append(dst, ' '))
}

// series and counters are the inner event's: campus streams are named
// and counted by the wrapped kind.
func (e CellEvent) series() string       { return e.Inner.series() }
func (e CellEvent) counters() counterSet { return e.Inner.counters() }

// CellOverloadEvent fires when the federation coordinator finds a cell
// unable to keep its tasks alive locally: every candidate of at least
// one task is dead, or the cell head is down with the task's master.
type CellOverloadEvent struct {
	At     time.Duration
	Cell   string
	Reason string // "candidates-exhausted" or "head-down"
	Tasks  []string
}

// When implements Event.
func (e CellOverloadEvent) When() time.Duration { return e.At }

// String implements Event.
func (e CellOverloadEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e CellOverloadEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "cell-overload"), "cell", e.Cell)
	return appendJoined(appendField(dst, "reason", e.Reason), "tasks", e.Tasks, '+')
}

func (CellOverloadEvent) series() string       { return "cell_overloads" }
func (CellOverloadEvent) counters() counterSet { return cellOverloadsCounter }

// CellRecoveredEvent fires when a cell's head comes back after an
// outage — the trigger window in which Rebalance migrates the cell's
// tasks home.
type CellRecoveredEvent struct {
	At   time.Duration
	Cell string
}

// When implements Event.
func (e CellRecoveredEvent) When() time.Duration { return e.At }

// String implements Event.
func (e CellRecoveredEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e CellRecoveredEvent) appendText(dst []byte) []byte {
	return appendField(appendStamp(dst, e.At, "cell-recovered"), "cell", e.Cell)
}

func (CellRecoveredEvent) series() string       { return "cell_recoveries" }
func (CellRecoveredEvent) counters() counterSet { return cellRecoveriesCounter }

// InterCellMigrationEvent fires when a task capsule shipped over the
// backbone is re-deployed and activated in a peer cell. Rebalance marks
// the homeward direction: a recovered origin cell taking its task back.
type InterCellMigrationEvent struct {
	At        time.Duration
	Task      string
	FromCell  string
	ToCell    string
	From      NodeID
	To        NodeID
	Rebalance bool
}

// When implements Event.
func (e InterCellMigrationEvent) When() time.Duration { return e.At }

// String implements Event.
func (e InterCellMigrationEvent) String() string {
	return string(e.appendText(make([]byte, 0, lineCap)))
}

func (e InterCellMigrationEvent) appendText(dst []byte) []byte {
	kind := "intercell-migration"
	if e.Rebalance {
		kind = "intercell-rebalance"
	}
	dst = appendField(appendStamp(dst, e.At, kind), "task", e.Task)
	dst = strconv.AppendUint(append(appendField(dst, "from", e.FromCell), '/'), uint64(e.From), 10)
	return strconv.AppendUint(append(appendField(dst, "to", e.ToCell), '/'), uint64(e.To), 10)
}

func (InterCellMigrationEvent) series() string { return "intercell_migrations" }
func (e InterCellMigrationEvent) counters() counterSet {
	return interCellMigrationsCounter | only(e.Rebalance, rebalancesCounter)
}

// RebalanceAbortEvent fires when a prepare/commit rebalance handshake
// aborts and the foreign master keeps the task: a lost leg
// ("prepare-lost"/"commit-lost"), the handshake timeout ("timeout"), a
// relapsed or unprepared origin ("origin-down"/"origin-relapsed"/
// "no-home-host"), or a failed restore ("restore"). The next coordinator
// tick may reopen the handshake.
type RebalanceAbortEvent struct {
	At     time.Duration
	Task   string
	Host   string // cell keeping the foreign master
	Origin string // recovered origin that failed to take the task back
	Reason string
}

// When implements Event.
func (e RebalanceAbortEvent) When() time.Duration { return e.At }

// String implements Event.
func (e RebalanceAbortEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e RebalanceAbortEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "rebalance-abort"), "task", e.Task)
	dst = appendField(appendField(dst, "host", e.Host), "origin", e.Origin)
	return appendField(dst, "reason", e.Reason)
}

func (RebalanceAbortEvent) series() string       { return "rebalance_aborts" }
func (RebalanceAbortEvent) counters() counterSet { return rebalanceAbortsCounter }
