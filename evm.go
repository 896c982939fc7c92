// Package evm is the public API of the Embedded Virtual Machine library,
// a reproduction of Mangharam & Pajic, "Embedded Virtual Machines for
// Robust Wireless Control Systems" (ICDCS Workshops 2009).
//
// An EVM groups wireless sensor, actuator and controller nodes into a
// Virtual Component: a logical control entity whose tasks are not bound
// to physical nodes. The runtime replicates control algorithms across
// candidate nodes, passively detects primary faults through health-
// assessment transfers, arbitrates fail-over through the component head,
// migrates task code (attested capsules) and state between nodes, and
// re-optimizes the task assignment at runtime with a BQP solver — all
// over an RT-Link-style TDMA network simulated on virtual time.
//
// Quick start: a cell is one CellSpec, plain data, and NewCell builds it,
// deploys its Virtual Component and starts its feed:
//
//	cell, err := evm.NewCell(evm.CellSpec{Seed: 1, Nodes: evm.Members(4), VC: vc})
//	cell.Run(10 * time.Second)
//	cell.Stop()
//
// For the paper's hardware-in-loop gas-plant testbed, see NewGasPlant.
package evm

import (
	"fmt"
	"slices"
	"time"

	"evm/internal/core"
	"evm/internal/gateway"
	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/sim"
	"evm/internal/vm"
	"evm/internal/wire"
)

// Re-exported building blocks. The facade deliberately aliases the
// internal types so downstream code uses one import path.
type (
	// NodeID identifies a node on the wireless medium.
	NodeID = radio.NodeID
	// VCConfig describes a Virtual Component.
	VCConfig = core.VCConfig
	// TaskSpec describes one control task.
	TaskSpec = core.TaskSpec
	// TaskLogic is the executable body of a control task.
	TaskLogic = core.TaskLogic
	// PIDParams configures a PID-backed task logic.
	PIDParams = core.PIDParams
	// PIDLogic is a filtered-PID control law.
	PIDLogic = core.PIDLogic
	// VMLogic is a byte-code control law.
	VMLogic = core.VMLogic
	// Node is the per-node EVM runtime.
	Node = core.Node
	// Head is the Virtual Component arbiter.
	Head = core.Head
	// Role is a controller's role for a task.
	Role = wire.Role
	// QoSReport summarizes component service level.
	QoSReport = core.QoSReport
	// SensorReading is one sensor port sample.
	SensorReading = wire.SensorReading
	// Capsule is an attested code capsule for over-the-air deployment.
	Capsule = vm.Capsule
)

// Role values.
const (
	RoleDormant   = wire.RoleDormant
	RoleBackup    = wire.RoleBackup
	RoleActive    = wire.RoleActive
	RoleIndicator = wire.RoleIndicator
)

// Broadcast addresses every node.
const Broadcast = radio.Broadcast

// NewPIDLogic builds the paper's filtered-PID control law.
func NewPIDLogic(p PIDParams) (*PIDLogic, error) { return core.NewPIDLogic(p) }

// AssembleCapsule assembles EVM byte-code source into an attested capsule
// for the named task (see internal/vm for the instruction set; IN 0 reads
// the task's sensor, OUT 0 writes its actuator, both Q16.16).
func AssembleCapsule(taskID string, version uint8, src string) (Capsule, error) {
	code, err := vm.Assemble(src)
	if err != nil {
		return Capsule{}, err
	}
	return Capsule{TaskID: taskID, Version: version, Code: code}, nil
}

// NewVMLogic instantiates a capsule as task logic.
func NewVMLogic(c Capsule) (*VMLogic, error) { return core.NewVMLogic(c) }

// EvaluateQoS reports component coverage (see the paper's QoS
// degradation claim).
func EvaluateQoS(cfg VCConfig, nodes []*Node) QoSReport {
	return core.EvaluateQoS(cfg, nodes)
}

// CellSpec describes one cell as plain data: its members and where they
// sit, its TDMA framing and channel, the Virtual Component deployed on it
// and an optional synthetic feed. NewCell builds a standalone cell from
// one; a campus topology is a list of them (NewCampus).
type CellSpec struct {
	// Name identifies the cell in campus events. Standalone cells leave
	// it ""; NewCampus names an unnamed cell "cell-<i>".
	Name string
	// Seed drives every random stream of a standalone cell; equal seeds
	// reproduce runs bit-for-bit. Campus cells ignore it: they draw from
	// forks of the campus seed, so the whole campus reproduces from one
	// number.
	Seed uint64
	// Link overrides the TDMA framing (zero value = defaults).
	Link rtlink.Config
	// Nodes are the members in admission order (Members(n) lists 1..n).
	Nodes []NodeID
	// Placement decides where members sit (zero value = Line(3)).
	Placement Placement
	// SlotsPerNode is the TX slots each member owns per TDMA frame (0 =
	// 2: a controller sends an actuation and a health record every
	// cycle). Runtimes admitted later with AddNodeRuntime get the same
	// budget.
	SlotsPerNode int
	// Line replaces the full-mesh TDMA schedule with a multi-hop line
	// schedule along member order (rtlink.BuildLineSchedule): each node's
	// slots are heard only by its immediate line neighbors, so messages
	// between distant stations are relayed hop by hop along static line
	// routes the cell installs at construction. SlotsPerNode becomes the
	// number of line rounds per frame.
	Line bool
	// PER forces a fixed packet error rate on every in-range link (radio
	// range remains a hard cutoff). 0 is a perfect channel; above 0 the
	// Gilbert-Elliott burst overlay is active.
	PER float64
	// VC is the cell's Virtual Component, deployed at construction.
	VC VCConfig
	// Feed, when set, starts a synthetic sensor feed at construction;
	// Cell.Stop stops it.
	Feed *FeedSpec
}

// FeedSpec declares a synthetic sensor feed, a stand-in for a plant
// gateway: Source sends Sample() every Period.
type FeedSpec struct {
	Source NodeID
	Period time.Duration
	// Sample returns the readings to send this tick. The feed encodes
	// them before the next tick and keeps no reference, so Sample may
	// return the same slice every time.
	Sample func() []SensorReading
	// To lists the destinations each sample is sent to, in turn (empty =
	// one Broadcast). A line cell lists unicast destinations: a
	// single-hop broadcast reaches only the source's line neighbors,
	// while the line routes relay unicasts station by station.
	To []NodeID
}

// Members returns the node IDs 1..n, the membership of a synthetic cell.
func Members(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(i + 1)
	}
	return ids
}

// validate checks the spec before anything is built, so a failed
// construction queues nothing.
func (s *CellSpec) validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("evm: cell needs at least one node")
	}
	if s.Placement.capacity > 0 && len(s.Nodes) > s.Placement.capacity {
		return fmt.Errorf("evm: placement %s holds at most %d nodes, got %d",
			s.Placement.name, s.Placement.capacity, len(s.Nodes))
	}
	if !(s.PER >= 0 && s.PER <= 1) { // NaN fails both
		return fmt.Errorf("evm: packet error rate %g outside [0,1]", s.PER)
	}
	if s.SlotsPerNode < 0 {
		return fmt.Errorf("evm: %d slots per node", s.SlotsPerNode)
	}
	// NewNode validates too, but a cell whose only member is the gateway
	// builds no node, so only this check rejects an invalid VC there.
	if err := s.VC.Validate(); err != nil {
		return err
	}
	if f := s.Feed; f != nil {
		if !slices.Contains(s.Nodes, f.Source) {
			return fmt.Errorf("evm: feed source %v is not a member", f.Source)
		}
		if f.Period <= 0 {
			return fmt.Errorf("evm: feed period %v", f.Period)
		}
		for _, dst := range f.To {
			if dst != Broadcast && !slices.Contains(s.Nodes, dst) {
				return fmt.Errorf("evm: feed destination %v is not a member", dst)
			}
		}
	}
	return nil
}

// Cell is one synchronized TDMA cell: the engine, medium, network and the
// EVM runtimes deployed on it. Standalone cells own their engine; cells
// inside a Campus share the campus engine (one virtual timeline) while
// keeping a private radio medium and PRNG fork, so cells never hear each
// other on the air.
type Cell struct {
	eng   *sim.Engine
	rng   *sim.RNG
	med   *radio.Medium
	net   *rtlink.Network
	nodes map[NodeID]*Node
	// watchdogs are the watchdog groups of the deployed runtimes: one
	// from construction, one more per AddNodeRuntime.
	watchdogs []*core.Watchdogs
	feed      *sim.Ticker // nil without a FeedSpec

	// spec is the cell's spec with its defaults filled in: its name, its
	// members in admission order (AddNodeRuntime appends), the VC a
	// campus reads the head from and AddNodeRuntime deploys, and the
	// framing, slot budget and placement AddNodeRuntime reuses.
	spec CellSpec
	// prng feeds random placements (nil for deterministic ones).
	prng *sim.RNG
	bus  *Bus
	// act is the one ActuationEvent every accepted actuation is written
	// into and published by address (see publishActuation).
	act  ActuationEvent
	sink gateway.Switch // the actuation sink's operation switch
}

// NewCell builds a standalone cell on its own engine: it attaches the
// members' radios at their placements, builds the TDMA schedule, deploys
// the Virtual Component and starts the feed.
//
//	cell, err := evm.NewCell(evm.CellSpec{
//		Seed:         1,
//		Nodes:        evm.Members(20),
//		Placement:    evm.Grid(5, 4),
//		SlotsPerNode: 3,
//		PER:          0.1,
//		VC:           vc,
//		Feed:         &evm.FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: sample},
//	})
func NewCell(spec CellSpec) (*Cell, error) {
	return buildCell(sim.New(), sim.NewRNG(spec.Seed), spec)
}

// buildCell builds, deploys and feeds a cell on the given engine and RNG
// stream. NewCell passes a fresh engine; NewCampus passes the shared
// campus engine and a per-cell fork of the campus RNG, giving every cell
// an isolated medium and loss stream on one deterministic timeline. The
// spec is checked before anything is built, and a runtime that fails to
// build fails the cell before its watchdogs, frame loop or feed are
// queued, so a failed construction leaves nothing on eng.
func buildCell(eng *sim.Engine, rng *sim.RNG, spec CellSpec) (*Cell, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	spec.Nodes = slices.Clone(spec.Nodes)
	if spec.Link.SlotsPerFrame == 0 {
		spec.Link = rtlink.DefaultConfig()
	}
	if spec.SlotsPerNode == 0 {
		spec.SlotsPerNode = 2
	}
	if spec.Placement.at == nil {
		spec.Placement = Line(3)
	}
	rcfg := radio.DefaultConfig()
	if spec.PER == 0 {
		rcfg.RefPER = 0
		rcfg.Burst = radio.GilbertElliott{}
	}
	med := radio.NewMedium(eng, rng.Fork(), rcfg)
	c := &Cell{
		spec:  spec,
		eng:   eng,
		rng:   rng,
		med:   med,
		nodes: make(map[NodeID]*Node),
		bus:   &Bus{},
	}
	if spec.Placement.random {
		c.prng = rng.Fork()
	}
	for i, id := range spec.Nodes {
		if _, err := med.Attach(id, spec.Placement.at(i, c.prng), radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
			return nil, err
		}
	}
	sched, err := buildCellSchedule(spec)
	if err != nil {
		return nil, err
	}
	net, err := rtlink.NewNetwork(med, spec.Link, sched)
	if err != nil {
		return nil, err
	}
	for _, id := range spec.Nodes {
		if _, err := net.Join(id); err != nil {
			return nil, err
		}
	}
	if spec.Line {
		installLineRoutes(net, spec.Nodes)
	}
	c.net = net
	if spec.PER > 0 {
		med.ForcePER(spec.PER)
	}
	if err := c.deploy(spec.VC); err != nil {
		return nil, err
	}
	if spec.Feed != nil {
		c.startFeed(*spec.Feed)
	}
	return c, nil
}

// buildCellSchedule derives the cell's TDMA schedule from its spec: the
// default full mesh with the cell's slot budget of TX slots per member,
// or, for a Line cell, that many interleaved rounds of a multi-hop line
// schedule in which each slot is heard only by the owner's immediate
// line neighbors.
func buildCellSchedule(spec CellSpec) (rtlink.Schedule, error) {
	if !spec.Line {
		return rtlink.BuildMeshScheduleK(spec.Nodes, spec.Link, spec.SlotsPerNode)
	}
	order := spec.Nodes
	if spec.SlotsPerNode*len(order)+1 > spec.Link.SlotsPerFrame {
		return nil, fmt.Errorf("evm: line of %d x %d rounds does not fit in %d slots",
			len(order), spec.SlotsPerNode, spec.Link.SlotsPerFrame)
	}
	base, err := rtlink.BuildLineSchedule(order, spec.Link)
	if err != nil {
		return nil, err
	}
	sched := make(rtlink.Schedule, spec.SlotsPerNode*len(order))
	for round := 0; round < spec.SlotsPerNode; round++ {
		for slot, as := range base {
			sched[slot+round*len(order)] = as
		}
	}
	return sched, nil
}

// installLineRoutes installs the static next-hop routing table of a
// multi-hop line cell: every station learns, for every other station,
// the line neighbor leading toward it, so unicast traffic (sensor
// snapshots outward, actuations back to the gateway, fault reports to
// the head) is relayed hop by hop through the intermediate stations.
// order is the station sequence along the line.
func installLineRoutes(net *rtlink.Network, order []NodeID) {
	for i, id := range order {
		link := net.Link(id)
		for j, dst := range order {
			if i == j {
				continue
			}
			next := dst
			switch {
			case j > i+1:
				next = order[i+1]
			case j < i-1:
				next = order[i-1]
			}
			// Adjacent destinations get an explicit identity route too:
			// the entry is what marks this station as a relay for
			// fragments passing through it.
			link.SetRoute(dst, next)
		}
	}
}

// Name returns the cell's campus name ("" for standalone cells).
func (c *Cell) Name() string { return c.spec.Name }

// Engine returns the virtual-time engine.
func (c *Cell) Engine() *sim.Engine { return c.eng }

// RNG returns the cell's seeded random stream.
func (c *Cell) RNG() *sim.RNG { return c.rng }

// Network returns the RT-Link network.
func (c *Cell) Network() *rtlink.Network { return c.net }

// Medium returns the radio medium (for loss injection in experiments).
func (c *Cell) Medium() *radio.Medium { return c.med }

// Events returns the cell's typed event bus. Subscriptions observe
// structured FailoverEvent / *ActuationEvent / MigrationEvent / JoinEvent /
// FaultEvent records with virtual timestamps, in deterministic order.
func (c *Cell) Events() *Bus { return c.bus }

// Members returns the cell member IDs in admission order.
func (c *Cell) Members() []NodeID { return slices.Clone(c.spec.Nodes) }

// Node returns the EVM runtime deployed on id (nil for the gateway).
func (c *Cell) Node(id NodeID) *Node { return c.nodes[id] }

// Nodes returns all deployed EVM runtimes.
func (c *Cell) Nodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for _, id := range c.spec.Nodes {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// deploy instantiates the EVM runtime on every member except the VC's
// gateway, starts their watchdogs as one group (core.StartWatchdogs) and
// starts the TDMA network. A runtime that fails to build fails the
// deploy before any watchdog or frame is queued.
func (c *Cell) deploy(vc VCConfig) error {
	built := make([]*Node, 0, len(c.spec.Nodes))
	for _, id := range c.spec.Nodes {
		if id == vc.Gateway {
			continue
		}
		node, err := core.NewNode(c.net, c.net.Link(id), vc)
		if err != nil {
			return err
		}
		c.wireNodeEvents(node)
		c.nodes[id] = node
		built = append(built, node)
	}
	c.watchdogs = append(c.watchdogs, core.StartWatchdogs(built))
	c.installActuationSink(vc)
	c.net.Start()
	return nil
}

// installActuationSink puts a minimal actuation receiver on a gateway
// node that hosts no runtime: an empty operation switch that publishes
// what it lets through as actuation events on the cell's bus, as the
// gas-plant gateway does. A full gateway runtime (gateway.New) replaces it.
func (c *Cell) installActuationSink(vc VCConfig) {
	link := c.net.Link(vc.Gateway)
	if vc.Gateway == 0 || c.nodes[vc.Gateway] != nil || link == nil {
		return
	}
	ids := make(wire.IDs, len(vc.Tasks))
	for i, t := range vc.Tasks {
		ids[i] = t.ID
	}
	c.sink = gateway.NewSwitch(ids, nil)
	link.SetHandler(func(msg rtlink.Message) {
		if act, ok := c.sink.Pass(msg); ok {
			c.publishActuation(msg.Src, act.TaskID, act.Port, act.Value)
		}
	})
}

// ActuationsDenied counts the actuations the cell's actuation sink refused
// (see gateway.Switch); a gas-plant cell's gateway runtime counts its own.
func (c *Cell) ActuationsDenied() int { return c.sink.Denied() }

// publishActuation publishes an accepted actuation on the cell's bus. It
// rewrites the cell's one ActuationEvent and publishes its address, so a
// control cycle allocates nothing; subscribers borrow it (see Event).
func (c *Cell) publishActuation(src NodeID, task string, port uint8, value float64) {
	c.act = ActuationEvent{At: c.eng.Now(), Node: src, Task: task, Port: port, Value: value}
	c.bus.publish(&c.act)
}

// wireNodeEvents connects a node runtime to the cell's event bus.
func (c *Cell) wireNodeEvents(node *Node) {
	id := node.ID()
	node.SetMigrationSink(func(task string, from radio.NodeID) {
		c.bus.publish(MigrationEvent{At: c.eng.Now(), Task: task, From: from, To: id})
	})
	if h := node.Head(); h != nil {
		h.SetFailoverSink(func(task string, from, to radio.NodeID) {
			c.bus.publish(FailoverEvent{At: c.eng.Now(), Task: task, From: from, To: to})
		})
		h.SetJoinSink(func(member radio.NodeID) {
			c.bus.publish(JoinEvent{At: c.eng.Now(), Node: member})
		})
		h.SetModeSink(func(mode uint8, atFrame uint64) {
			c.bus.publish(ModeChangeEvent{At: c.eng.Now(), Node: id, Mode: mode, AtFrame: atFrame})
		})
	}
}

// AddNodeRuntime admits a new node at runtime: attaches a radio, extends
// the TDMA schedule with slots for it (by the rule buildCell uses, so a
// Line cell grows its line and routes), joins the link layer and deploys
// the cell's Virtual Component on it (on-line capacity expansion, §4.2
// objective 2). The new node is placed by the cell's placement at the
// next free index. On any failure the cell is rolled back to its
// previous state — no radio, slot assignment, link or runtime is leaked.
func (c *Cell) AddNodeRuntime(id NodeID) (*Node, error) {
	if _, exists := c.nodes[id]; exists {
		return nil, fmt.Errorf("evm: node %v already deployed", id)
	}
	placement := c.spec.Placement
	if placement.capacity > 0 && len(c.spec.Nodes) >= placement.capacity {
		return nil, fmt.Errorf("evm: placement %s is full (%d nodes)", placement.name, len(c.spec.Nodes))
	}
	pos := placement.at(len(c.spec.Nodes), c.prng)
	if _, err := c.med.Attach(id, pos, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
		return nil, err
	}
	oldSched := c.net.Schedule()
	grown := c.spec
	grown.Nodes = append(slices.Clip(c.spec.Nodes), id)
	sched, err := buildCellSchedule(grown)
	if err != nil {
		c.med.Detach(id)
		return nil, err
	}
	if err := c.net.SetSchedule(sched); err != nil {
		c.med.Detach(id)
		return nil, err
	}
	link, err := c.net.Join(id)
	if err != nil {
		_ = c.net.SetSchedule(oldSched)
		c.med.Detach(id)
		return nil, err
	}
	rollback := func() {
		c.net.Leave(id)
		_ = c.net.SetSchedule(oldSched)
		c.med.Detach(id)
	}
	node, err := core.NewNode(c.net, link, c.spec.VC)
	if err != nil {
		rollback()
		return nil, err
	}
	// Announce to the head.
	payload, err := wire.Join{Node: uint16(id), CPUCapacity: 1, Battery: 1}.Encode()
	if err != nil {
		rollback()
		return nil, err
	}
	c.wireNodeEvents(node)
	watchdog := core.StartWatchdogs([]*Node{node})
	if grown.Line {
		// The routes toward id that a failed send below leaves on the
		// other stations relay nothing: no station addresses id.
		installLineRoutes(c.net, grown.Nodes)
	}
	if err := link.Send(rtlink.Message{Dst: c.spec.VC.Head, Kind: wire.KindJoin, Payload: payload}); err != nil {
		watchdog.Stop()
		rollback()
		return nil, err
	}
	c.watchdogs = append(c.watchdogs, watchdog)
	c.spec = grown
	c.nodes[id] = node
	return node, nil
}

// startFeed starts the cell's synthetic sensor feed (validated with its
// spec). Each tick encodes Sample()'s readings before the next tick and
// keeps no reference to them.
func (c *Cell) startFeed(f FeedSpec) {
	link := c.net.Link(f.Source)
	to := f.To
	if len(to) == 0 {
		to = []NodeID{Broadcast}
	}
	var buf []byte // the link copies each snapshot in Send
	c.feed = c.eng.Every(f.Period, func() {
		payload, err := wire.SensorSnapshot{Readings: f.Sample()}.AppendTo(buf[:0])
		if err != nil {
			return
		}
		buf = payload
		for _, dst := range to {
			_ = link.Send(rtlink.Message{Dst: dst, Kind: wire.KindSensor, Payload: payload})
		}
	})
}

// Run advances virtual time by d.
func (c *Cell) Run(d time.Duration) {
	_ = c.eng.RunUntil(c.eng.Now() + d)
}

// Now returns the current virtual time.
func (c *Cell) Now() time.Duration { return c.eng.Now() }

// Stop halts the feed, the network, the watchdogs and all node runtimes.
// Nodes stop in sorted ID order so any teardown side effects land
// deterministically.
func (c *Cell) Stop() {
	if c.feed != nil {
		c.feed.Stop()
	}
	c.net.Stop()
	for _, w := range c.watchdogs {
		w.Stop()
	}
	for _, id := range sim.SortedKeys(c.nodes) {
		c.nodes[id].Stop()
	}
}
