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
// Quick start:
//
//	cell, err := evm.NewCellWith(evm.CellConfig{Seed: 1}, evm.WithNodes(1, 2, 3, 4))
//	// configure a Virtual Component and deploy it:
//	err = cell.Deploy(vcConfig)
//	cell.Run(10 * time.Second)
//
// For the paper's hardware-in-loop gas-plant testbed, see NewGasPlant.
package evm

import (
	"fmt"
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

// CellConfig parameterizes a TDMA cell.
type CellConfig struct {
	// Seed drives every random stream; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64
	// Link overrides the TDMA framing (zero value = defaults).
	Link rtlink.Config
}

// Cell is one synchronized TDMA cell: the engine, medium, network and the
// EVM runtimes deployed on it. Standalone cells own their engine; cells
// inside a Campus share the campus engine (one virtual timeline) while
// keeping a private radio medium and PRNG fork, so cells never hear each
// other on the air.
type Cell struct {
	name  string
	eng   *sim.Engine
	rng   *sim.RNG
	med   *radio.Medium
	net   *rtlink.Network
	ids   []NodeID
	nodes map[NodeID]*Node

	// link and slotsPerNode are the TDMA framing and per-member TX slot
	// budget the schedule was built with; AddNodeRuntime reuses both.
	link         rtlink.Config
	slotsPerNode int
	placement    Placement
	// prng feeds random placements (nil for deterministic ones).
	prng *sim.RNG
	bus  *Bus
	// act is the one ActuationEvent every accepted actuation is written
	// into and published by address (see publishActuation).
	act  ActuationEvent
	sink gateway.Switch // the actuation sink's operation switch
}

// NewCellWith builds a cell from functional options: membership, node
// placement, slot budget and channel loss become declarative data.
//
//	cell, err := evm.NewCellWith(evm.CellConfig{Seed: 1},
//		evm.WithNodeCount(20),
//		evm.WithPlacement(evm.Grid(5, 4)),
//		evm.WithSlotsPerNode(3),
//		evm.WithPER(0.1))
//
// Defaults: Line(3) placement, two TX slots per member (a controller
// sends an actuation and a health record every cycle), and the
// distance-based loss model.
func NewCellWith(cfg CellConfig, opts ...CellOption) (*Cell, error) {
	spec := cellSpec{placement: Line(3)}
	for _, opt := range opts {
		opt(&spec)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return newCell("", sim.New(), sim.NewRNG(cfg.Seed), cfg, spec)
}

// newCell builds a cell on the given engine and RNG stream. NewCellWith
// passes a fresh engine; NewCampus passes the shared campus engine and a
// per-cell fork of the campus RNG, giving every cell an isolated medium
// and loss stream on one deterministic timeline.
func newCell(name string, eng *sim.Engine, rng *sim.RNG, cfg CellConfig, spec cellSpec) (*Cell, error) {
	if cfg.Link.SlotsPerFrame == 0 {
		cfg.Link = rtlink.DefaultConfig()
	}
	if spec.slotsPerNode == 0 {
		spec.slotsPerNode = 2
	}
	rcfg := radio.DefaultConfig()
	if spec.hasPER && spec.per == 0 {
		rcfg.RefPER = 0
		rcfg.Burst = radio.GilbertElliott{}
	}
	med := radio.NewMedium(eng, rng.Fork(), rcfg)
	c := &Cell{
		name:         name,
		link:         cfg.Link,
		slotsPerNode: spec.slotsPerNode,
		eng:          eng,
		rng:          rng,
		med:          med,
		ids:          spec.ids,
		nodes:        make(map[NodeID]*Node),
		placement:    spec.placement,
		bus:          &Bus{},
	}
	if spec.placement.random {
		c.prng = rng.Fork()
	}
	for i, id := range spec.ids {
		if _, err := med.Attach(id, spec.placement.at(i, c.prng), radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
			return nil, err
		}
	}
	sched, err := buildCellSchedule(spec, cfg.Link)
	if err != nil {
		return nil, err
	}
	net, err := rtlink.NewNetwork(med, cfg.Link, sched)
	if err != nil {
		return nil, err
	}
	for _, id := range spec.ids {
		if _, err := net.Join(id); err != nil {
			return nil, err
		}
	}
	if spec.line {
		installLineRoutes(net, spec.lineOrderOrIDs())
	}
	c.net = net
	if spec.hasPER && spec.per > 0 {
		med.ForcePER(spec.per)
	}
	return c, nil
}

// buildCellSchedule derives the cell's TDMA schedule from its options:
// the default full mesh with the cell's slot budget of TX slots per
// member, or — with WithLineSchedule — that many interleaved rounds of a
// multi-hop line schedule in which each slot is heard only by the
// owner's immediate line neighbors.
func buildCellSchedule(spec cellSpec, link rtlink.Config) (rtlink.Schedule, error) {
	if !spec.line {
		return rtlink.BuildMeshScheduleK(spec.ids, link, spec.slotsPerNode)
	}
	order := spec.lineOrderOrIDs()
	if spec.slotsPerNode*len(order)+1 > link.SlotsPerFrame {
		return nil, fmt.Errorf("evm: line of %d x %d rounds does not fit in %d slots",
			len(order), spec.slotsPerNode, link.SlotsPerFrame)
	}
	base, err := rtlink.BuildLineSchedule(order, link)
	if err != nil {
		return nil, err
	}
	sched := make(rtlink.Schedule, spec.slotsPerNode*len(order))
	for round := 0; round < spec.slotsPerNode; round++ {
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
func (c *Cell) Name() string { return c.name }

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
func (c *Cell) Members() []NodeID { return append([]NodeID(nil), c.ids...) }

// Node returns the EVM runtime deployed on id (nil before Deploy or for
// the gateway).
func (c *Cell) Node(id NodeID) *Node { return c.nodes[id] }

// Nodes returns all deployed EVM runtimes.
func (c *Cell) Nodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for _, id := range c.ids {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Deploy instantiates the EVM runtime on every member except the
// configured gateway, and starts the TDMA network. On failure no runtime
// is left running: nodes started before the error are stopped again.
func (c *Cell) Deploy(vc VCConfig) error {
	// NewNode validates too, but a cell whose only member is the gateway
	// builds no node, so only this check rejects an invalid vc there.
	if err := vc.Validate(); err != nil {
		return err
	}
	var started []NodeID
	fail := func(err error) error {
		for _, id := range started {
			c.nodes[id].Stop()
			delete(c.nodes, id)
		}
		return err
	}
	for _, id := range c.ids {
		if id == vc.Gateway {
			continue
		}
		link := c.net.Link(id)
		if link == nil {
			return fail(fmt.Errorf("evm: node %v not joined", id))
		}
		node, err := core.NewNode(c.net, link, vc)
		if err != nil {
			return fail(err)
		}
		c.wireNodeEvents(node)
		node.Start()
		c.nodes[id] = node
		started = append(started, id)
	}
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
// the TDMA schedule with slots for it, joins the link layer and deploys
// the EVM runtime (on-line capacity expansion, §4.2 objective 2). The new
// node is placed by the cell's placement at the next free index. On any
// failure the cell is rolled back to its previous state — no radio, slot
// assignment, link or runtime is leaked.
func (c *Cell) AddNodeRuntime(id NodeID, vc VCConfig) (*Node, error) {
	if _, exists := c.nodes[id]; exists {
		return nil, fmt.Errorf("evm: node %v already deployed", id)
	}
	if c.placement.capacity > 0 && len(c.ids) >= c.placement.capacity {
		return nil, fmt.Errorf("evm: placement %s is full (%d nodes)", c.placement.name, len(c.ids))
	}
	pos := c.placement.at(len(c.ids), c.prng)
	if _, err := c.med.Attach(id, pos, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
		return nil, err
	}
	oldSched := c.net.Schedule()
	grown := append(append([]NodeID(nil), c.ids...), id)
	sched, err := rtlink.BuildMeshScheduleK(grown, c.link, c.slotsPerNode)
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
	node, err := core.NewNode(c.net, link, vc)
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
	node.Start()
	if err := link.Send(rtlink.Message{Dst: vc.Head, Kind: wire.KindJoin, Payload: payload}); err != nil {
		node.Stop()
		rollback()
		return nil, err
	}
	c.ids = grown
	c.nodes[id] = node
	return node, nil
}

// StartSensorFeed broadcasts synthetic sensor snapshots from src every
// period — a stand-in for a plant gateway in examples and experiments.
// Stop the returned ticker to end the feed.
func (c *Cell) StartSensorFeed(src NodeID, period time.Duration, sample func() []SensorReading) (*sim.Ticker, error) {
	return c.StartSensorFeedTo(src, period, sample, Broadcast)
}

// StartSensorFeedTo is StartSensorFeed with explicit destinations: each
// sample is sent to every listed destination in turn. Multi-hop cells
// list unicast destinations, since a single-hop broadcast reaches only a
// line cell's immediate neighbors and the link-layer line routes relay
// unicasts station by station. A Broadcast destination is one
// single-hop send; StartSensorFeed is that form. Each tick encodes
// sample()'s readings before the next tick and keeps no reference to
// them, so sample may return the same slice every time.
func (c *Cell) StartSensorFeedTo(src NodeID, period time.Duration, sample func() []SensorReading, dsts ...NodeID) (*sim.Ticker, error) {
	link := c.net.Link(src)
	if link == nil {
		return nil, fmt.Errorf("evm: node %v not joined", src)
	}
	if period <= 0 {
		return nil, fmt.Errorf("evm: feed period %v", period)
	}
	if len(dsts) == 0 {
		return nil, fmt.Errorf("evm: unicast feed needs at least one destination")
	}
	for _, dst := range dsts {
		if dst != Broadcast && c.net.Link(dst) == nil {
			return nil, fmt.Errorf("evm: feed destination %v not joined", dst)
		}
	}
	var buf []byte // the link copies each snapshot in Send
	tk := c.eng.Every(period, func() {
		payload, err := wire.SensorSnapshot{Readings: sample()}.AppendTo(buf[:0])
		if err != nil {
			return
		}
		buf = payload
		for _, dst := range dsts {
			_ = link.Send(rtlink.Message{Dst: dst, Kind: wire.KindSensor, Payload: payload})
		}
	})
	return tk, nil
}

// Run advances virtual time by d.
func (c *Cell) Run(d time.Duration) {
	_ = c.eng.RunUntil(c.eng.Now() + d)
}

// Now returns the current virtual time.
func (c *Cell) Now() time.Duration { return c.eng.Now() }

// Stop halts the network and all node runtimes. Nodes stop in sorted
// ID order so any teardown side effects land deterministically.
func (c *Cell) Stop() {
	c.net.Stop()
	for _, id := range sim.SortedKeys(c.nodes) {
		c.nodes[id].Stop()
	}
}
