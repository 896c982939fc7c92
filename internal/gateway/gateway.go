// Package gateway implements the bridge node from the paper's testbed
// (Fig. 5): every sensor/controller/actuator node reaches the plant
// through a gateway that speaks RT-Link on the wireless side and ModBus
// toward the (simulated) UniSim workstation.
//
// The gateway also hosts the "operation switch" (OS-1 in Fig. 6(a), see
// Switch): only the Active controller's commands reach the plant.
package gateway

import (
	"fmt"
	"time"

	"evm/internal/modbus"
	"evm/internal/plant"
	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/sim"
	"evm/internal/wire"
)

// Plant register map (holding registers).
const (
	RegLTSLevel    uint16 = 0 // x100, percent
	RegSepLiq      uint16 = 1 // x10, kmol/h
	RegLTSLiq      uint16 = 2 // x10, kmol/h
	RegTowerFeed   uint16 = 3 // x10, kmol/h
	RegInletLevel  uint16 = 4 // x100, percent
	RegBottomsC3   uint16 = 5 // x10000, mole fraction
	RegValveCmd    uint16 = 6 // x100, percent (writeable actuator)
	RegLTSTemp     uint16 = 7 // x100, degrees C offset by +100 (unsigned)
	RegChillerDuty uint16 = 8 // x100, percent (writeable actuator)
	RegReboilDuty  uint16 = 9 // x100, percent (writeable actuator)
)

// tempOffsetC makes sub-zero temperatures storable in unsigned registers.
const tempOffsetC = 100

// Sensor/actuator port numbers used on the air.
const (
	PortLTSLevel    uint8 = 0
	PortSepLiq      uint8 = 1
	PortLTSLiq      uint8 = 2
	PortTowerFeed   uint8 = 3
	PortInletLevel  uint8 = 4
	PortLTSTemp     uint8 = 5
	PortBottomsC3   uint8 = 6
	PortLTSValve    uint8 = 10
	PortChillerDuty uint8 = 11
	PortReboilDuty  uint8 = 12
)

// PlantServer fronts the plant with a ModBus register bank, mirroring the
// UniSim workstation side of the testbed.
type PlantServer struct {
	Plant *plant.Plant
	Srv   *modbus.Server
}

// NewPlantServer builds the register bank and wires actuator writes back
// into the plant.
func NewPlantServer(p *plant.Plant, unit byte) *PlantServer {
	regs := modbus.NewRegisterMap(16)
	ps := &PlantServer{
		Plant: p,
		Srv:   &modbus.Server{UnitID: unit, Regs: regs},
	}
	regs.OnWrite = func(addr, value uint16) {
		switch addr {
		case RegValveCmd:
			p.SetLTSValve(modbus.FromReg(value, 100))
		case RegChillerDuty:
			p.SetChillerDuty(modbus.FromReg(value, 100))
		case RegReboilDuty:
			p.SetReboilDuty(modbus.FromReg(value, 100))
		}
	}
	ps.Refresh()
	return ps
}

// Refresh copies the current plant sensor values into the registers.
func (ps *PlantServer) Refresh() {
	p := ps.Plant
	f := p.Flows()
	ps.Srv.Regs.Write(RegLTSLevel, modbus.ToReg(p.LTSLevelPct(), 100))
	ps.Srv.Regs.Write(RegSepLiq, modbus.ToReg(f.SepLiq, 10))
	ps.Srv.Regs.Write(RegLTSLiq, modbus.ToReg(f.LTSLiq, 10))
	ps.Srv.Regs.Write(RegTowerFeed, modbus.ToReg(f.TowerFeed, 10))
	ps.Srv.Regs.Write(RegInletLevel, modbus.ToReg(p.InletSepLevelPct(), 100))
	ps.Srv.Regs.Write(RegBottomsC3, modbus.ToReg(p.BottomsC3(), 10000))
	ps.Srv.Regs.Write(RegLTSTemp, modbus.ToReg(p.LTSTempC()+tempOffsetC, 100))
}

// SensorMap binds an on-air port to a plant register. Offset is
// subtracted after register decoding (temperatures are stored shifted so
// they fit unsigned registers).
type SensorMap struct {
	Port   uint8
	Reg    uint16
	Scale  float64
	Offset float64
}

// ActuatorMap binds an on-air actuator port to a plant register. Offset
// is added before register encoding.
type ActuatorMap struct {
	Port   uint8
	Reg    uint16
	Scale  float64
	Offset float64
}

// Config parameterizes the gateway.
type Config struct {
	Sensors   []SensorMap
	Actuators []ActuatorMap
	// Poll is the sensor broadcast period (the control cycle).
	Poll time.Duration
	// ActiveNode maps task ID -> node currently allowed to actuate
	// (the operation switch's initial position).
	ActiveNode map[string]radio.NodeID
}

// DefaultConfig returns the port/register map for the gas plant with a
// 250 ms control cycle.
func DefaultConfig() Config {
	return Config{
		Sensors: []SensorMap{
			{Port: PortLTSLevel, Reg: RegLTSLevel, Scale: 100},
			{Port: PortSepLiq, Reg: RegSepLiq, Scale: 10},
			{Port: PortLTSLiq, Reg: RegLTSLiq, Scale: 10},
			{Port: PortTowerFeed, Reg: RegTowerFeed, Scale: 10},
			{Port: PortInletLevel, Reg: RegInletLevel, Scale: 100},
			{Port: PortLTSTemp, Reg: RegLTSTemp, Scale: 100, Offset: tempOffsetC},
			{Port: PortBottomsC3, Reg: RegBottomsC3, Scale: 10000},
		},
		Actuators: []ActuatorMap{
			{Port: PortLTSValve, Reg: RegValveCmd, Scale: 100},
			{Port: PortChillerDuty, Reg: RegChillerDuty, Scale: 100},
			{Port: PortReboilDuty, Reg: RegReboilDuty, Scale: 100},
		},
		Poll:       250 * time.Millisecond,
		ActiveNode: make(map[string]radio.NodeID),
	}
}

// Stats counts gateway activity.
type Stats struct {
	SensorBroadcasts int
	ActuationsOK     int
	ActuationsDenied int
	ModbusErrors     int
}

// Gateway is the bridge node runtime.
type Gateway struct {
	eng    *sim.Engine
	link   *rtlink.Link
	cli    *modbus.Client
	ps     *PlantServer
	cfg    Config
	ticker *sim.Ticker
	stats  Stats
	sw     Switch

	lastPollAt time.Duration
	// readings and snap are pollOnce's reading list and encode buffer,
	// reused every poll; the link copies the snapshot in Send.
	readings []wire.SensorReading
	snap     []byte
	// actuateSink is the facade's event-bus observer for accepted
	// actuations (ActuationEvent on evm.Cell.Events).
	actuateSink func(src radio.NodeID, taskID string, port uint8, value float64)
}

// SetActuateSink registers the facade-level actuation observer.
func (g *Gateway) SetActuateSink(fn func(src radio.NodeID, taskID string, port uint8, value float64)) {
	g.actuateSink = fn
}

// New creates a gateway on the given link, bridging to the plant server.
func New(eng *sim.Engine, link *rtlink.Link, ps *PlantServer, cfg Config) (*Gateway, error) {
	if cfg.Poll <= 0 {
		return nil, fmt.Errorf("gateway: poll period %v", cfg.Poll)
	}
	g := &Gateway{
		eng:  eng,
		link: link,
		cli:  &modbus.Client{UnitID: ps.Srv.UnitID},
		ps:   ps,
		cfg:  cfg,
		sw:   NewSwitch(sim.SortedKeys(cfg.ActiveNode), cfg.ActiveNode),
	}
	link.SetHandler(g.onMessage)
	return g, nil
}

// Stats returns a copy of the counters, the switch's denials included.
func (g *Gateway) Stats() Stats {
	s := g.stats
	s.ActuationsDenied += g.sw.denied
	return s
}

// Start begins the poll/broadcast cycle.
func (g *Gateway) Start() {
	g.ticker = g.eng.Every(g.cfg.Poll, g.pollOnce)
}

// Stop halts the poll cycle.
func (g *Gateway) Stop() {
	if g.ticker != nil {
		g.ticker.Stop()
	}
}

// LastPollAt returns when the latest sensor broadcast was queued.
func (g *Gateway) LastPollAt() time.Duration { return g.lastPollAt }

// pollOnce reads every mapped sensor register over ModBus and broadcasts
// the snapshot to the Virtual Component.
func (g *Gateway) pollOnce() {
	g.lastPollAt = g.eng.Now()
	g.ps.Refresh()
	readings := g.readings[:0]
	for _, sm := range g.cfg.Sensors {
		resp, err := g.ps.Srv.Handle(g.cli.ReadHoldingRequest(sm.Reg, 1))
		if err != nil {
			g.stats.ModbusErrors++
			continue
		}
		vals, err := g.cli.ParseReadResponse(resp)
		if err != nil || len(vals) != 1 {
			g.stats.ModbusErrors++
			continue
		}
		readings = append(readings, wire.SensorReading{
			Port:  sm.Port,
			Value: modbus.FromReg(vals[0], sm.Scale) - sm.Offset,
		})
	}
	g.readings = readings
	payload, err := wire.SensorSnapshot{At: g.eng.Now(), Readings: readings}.AppendTo(g.snap[:0])
	if err != nil {
		g.stats.ModbusErrors++
		return
	}
	g.snap = payload
	if err := g.link.Send(rtlink.Message{
		Dst:     radio.Broadcast,
		Kind:    wire.KindSensor,
		Payload: payload,
	}); err == nil {
		g.stats.SensorBroadcasts++
	}
}

// onMessage writes each actuation the switch lets through to the plant.
func (g *Gateway) onMessage(msg rtlink.Message) {
	act, ok := g.sw.Pass(msg)
	if !ok {
		return
	}
	for _, am := range g.cfg.Actuators {
		if am.Port != act.Port {
			continue
		}
		req := g.cli.WriteSingleRequest(am.Reg, modbus.ToReg(act.Value+am.Offset, am.Scale))
		resp, err := g.ps.Srv.Handle(req)
		if err != nil || g.cli.CheckWriteResponse(resp) != nil {
			g.stats.ModbusErrors++
			return
		}
		g.stats.ActuationsOK++
		if g.actuateSink != nil {
			g.actuateSink(msg.Src, act.TaskID, act.Port, act.Value)
		}
		return
	}
	g.stats.ActuationsDenied++
}
