package evm

import (
	"fmt"
	"time"

	"evm/internal/core"
	"evm/internal/gateway"
	"evm/internal/plant"
	"evm/internal/radio"
	"evm/internal/vm"
)

// Default node IDs for the gas-plant testbed (Fig. 5: six interconnected
// nodes around a gateway).
const (
	GasGatewayID NodeID = 1
	GasCtrlAID   NodeID = 2
	GasCtrlBID   NodeID = 3
	GasHeadID    NodeID = 4
	GasSensorID  NodeID = 5
	GasActID     NodeID = 6
)

// LTSTaskID names the Fig. 6 control task.
const LTSTaskID = "lts-level"

// ChillerTaskID names the chiller temperature loop (one of the other
// controllers in the paper's 8-controller deployment).
const ChillerTaskID = "chiller-temp"

// ReboilTaskID names the Depropanizer bottoms-composition loop.
const ReboilTaskID = "depropanizer-c3"

// GasPlantConfig parameterizes the hardware-in-loop scenario.
type GasPlantConfig struct {
	Seed uint64
	// ControlPeriod is the cycle time (paper: 1/4 s or less).
	ControlPeriod time.Duration
	// DeviationWindow is the number of consecutive deviating cycles
	// before a backup reports a fault.
	DeviationWindow int
	// PER forces a fixed link loss rate in [0,1]; 0 gives a perfect
	// channel.
	PER float64
	// UseVM runs the control law as EVM byte code instead of native PID.
	UseVM bool
}

// The gas plant's fixed paper values: the LTS level setpoint, the
// backups' deviation tolerance and silence window, and the Indicator ->
// Dormant delay (paper: 200 s).
const (
	gasSetpoint      = 50
	gasDeviationTol  = 10
	gasSilenceWindow = 8
	gasDormantAfter  = 200 * time.Second
)

// DefaultGasPlantConfig mirrors the paper's numbers: a 250 ms cycle and
// an 8-cycle deviation window.
func DefaultGasPlantConfig() GasPlantConfig {
	return GasPlantConfig{
		Seed:            1,
		ControlPeriod:   250 * time.Millisecond,
		DeviationWindow: 8,
		PER:             0,
	}
}

// GasPlant is the deployed Fig. 5 testbed: the plant, the gateway and a
// Virtual Component of controllers. It records nothing until Record is
// called: a run that reads neither the Fig. 6(b) series nor the E5
// latencies pays for neither.
type GasPlant struct {
	Cell  *Cell
	Plant *plant.Plant
	GW    *gateway.Gateway
	VC    VCConfig

	seed uint64 // stamped on every Sample
	// recording is set by Record; fig6 holds one row per 1 s tick from
	// then on, expanded into Samples on request.
	recording bool
	fig6      []fig6Row
	// actLatencies collects gateway-measured sensor-to-actuation
	// latencies (experiment E5) from Record on.
	actLatencies []time.Duration
}

// chillerPIDFactory builds the chiller temperature controller: reverse-
// acting PID holding the LTS at -20 C by modulating refrigeration duty.
func chillerPIDFactory(cfg GasPlantConfig) func() (TaskLogic, error) {
	rate := 1.0 / cfg.ControlPeriod.Seconds()
	return func() (TaskLogic, error) {
		return NewPIDLogic(PIDParams{
			Kp: 5, Ki: 0.5, Kd: 0,
			OutMin: 0, OutMax: 100,
			Setpoint: -20,
			CutoffHz: 0.2, RateHz: rate,
			Reverse: true,
		})
	}
}

// reboilPIDFactory builds the Depropanizer composition controller:
// reverse-acting PID holding the bottoms propane fraction at its design
// value by modulating reboil duty.
func reboilPIDFactory(cfg GasPlantConfig) func() (TaskLogic, error) {
	rate := 1.0 / cfg.ControlPeriod.Seconds()
	return func() (TaskLogic, error) {
		return NewPIDLogic(PIDParams{
			Kp: 3000, Ki: 120, Kd: 0,
			OutMin: 0, OutMax: 100,
			Setpoint: 0.024, // 0.30 feed C3 x 0.08 design separation
			CutoffHz: 0.05, RateHz: rate,
			Reverse: true,
		})
	}
}

// ltsPIDFactory builds the Fig. 6 controller: reverse-acting filtered
// PID on the LTS level driving the liquid valve.
func ltsPIDFactory(cfg GasPlantConfig) func() (TaskLogic, error) {
	rate := 1.0 / cfg.ControlPeriod.Seconds()
	return func() (TaskLogic, error) {
		return NewPIDLogic(PIDParams{
			Kp: 1.2, Ki: 0.08, Kd: 0.2,
			OutMin: 0, OutMax: 100,
			Setpoint: gasSetpoint,
			CutoffHz: 0.2, RateHz: rate,
			Reverse: true,
		})
	}
}

// LTSCapsuleSource is the Fig. 6 control law expressed in EVM assembler:
// a reverse-acting proportional controller on the LTS level,
// out = clamp(Kp * (level - setpoint), 0, 100).
const LTSCapsuleSource = `
	IN 0        ; LTS level (Q16.16)
	PUSHQ 50.0  ; setpoint
	SUB         ; level - sp (reverse acting)
	PUSHQ 1.5   ; Kp
	MULQ
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`

// ltsVMFactory builds the byte-code variant of the LTS controller.
func ltsVMFactory() (func() (TaskLogic, error), error) {
	code, err := vm.Assemble(LTSCapsuleSource)
	if err != nil {
		return nil, err
	}
	capsule := vm.Capsule{TaskID: LTSTaskID, Version: 1, Code: code}
	return func() (TaskLogic, error) {
		return core.NewVMLogic(capsule)
	}, nil
}

// NewGasPlant assembles the scenario: gas plant + ModBus plant server +
// gateway + a Virtual Component with primary Ctrl-A and backup Ctrl-B.
func NewGasPlant(cfg GasPlantConfig) (*GasPlant, error) {
	if cfg.ControlPeriod <= 0 {
		return nil, fmt.Errorf("evm: control period %v", cfg.ControlPeriod)
	}
	factory := ltsPIDFactory(cfg)
	if cfg.UseVM {
		vmFactory, err := ltsVMFactory()
		if err != nil {
			return nil, err
		}
		factory = vmFactory
	}
	spec := TaskSpec{
		ID:              LTSTaskID,
		SensorPort:      gateway.PortLTSLevel,
		ActuatorPort:    gateway.PortLTSValve,
		Period:          cfg.ControlPeriod,
		WCET:            5 * time.Millisecond,
		Candidates:      []NodeID{GasCtrlAID, GasCtrlBID},
		DeviationTol:    gasDeviationTol,
		DeviationWindow: cfg.DeviationWindow,
		SilenceWindow:   gasSilenceWindow,
		MakeLogic:       factory,
	}
	chillerSpec := TaskSpec{
		ID:              ChillerTaskID,
		SensorPort:      gateway.PortLTSTemp,
		ActuatorPort:    gateway.PortChillerDuty,
		Period:          cfg.ControlPeriod,
		WCET:            5 * time.Millisecond,
		Candidates:      []NodeID{GasCtrlBID, GasCtrlAID},
		DeviationTol:    gasDeviationTol,
		DeviationWindow: cfg.DeviationWindow,
		SilenceWindow:   gasSilenceWindow,
		MakeLogic:       chillerPIDFactory(cfg),
	}
	// The composition loop's output hunts with the tower-feed
	// oscillation, so a one-cycle observation skew (lost sensor
	// broadcast at a backup) produces large transient deviations; its
	// tolerance must cover that volatility.
	reboilSpec := TaskSpec{
		ID:              ReboilTaskID,
		SensorPort:      gateway.PortBottomsC3,
		ActuatorPort:    gateway.PortReboilDuty,
		Period:          cfg.ControlPeriod,
		WCET:            5 * time.Millisecond,
		Candidates:      []NodeID{GasSensorID, GasActID},
		DeviationTol:    max(gasDeviationTol, 35),
		DeviationWindow: cfg.DeviationWindow,
		SilenceWindow:   gasSilenceWindow,
		MakeLogic:       reboilPIDFactory(cfg),
	}
	vc := VCConfig{
		Name:         "gas-plant",
		Head:         GasHeadID,
		Gateway:      GasGatewayID,
		Tasks:        []TaskSpec{spec, chillerSpec, reboilSpec},
		DormantAfter: gasDormantAfter,
	}
	// Three slots per node: after a fail-over one controller may hold two
	// active tasks (two actuations + one health bundle per cycle).
	cell, err := NewCell(CellSpec{
		Seed:         cfg.Seed,
		Nodes:        []NodeID{GasGatewayID, GasCtrlAID, GasCtrlBID, GasHeadID, GasSensorID, GasActID},
		SlotsPerNode: 3,
		PER:          cfg.PER,
		VC:           vc,
	})
	if err != nil {
		return nil, err
	}

	p, err := plant.New(plant.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ps := gateway.NewPlantServer(p, 1)
	gwCfg := gateway.DefaultConfig()
	gwCfg.Poll = cfg.ControlPeriod
	gwCfg.ActiveNode = map[string]radio.NodeID{
		LTSTaskID:     GasCtrlAID,
		ChillerTaskID: GasCtrlBID,
		ReboilTaskID:  GasSensorID,
	}
	gw, err := gateway.New(cell.Engine(), cell.Network().Link(GasGatewayID), ps, gwCfg)
	if err != nil {
		return nil, err
	}
	s := &GasPlant{Cell: cell, Plant: p, GW: gw, VC: vc, seed: cfg.Seed}
	// Publish accepted actuations on the cell's event bus.
	gw.SetActuateSink(cell.publishActuation)

	// Plant dynamics integrate at a finer step than the control cycle.
	const plantDT = 50 * time.Millisecond
	cell.Engine().Every(plantDT, func() { p.Step(plantDT.Seconds()) })
	gw.Start()
	return s, nil
}

// fig6Series names the Fig. 6(b) series in recording (and Samples)
// order.
var fig6Series = [...]string{
	"lts_level_pct", "sepliq_kmolh", "ltsliq_kmolh", "towerfeed_kmolh", "valve_pct",
	"lts_temp_c", "chiller_duty_pct", "bottoms_c3_frac", "reboil_duty_pct", "active_node",
}

// fig6Row is one Fig. 6(b) tick: its time and the fig6Series values.
type fig6Row struct {
	t time.Duration
	v [len(fig6Series)]float64
}

// Record starts recording, from the moment it is called, the Fig. 6(b)
// series (LTS level, the three flows, valve, LTS temperature, chiller
// and reboil duty, bottoms propane and the LTS loop's active node,
// sampled once per second of plant time, first one second after the
// call; read them with Samples) and the E5 latency of every accepted
// actuation: the time from the gateway's latest sensor poll to the
// actuation's arrival. Call it right after NewGasPlant to record the
// whole run. A second call does nothing.
func (s *GasPlant) Record() {
	if s.recording {
		return
	}
	s.recording = true
	s.Cell.Engine().Every(time.Second, func() {
		f := s.Plant.Flows()
		active := 0.0
		if id, ok := s.Cell.Node(GasHeadID).Head().ActiveNode(LTSTaskID); ok {
			active = float64(id)
		}
		s.fig6 = append(s.fig6, fig6Row{t: s.Cell.Now(), v: [len(fig6Series)]float64{
			s.Plant.LTSLevelPct(), f.SepLiq, f.LTSLiq, f.TowerFeed, s.Plant.ValveOpenPct(),
			s.Plant.LTSTempC(), s.Plant.ChillerDutyPct(), s.Plant.BottomsC3(), s.Plant.ReboilDutyPct(), active,
		}})
	})
	s.onActuation(func(lat time.Duration) { s.actLatencies = append(s.actLatencies, lat) })
}

// onActuation calls fn with the sensor-to-actuation latency of every
// actuation the gateway accepts from now on.
func (s *GasPlant) onActuation(fn func(time.Duration)) {
	s.Cell.Events().Subscribe(func(ev Event) {
		if _, ok := ev.(*ActuationEvent); ok {
			fn(s.Cell.Now() - s.GW.LastPollAt())
		}
	})
}

// Samples returns the Fig. 6(b) series recorded since Record was
// called: per tick, in time order, one sample per series in fig6Series
// order, stamped with the gas-plant scenario and the plant's seed.
// Without Record it returns none.
func (s *GasPlant) Samples() []Sample {
	out := make([]Sample, 0, len(s.fig6)*len(fig6Series))
	for _, r := range s.fig6 {
		for i, name := range fig6Series {
			out = append(out, Sample{T: r.t.Seconds(), Scenario: ScenarioGasPlant, Seed: s.seed, Series: name, Value: r.v[i]})
		}
	}
	return out
}

// ActuationLatencies returns a copy of the gateway-measured
// sensor-to-actuation latencies, in arrival order, of the actuations
// accepted since Record was called; without Record it returns none.
func (s *GasPlant) ActuationLatencies() []time.Duration {
	return append([]time.Duration(nil), s.actLatencies...)
}

// Run advances the scenario by d.
func (s *GasPlant) Run(d time.Duration) { s.Cell.Run(d) }

// PrimaryFaultPlan is the Fig. 6 byzantine failure as declarative data:
// at offset at, Ctrl-A starts emitting the wrong valve output (75%).
// It names Ctrl-A, the LTS loop's first master, even when a false
// fail-over has moved the loop by the time it fires; perfbench's cell
// workload runs it as it is. evmsim aims the same step at the master
// the head names at the fault time.
func PrimaryFaultPlan(at time.Duration) FaultPlan {
	return FaultPlan{
		Name: "primary-compute",
		Steps: []FaultStep{{
			At:           at,
			ComputeFault: &ComputeFault{Node: GasCtrlAID, Task: LTSTaskID, Output: 75},
		}},
	}
}

// PrimaryCrashPlan crashes Ctrl-A's radio at offset at (silent fault).
// Like PrimaryFaultPlan it names Ctrl-A, not the master at that time.
func PrimaryCrashPlan(at time.Duration) FaultPlan {
	return FaultPlan{
		Name:  "primary-crash",
		Steps: []FaultStep{{At: at, CrashNode: GasCtrlAID}},
	}
}

// InjectPrimaryFault makes Ctrl-A emit the Fig. 6 wrong output (75%).
func (s *GasPlant) InjectPrimaryFault() {
	_ = s.Cell.ApplyFaultPlan(PrimaryFaultPlan(0))
}

// CrashPrimary fails Ctrl-A's radio (silent crash).
func (s *GasPlant) CrashPrimary() {
	_ = s.Cell.ApplyFaultPlan(PrimaryCrashPlan(0))
}

// ActiveController returns the current master for the LTS task.
func (s *GasPlant) ActiveController() NodeID {
	id, _ := s.Cell.Node(GasHeadID).Head().ActiveNode(LTSTaskID)
	return id
}

// Fig6Result summarizes one run of the Fig. 6(b) experiment.
type Fig6Result struct {
	FaultAt    time.Duration
	FailoverAt time.Duration
	// LevelBefore / LevelMin / LevelEnd trace the drop and recovery.
	LevelBefore float64
	LevelMin    float64
	LevelEnd    float64
	// FlowPeak is the TowerFeed spike during the fault.
	FlowNominal float64
	FlowPeak    float64
}

// RunFig6 executes the full Fig. 6(b) timeline: steady state, primary
// fault at faultAt, detection and fail-over by the EVM, recovery until
// horizon. It returns the shape summary; after Record, Samples holds
// the series.
func (s *GasPlant) RunFig6(faultAt, horizon time.Duration) (Fig6Result, error) {
	if faultAt >= horizon {
		return Fig6Result{}, fmt.Errorf("evm: fault at %v after horizon %v", faultAt, horizon)
	}
	res := Fig6Result{FaultAt: faultAt}
	sub := s.Cell.Events().Subscribe(func(ev Event) {
		if _, ok := ev.(FailoverEvent); ok && res.FailoverAt == 0 {
			res.FailoverAt = s.Cell.Now()
		}
	})
	defer sub.Cancel()
	s.Run(faultAt)
	res.LevelBefore = s.Plant.LTSLevelPct()
	res.FlowNominal = s.Plant.Flows().TowerFeed
	s.InjectPrimaryFault()

	res.LevelMin = res.LevelBefore
	res.FlowPeak = res.FlowNominal
	probe := s.Cell.Engine().Every(time.Second, func() {
		if l := s.Plant.LTSLevelPct(); l < res.LevelMin {
			res.LevelMin = l
		}
		if f := s.Plant.Flows().TowerFeed; f > res.FlowPeak {
			res.FlowPeak = f
		}
	})
	s.Run(horizon - faultAt)
	probe.Stop()
	res.LevelEnd = s.Plant.LTSLevelPct()
	return res, nil
}
