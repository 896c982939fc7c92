package gateway

import (
	"testing"
	"time"

	"evm/internal/plant"
	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/sim"
	"evm/internal/wire"
)

type rig struct {
	eng  *sim.Engine
	net  *rtlink.Network
	gw   *Gateway
	p    *plant.Plant
	ctrl *rtlink.Link
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	med := radio.NewMedium(eng, sim.NewRNG(3), rcfg)
	for i, id := range []radio.NodeID{1, 2} {
		if _, err := med.Attach(id, radio.Position{X: float64(i * 3)}, nil, radio.DefaultEnergyModel()); err != nil {
			t.Fatal(err)
		}
	}
	lcfg := rtlink.DefaultConfig()
	sched, err := rtlink.BuildMeshScheduleK([]radio.NodeID{1, 2}, lcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rtlink.NewNetwork(med, lcfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	gwLink, err := net.Join(1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := net.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plant.New(plant.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPlantServer(p, 1)
	cfg := DefaultConfig()
	cfg.ActiveNode = map[string]radio.NodeID{"lts": 2}
	gw, err := New(eng, gwLink, ps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Every(50*time.Millisecond, func() { p.Step(0.05) })
	gw.Start()
	net.Start()
	return &rig{eng: eng, net: net, gw: gw, p: p, ctrl: ctrl}
}

func TestSensorBroadcastsFlow(t *testing.T) {
	r := newRig(t)
	var got []wire.SensorReading
	r.ctrl.SetHandler(func(m rtlink.Message) {
		if m.Kind == wire.KindSensor {
			var s wire.SensorSnapshot
			if err := wire.DecodeSnapshotInto(m.Payload, &s); err == nil {
				got = s.Readings
			}
		}
	})
	_ = r.eng.RunUntil(2 * time.Second)
	if len(got) != 7 {
		t.Fatalf("got %d readings, want 7", len(got))
	}
	// LTS level port present and near 50%.
	found := false
	for _, rd := range got {
		if rd.Port == PortLTSLevel {
			found = true
			if rd.Value < 45 || rd.Value > 55 {
				t.Fatalf("level reading %.2f", rd.Value)
			}
		}
	}
	if !found {
		t.Fatal("LTS level reading missing")
	}
	if r.gw.Stats().SensorBroadcasts == 0 {
		t.Fatal("broadcast counter zero")
	}
}

func sendActuate(t *testing.T, r *rig, task string, value float64) {
	t.Helper()
	payload, err := wire.Actuate{Port: PortLTSValve, Value: value, TaskID: task, Seq: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Send(rtlink.Message{Dst: 1, Kind: wire.KindActuate, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func TestActuationReachesPlant(t *testing.T) {
	r := newRig(t)
	sendActuate(t, r, "lts", 42.5)
	_ = r.eng.RunUntil(time.Second)
	if got := r.p.ValveOpenPct(); got != 42.5 {
		t.Fatalf("valve = %.2f, want 42.5", got)
	}
	if r.gw.Stats().ActuationsOK != 1 {
		t.Fatalf("ActuationsOK = %d", r.gw.Stats().ActuationsOK)
	}
}

func TestOperationSwitchDeniesNonActive(t *testing.T) {
	r := newRig(t)
	// Move the switch to node 99 via a role-change broadcast.
	payload, err := wire.RoleChange{Node: 99, TaskID: "lts", Role: wire.RoleActive, Seq: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Send(rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindRoleChange, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	_ = r.eng.RunUntil(time.Second)
	before := r.p.ValveOpenPct()
	sendActuate(t, r, "lts", 99)
	_ = r.eng.RunUntil(2 * time.Second)
	if r.p.ValveOpenPct() != before {
		t.Fatal("non-active controller moved the valve")
	}
	if r.gw.Stats().ActuationsDenied == 0 {
		t.Fatal("denial not counted")
	}
	if n, ok := r.gw.sw.active["lts"]; !ok || n != 99 {
		t.Fatalf("switch position = %v", n)
	}
}

func TestUnknownActuatorPortDenied(t *testing.T) {
	r := newRig(t)
	payload, err := wire.Actuate{Port: 200, Value: 1, TaskID: "lts", Seq: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.Send(rtlink.Message{Dst: 1, Kind: wire.KindActuate, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	_ = r.eng.RunUntil(time.Second)
	if r.gw.Stats().ActuationsDenied == 0 {
		t.Fatal("unknown port accepted")
	}
}

func TestPlantServerRegisters(t *testing.T) {
	p, err := plant.New(plant.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPlantServer(p, 1)
	v, ok := ps.Srv.Regs.Read(RegLTSLevel)
	if !ok {
		t.Fatal("level register missing")
	}
	if lvl := float64(v) / 100; lvl < 45 || lvl > 55 {
		t.Fatalf("level register = %.2f", lvl)
	}
	// Writing the valve register drives the plant.
	ps.Srv.Regs.Write(RegValveCmd, 7500)
	if p.ValveOpenPct() != 75 {
		t.Fatalf("valve = %.1f after register write", p.ValveOpenPct())
	}
}

func TestActuateSinkAndLastPoll(t *testing.T) {
	r := newRig(t)
	var hookSrc radio.NodeID
	r.gw.SetActuateSink(func(src radio.NodeID, task string, port uint8, value float64) { hookSrc = src })
	_ = r.eng.RunUntil(time.Second)
	if r.gw.LastPollAt() == 0 {
		t.Fatal("LastPollAt never set")
	}
	sendActuate(t, r, "lts", 10)
	_ = r.eng.RunUntil(2 * time.Second)
	if hookSrc != 2 {
		t.Fatalf("hook src = %v", hookSrc)
	}
}

func TestBadPollPeriodRejected(t *testing.T) {
	p, err := plant.New(plant.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Poll = 0
	if _, err := New(nil, nil, NewPlantServer(p, 1), cfg); err == nil {
		t.Fatal("zero poll accepted")
	}
}
