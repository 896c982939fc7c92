package evm

import (
	"math"
	"testing"
	"time"

	"evm/internal/rtlink"
	"evm/internal/wire"
)

func TestChillerLoopHoldsTemperature(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(120 * time.Second)
	temp := s.Plant.LTSTempC()
	if math.Abs(temp-(-20)) > 2 {
		t.Fatalf("chiller loop settled at %.2fC, want ~-20C", temp)
	}
	// The chiller task is mastered by Ctrl-B.
	if id, _ := s.Cell.Node(GasHeadID).Head().ActiveNode(ChillerTaskID); id != GasCtrlBID {
		t.Fatalf("chiller master = %v, want Ctrl-B", id)
	}
}

func TestChillerLoopRejectsFeedDisturbance(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(120 * time.Second)
	s.Plant.DisturbFeedTemp(15) // feed heats up by 15C
	s.Run(180 * time.Second)
	temp := s.Plant.LTSTempC()
	if math.Abs(temp-(-20)) > 3 {
		t.Fatalf("after +15C feed disturbance temp = %.2fC, want pulled back near -20C", temp)
	}
}

func TestChillerFailoverIndependentOfLTS(t *testing.T) {
	// Faulting the chiller master (Ctrl-B) moves only the chiller task;
	// the LTS loop stays on Ctrl-A.
	cfg := DefaultGasPlantConfig()
	cfg.DeviationWindow = 8
	s := newGasPlant(t, cfg)
	s.Run(60 * time.Second)
	s.Cell.Node(GasCtrlBID).InjectComputeFault(ChillerTaskID, 0) // refrigeration off
	s.Run(60 * time.Second)
	head := s.Cell.Node(GasHeadID).Head()
	if id, _ := head.ActiveNode(ChillerTaskID); id != GasCtrlAID {
		t.Fatalf("chiller master = %v after fault, want Ctrl-A", id)
	}
	if id, _ := head.ActiveNode(LTSTaskID); id != GasCtrlAID {
		t.Fatalf("LTS master disturbed: %v", id)
	}
	// Temperature recovers under the new master.
	s.Run(120 * time.Second)
	if math.Abs(s.Plant.LTSTempC()-(-20)) > 3 {
		t.Fatalf("temperature %.2fC did not recover after chiller failover", s.Plant.LTSTempC())
	}
}

func TestReboilLoopHoldsComposition(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(300 * time.Second)
	c3 := s.Plant.BottomsC3()
	if math.Abs(c3-0.024) > 0.004 {
		t.Fatalf("bottoms C3 settled at %.4f, want ~0.024", c3)
	}
	if id, _ := s.Cell.Node(GasHeadID).Head().ActiveNode(ReboilTaskID); id != GasSensorID {
		t.Fatalf("reboil master = %v, want node 5", id)
	}
}

func TestReboilLoopRejectsFeedCompositionShift(t *testing.T) {
	// Heavier feed (+C3): the loop must raise the average reboil duty
	// and pull the bottoms composition back to spec. Point samples hunt
	// with the tower-feed oscillation, so compare window averages.
	s := newGasPlant(t, DefaultGasPlantConfig())
	avgDuty := func(window time.Duration) float64 {
		var sum float64
		n := 0
		for elapsed := time.Duration(0); elapsed < window; elapsed += 10 * time.Second {
			s.Run(10 * time.Second)
			sum += s.Plant.ReboilDutyPct()
			n++
		}
		return sum / float64(n)
	}
	s.Run(200 * time.Second)
	before := avgDuty(200 * time.Second)
	s.Plant.DisturbFeedC3(0.10)
	s.Run(200 * time.Second) // settle
	after := avgDuty(200 * time.Second)
	if after <= before+5 {
		t.Fatalf("avg reboil duty %.1f did not clearly rise after heavier feed (was %.1f)", after, before)
	}
	if c3 := s.Plant.BottomsC3(); math.Abs(c3-0.024) > 0.006 {
		t.Fatalf("bottoms C3 = %.4f after disturbance, want pulled near 0.024", c3)
	}
}

func TestAllThreeLoopsIndependentMasters(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(30 * time.Second)
	head := s.Cell.Node(GasHeadID).Head()
	want := map[string]NodeID{
		LTSTaskID:     GasCtrlAID,
		ChillerTaskID: GasCtrlBID,
		ReboilTaskID:  GasSensorID,
	}
	for task, node := range want {
		if got, _ := head.ActiveNode(task); got != node {
			t.Fatalf("%s master = %v, want %v", task, got, node)
		}
	}
	if head.Stats().Failovers != 0 {
		t.Fatalf("%d spurious failovers with 3 loops", head.Stats().Failovers)
	}
}

func TestOverTheAirReprogramming(t *testing.T) {
	// A capsule frame reaching a live replica (the migration path, not a
	// staged rollout) replaces its control law after attestation; a
	// planned promotion activates it.
	v1, err := AssembleCapsule("loop", 1, "PUSHQ 50.0\nIN 0\nSUB\nPUSHQ 2.0\nMULQ\nOUT 0\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := AssembleCapsule("loop", 2, "PUSHQ 70.0\nIN 0\nSUB\nPUSHQ 3.0\nMULQ\nOUT 0\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	vc := VCConfig{
		Name: "ota", Head: 4, Gateway: 1,
		Tasks: []TaskSpec{{
			ID: "loop", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []NodeID{2, 3},
			DeviationTol: 100, DeviationWindow: 8, SilenceWindow: 8,
			MakeLogic: func() (TaskLogic, error) { return NewVMLogic(v1) },
		}},
	}
	cell, err := NewCell(CellSpec{Seed: 5, Nodes: Members(4), VC: vc,
		Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: func() []SensorReading {
			return []SensorReading{{Port: 0, Value: 40}}
		}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cell.Stop()
	cell.Run(5 * time.Second)
	if out, _ := cell.Node(2).LastOutput("loop"); math.Abs(out-20) > 0.1 {
		t.Fatalf("v1 output = %f, want 20", out)
	}
	// send delivers c to dst as a raw capsule frame from node 2's link.
	send := func(c Capsule, dst NodeID) {
		t.Helper()
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := cell.Network().Link(2).Send(rtlink.Message{Dst: dst, Kind: wire.KindCapsule, Payload: enc}); err != nil {
			t.Fatal(err)
		}
	}
	send(v2, 3)
	cell.Run(5 * time.Second)
	if out, _ := cell.Node(3).LastOutput("loop"); math.Abs(out-90) > 0.1 {
		t.Fatalf("v2 output = %f, want 90", out)
	}
	cell.Node(4).Head().Promote("loop", 3, 2)
	cell.Run(3 * time.Second)
	if id, _ := cell.Node(4).Head().ActiveNode("loop"); id != 3 {
		t.Fatalf("active = %v after planned promotion", id)
	}
	// A capsule naming an unknown task is dropped.
	bad := v2
	bad.TaskID = "nope"
	send(bad, 3)
	cell.Run(time.Second)
	if cell.Node(3).HasReplica("nope") || cell.Node(3).ReplicaCount() != 1 {
		t.Fatal("capsule for unknown task installed")
	}
}

func TestBothLoopsSurviveDoubleRoleLoad(t *testing.T) {
	// Crash Ctrl-A: Ctrl-B ends up mastering BOTH loops; with 3 slots per
	// node the cell must sustain two actuations + health per cycle.
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(60 * time.Second)
	s.CrashPrimary()
	s.Run(60 * time.Second)
	head := s.Cell.Node(GasHeadID).Head()
	lts, _ := head.ActiveNode(LTSTaskID)
	ch, _ := head.ActiveNode(ChillerTaskID)
	if lts != GasCtrlBID || ch != GasCtrlBID {
		t.Fatalf("masters after crash: lts=%v chiller=%v, want both Ctrl-B", lts, ch)
	}
	// Both loops still controlled: level and temperature in band.
	s.Run(120 * time.Second)
	if l := s.Plant.LTSLevelPct(); l < 35 || l > 65 {
		t.Fatalf("level %.1f out of band under double load", l)
	}
	if tc := s.Plant.LTSTempC(); math.Abs(tc-(-20)) > 3 {
		t.Fatalf("temperature %.1f out of band under double load", tc)
	}
	// The link queue must not be growing (slot budget suffices).
	if q := s.Cell.Network().Link(GasCtrlBID).QueueLen(); q > 6 {
		t.Fatalf("Ctrl-B queue backlog %d — slot budget insufficient", q)
	}
}
