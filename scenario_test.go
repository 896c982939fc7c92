package evm

import (
	"math"
	"testing"
	"time"
)

func newGasPlant(t *testing.T, cfg GasPlantConfig) *GasPlant {
	t.Helper()
	s, err := NewGasPlant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGasPlantSteadyState(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(120 * time.Second)
	level := s.Plant.LTSLevelPct()
	if level < 40 || level > 60 {
		t.Fatalf("closed-loop level = %.1f, want near 50", level)
	}
	if s.ActiveController() != GasCtrlAID {
		t.Fatalf("active controller = %v at steady state", s.ActiveController())
	}
	if s.GW.Stats().ActuationsOK == 0 {
		t.Fatal("no actuations reached the plant")
	}
	if s.GW.Stats().SensorBroadcasts == 0 {
		t.Fatal("no sensor broadcasts")
	}
}

func TestFig6ShapeReproduced(t *testing.T) {
	// The Fig. 6(b) shape: level collapses after the fault, the EVM
	// fails over to Ctrl-B, flows spike and then recover toward nominal.
	// The paper's backup deliberates for ~300 s before the switch; a
	// 60 s deviation window here keeps the same shape at shorter test
	// runtime.
	cfg := DefaultGasPlantConfig()
	cfg.DeviationWindow = 240 // 60 s at 250 ms cycles
	s := newGasPlant(t, cfg)
	s.Record()
	res, err := s.RunFig6(120*time.Second, 600*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailoverAt == 0 {
		t.Fatal("no failover")
	}
	if res.FailoverAt <= res.FaultAt {
		t.Fatalf("failover %v before fault %v", res.FailoverAt, res.FaultAt)
	}
	if res.LevelMin >= res.LevelBefore-10 {
		t.Fatalf("level did not collapse: before %.1f min %.1f", res.LevelBefore, res.LevelMin)
	}
	if res.FlowPeak <= res.FlowNominal*1.5 {
		t.Fatalf("tower feed did not spike: nominal %.1f peak %.1f", res.FlowNominal, res.FlowPeak)
	}
	// Recovery: the new primary pulls the level back above the minimum.
	if res.LevelEnd <= res.LevelMin+5 {
		t.Fatalf("no recovery: min %.1f end %.1f", res.LevelMin, res.LevelEnd)
	}
	if s.ActiveController() != GasCtrlBID {
		t.Fatalf("active controller = %v after Fig6, want Ctrl-B", s.ActiveController())
	}
	// The samples hold every Fig. 6(b) series.
	recorded := make(map[string]bool)
	for _, sm := range s.Samples() {
		recorded[sm.Series] = true
	}
	for _, name := range []string{"lts_level_pct", "sepliq_kmolh", "ltsliq_kmolh", "towerfeed_kmolh"} {
		if !recorded[name] {
			t.Fatalf("series %s missing", name)
		}
	}
}

func TestCrashFailover(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(60 * time.Second)
	s.CrashPrimary()
	s.Run(30 * time.Second)
	if s.ActiveController() != GasCtrlBID {
		t.Fatalf("active = %v after crash, want Ctrl-B", s.ActiveController())
	}
	// The plant keeps being controlled.
	before := s.GW.Stats().ActuationsOK
	s.Run(10 * time.Second)
	if s.GW.Stats().ActuationsOK == before {
		t.Fatal("control stopped after crash failover")
	}
}

func TestControlLatencyWithinThird(t *testing.T) {
	// Paper objective 5: control cycle <= 250 ms with latency <= 1/3 of
	// the cycle.
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Record()
	s.Run(60 * time.Second)
	lats := s.ActuationLatencies()
	if len(lats) == 0 {
		t.Fatal("no latencies measured")
	}
	bound := 250 * time.Millisecond / 3
	for _, l := range lats {
		if l > bound {
			t.Fatalf("actuation latency %v exceeds %v", l, bound)
		}
	}
}

func TestOperationSwitchBlocksStaleController(t *testing.T) {
	// After failover the gateway must deny Ctrl-A's commands.
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(30 * time.Second)
	s.InjectPrimaryFault()
	s.Run(60 * time.Second)
	if s.ActiveController() != GasCtrlBID {
		t.Skip("failover did not complete in window")
	}
	denied := s.GW.Stats().ActuationsDenied
	if denied == 0 {
		// Ctrl-A may already be Indicator (not sending); that is also
		// acceptable — verify it is no longer actuating at all.
		if s.Cell.Node(GasCtrlAID).Role(LTSTaskID) == RoleActive {
			t.Fatal("old primary still active and never denied")
		}
	}
}

func TestGasPlantUnderPacketLoss(t *testing.T) {
	cfg := DefaultGasPlantConfig()
	cfg.PER = 0.1
	s := newGasPlant(t, cfg)
	s.Run(120 * time.Second)
	level := s.Plant.LTSLevelPct()
	if level < 35 || level > 65 {
		t.Fatalf("closed loop under 10%% PER drifted to %.1f", level)
	}
}

// TestGasPlantPERValidation: NewGasPlant passes its PER to the cell's
// CellSpec, whose range check also refuses NaN.
func TestGasPlantPERValidation(t *testing.T) {
	for _, tc := range []struct {
		per float64
		ok  bool
	}{
		{0, true},
		{0.2, true},
		{1, true},
		{-0.1, false},
		{1.5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		cfg := DefaultGasPlantConfig()
		cfg.PER = tc.per
		if _, err := NewGasPlant(cfg); (err == nil) != tc.ok {
			t.Errorf("PER %v: err = %v, want ok %v", tc.per, err, tc.ok)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (float64, NodeID) {
		s := newGasPlant(t, DefaultGasPlantConfig())
		if _, err := s.RunFig6(60*time.Second, 200*time.Second); err != nil {
			t.Fatal(err)
		}
		return s.Plant.LTSLevelPct(), s.ActiveController()
	}
	l1, a1 := run()
	l2, a2 := run()
	if l1 != l2 || a1 != a2 {
		t.Fatalf("same seed diverged: %.6f/%v vs %.6f/%v", l1, a1, l2, a2)
	}
}

func TestCellAddNodeRuntime(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(10 * time.Second)
	const newID NodeID = 9
	node, err := s.Cell.AddNodeRuntime(newID)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	if node == nil {
		t.Fatal("nil node")
	}
	h := s.Cell.Node(GasHeadID).Head()
	if h.Stats().Joins != 1 {
		t.Fatal("join not registered at head")
	}
	// Migrate the task replica to the new node; it becomes a live
	// backup.
	if err := s.Cell.Node(GasCtrlAID).MigrateTask(LTSTaskID, newID); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	if node.Stats().MigrationsIn != 1 {
		t.Fatal("capacity-expansion migration failed")
	}
}

func TestVMBackedGasPlant(t *testing.T) {
	cfg := DefaultGasPlantConfig()
	cfg.UseVM = true
	s := newGasPlant(t, cfg)
	s.Run(60 * time.Second)
	if s.GW.Stats().ActuationsOK == 0 {
		t.Fatal("VM-backed controller produced no actuations")
	}
	// VM law is proportional-only; the level should still be pulled
	// toward the setpoint band.
	level := s.Plant.LTSLevelPct()
	if level < 30 || level > 70 {
		t.Fatalf("VM-controlled level = %.1f", level)
	}
}
