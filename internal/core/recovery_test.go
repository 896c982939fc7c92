package core

import (
	"testing"
	"time"

	"evm/internal/rtlink"
	"evm/internal/wire"
)

func TestRecoveredPrimaryDemotedToBackup(t *testing.T) {
	// The primary crashes, the backup takes over; later the old primary
	// recovers still believing it is Active. The head must demote it so
	// the component has exactly one master.
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	r.nodes[ctrlA].Link().Radio().Fail()
	r.run(t, 15*time.Second)
	if r.nodes[ctrlB].Role("lts") != wire.RoleActive {
		t.Fatal("backup did not take over")
	}
	// Recover the old primary: it missed the role change, so its local
	// role is still Active.
	r.nodes[ctrlA].Link().Radio().Recover()
	if r.nodes[ctrlA].Role("lts") != wire.RoleActive {
		t.Skip("old primary role not stale — nothing to correct")
	}
	r.run(t, 10*time.Second)
	if got := r.nodes[ctrlA].Role("lts"); got != wire.RoleBackup {
		t.Fatalf("recovered primary role = %v, want demotion to backup", got)
	}
	if r.nodes[ctrlB].Role("lts") != wire.RoleActive {
		t.Fatal("current master disturbed by recovery")
	}
}

func TestTemporalConditionalDiscardsStaleInput(t *testing.T) {
	cfg := defaultCfg()
	cfg.Tasks[0].MaxInputAge = 100 * time.Millisecond
	r := newRig(t, cfg)
	r.ticker.Stop() // drive sensors by hand
	r.run(t, 2*time.Second)

	node := r.nodes[ctrlA]
	cyclesBefore := node.Stats().CyclesRun

	// A fresh snapshot runs a cycle.
	fresh, err := wire.SensorSnapshot{
		At:       r.eng.Now(),
		Readings: []wire.SensorReading{{Port: 0, Value: 50}},
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	node.onMessage(rtlink.Message{Src: gwID, Kind: wire.KindSensor, Payload: fresh})
	if node.Stats().CyclesRun != cyclesBefore+1 {
		t.Fatalf("fresh input did not run a cycle (%d -> %d)", cyclesBefore, node.Stats().CyclesRun)
	}

	// A stale snapshot (older than MaxInputAge) must be discarded.
	stale, err := wire.SensorSnapshot{
		At:       r.eng.Now() - time.Second,
		Readings: []wire.SensorReading{{Port: 0, Value: 50}},
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	node.onMessage(rtlink.Message{Src: gwID, Kind: wire.KindSensor, Payload: stale})
	if node.Stats().CyclesRun != cyclesBefore+1 {
		t.Fatal("stale input ran a cycle")
	}
	if node.Stats().StaleInputs != 1 {
		t.Fatalf("StaleInputs = %d, want 1", node.Stats().StaleInputs)
	}

	// Un-timestamped snapshots (At=0) are treated as fresh.
	legacy, err := wire.SensorSnapshot{Readings: []wire.SensorReading{{Port: 0, Value: 50}}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	node.onMessage(rtlink.Message{Src: gwID, Kind: wire.KindSensor, Payload: legacy})
	if node.Stats().CyclesRun != cyclesBefore+2 {
		t.Fatal("untimestamped input not treated as fresh")
	}
}

func TestActiveStateReplicationResyncsBackup(t *testing.T) {
	cfg := defaultCfg()
	cfg.Tasks[0].ReplicateEvery = 4
	r := newRig(t, cfg)
	r.run(t, 3*time.Second)
	// Corrupt the backup's state: passive observation alone would leave
	// it diverged; active replication must pull it back in sync.
	bad, err := NewPIDLogic(PIDParams{Kp: 9, Ki: 9, OutMin: 0, OutMax: 100,
		Setpoint: 10, CutoffHz: 0.4, RateHz: 4})
	if err != nil {
		t.Fatal(err)
	}
	badState, err := bad.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.nodes[ctrlB].replica("lts").logic.Restore(badState); err != nil {
		t.Fatal(err)
	}
	r.run(t, 5*time.Second)
	snapA, err := r.nodes[ctrlA].replica("lts").logic.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := r.nodes[ctrlB].replica("lts").logic.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The replicated snapshot lags the primary by at most a few cycles,
	// so compare output trajectories rather than raw snapshot bytes.
	outA, _ := r.nodes[ctrlA].LastOutput("lts")
	outB, _ := r.nodes[ctrlB].LastOutput("lts")
	diff := outA - outB
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("backup not resynced: outputs %f vs %f", outA, outB)
	}
	if len(snapA) != len(snapB) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(snapA), len(snapB))
	}
}

func TestStateSyncRejectedFromNonPrimary(t *testing.T) {
	cfg := defaultCfg()
	cfg.Tasks[0].ReplicateEvery = 4
	r := newRig(t, cfg)
	r.run(t, 3*time.Second)
	// Craft a poisoned state-sync claiming to come from the spare (not
	// the primary): the backup must ignore it.
	bad, err := NewPIDLogic(PIDParams{Kp: 9, Ki: 9, OutMin: 0, OutMax: 100,
		Setpoint: 10, CutoffHz: 0.4, RateHz: 4})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bad.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.StateXfer{TaskID: "lts", Seq: 999, Blob: blob}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	node := r.nodes[ctrlB]
	node.onMessage(rtlink.Message{Src: spareID, Kind: wire.KindStateSync, Payload: payload})
	// Setpoint must still be 50: next output close to the primary's.
	r.run(t, 2*time.Second)
	outA, _ := r.nodes[ctrlA].LastOutput("lts")
	outB, _ := node.LastOutput("lts")
	diff := outA - outB
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("poisoned state sync applied: %f vs %f", outA, outB)
	}
}

func TestDeterministicReplicaOrder(t *testing.T) {
	// With two tasks per node the behavior-visible iteration order must
	// be stable across runs (map-order independence).
	build := func() (float64, float64) {
		cfg := defaultCfg()
		second := testSpec()
		second.ID = "aux"
		second.ActuatorPort = 11
		cfg.Tasks = append(cfg.Tasks, second)
		r := newRig(t, cfg)
		r.run(t, 20*time.Second)
		a, _ := r.nodes[ctrlA].LastOutput("lts")
		b, _ := r.nodes[ctrlA].LastOutput("aux")
		return a, b
	}
	a1, b1 := build()
	a2, b2 := build()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same-seed runs diverged: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}
