package core

import (
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/sim"
	"evm/internal/wire"
)

// Node IDs used by the test rig.
const (
	gwID    radio.NodeID = 1
	ctrlA   radio.NodeID = 2
	ctrlB   radio.NodeID = 3
	headID  radio.NodeID = 4
	spareID radio.NodeID = 5
)

// rig is a miniature Virtual Component: a sensor-broadcasting gateway
// stub, two candidate controllers, a separate head and a spare node.
type rig struct {
	eng        *sim.Engine
	net        *rtlink.Network
	med        *radio.Medium
	nodes      map[radio.NodeID]*Node
	gwLink     *rtlink.Link
	actuations []actRecord
	sensor     func() float64
	ticker     *sim.Ticker
	cfg        VCConfig
}

type actRecord struct {
	src radio.NodeID
	act wire.Actuate
	at  time.Duration
}

func pidFactory() (TaskLogic, error) {
	return NewPIDLogic(PIDParams{
		Kp: 2, Ki: 0.5, Kd: 0,
		OutMin: 0, OutMax: 100,
		Setpoint: 50,
		CutoffHz: 0.4, RateHz: 4,
	})
}

func testSpec() TaskSpec {
	return TaskSpec{
		ID:              "lts",
		SensorPort:      0,
		ActuatorPort:    10,
		Period:          250 * time.Millisecond,
		WCET:            5 * time.Millisecond,
		Candidates:      []radio.NodeID{ctrlA, ctrlB},
		DeviationTol:    5,
		DeviationWindow: 3,
		SilenceWindow:   8,
		MakeLogic:       pidFactory,
	}
}

// newMesh builds a loss-free RT-Link full mesh over ids, two TX slots
// per node, its radios 3 m apart in rows of eight, all in range.
func newMesh(tb testing.TB, ids []radio.NodeID) (*sim.Engine, *radio.Medium, *rtlink.Network) {
	tb.Helper()
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	med := radio.NewMedium(eng, sim.NewRNG(77), rcfg)
	for i, id := range ids {
		pos := radio.Position{X: float64(i % 8 * 3), Y: float64(i / 8 * 3)}
		if _, err := med.Attach(id, pos, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
			tb.Fatal(err)
		}
	}
	lcfg := rtlink.DefaultConfig()
	sched, err := rtlink.BuildMeshScheduleK(ids, lcfg, 2)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := rtlink.NewNetwork(med, lcfg, sched)
	if err != nil {
		tb.Fatal(err)
	}
	return eng, med, net
}

func newRig(t *testing.T, cfg VCConfig) *rig {
	t.Helper()
	ids := []radio.NodeID{gwID, ctrlA, ctrlB, headID, spareID}
	eng, med, net := newMesh(t, ids)
	r := &rig{
		eng:    eng,
		net:    net,
		med:    med,
		nodes:  make(map[radio.NodeID]*Node),
		sensor: func() float64 { return 50 },
		cfg:    cfg,
	}
	var runtimes []*Node
	for _, id := range ids {
		link, err := net.Join(id)
		if err != nil {
			t.Fatal(err)
		}
		if id == gwID {
			r.gwLink = link
			link.SetHandler(func(m rtlink.Message) {
				if m.Kind == wire.KindActuate {
					act, err := wire.DecodeActuateInterned(m.Payload, nil)
					if err == nil {
						r.actuations = append(r.actuations, actRecord{src: m.Src, act: act, at: eng.Now()})
					}
				}
			})
			continue
		}
		node, err := NewNode(net, link, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.nodes[id] = node
		runtimes = append(runtimes, node)
	}
	StartWatchdogs(runtimes)
	// The gateway stub broadcasts the sensor snapshot every 250 ms.
	r.ticker = eng.Every(250*time.Millisecond, func() {
		payload, err := wire.SensorSnapshot{Readings: []wire.SensorReading{{Port: 0, Value: r.sensor()}}}.Encode()
		if err != nil {
			return
		}
		_ = r.gwLink.Send(rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindSensor, Payload: payload})
	})
	net.Start()
	return r
}

func defaultCfg() VCConfig {
	return VCConfig{
		Name:         "test-vc",
		Head:         headID,
		Gateway:      gwID,
		Tasks:        []TaskSpec{testSpec()},
		DormantAfter: 2 * time.Second,
	}
}

func (r *rig) run(t *testing.T, d time.Duration) {
	t.Helper()
	_ = r.eng.RunUntil(r.eng.Now() + d)
}

func (r *rig) actuationsFrom(id radio.NodeID) int {
	n := 0
	for _, a := range r.actuations {
		if a.src == id {
			n++
		}
	}
	return n
}

func TestSteadyStateOnlyPrimaryActuates(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 10*time.Second)
	if r.actuationsFrom(ctrlA) == 0 {
		t.Fatal("primary never actuated")
	}
	if r.actuationsFrom(ctrlB) != 0 {
		t.Fatal("backup actuated in steady state")
	}
	a := r.nodes[ctrlA]
	b := r.nodes[ctrlB]
	if a.Role("lts") != wire.RoleActive || b.Role("lts") != wire.RoleBackup {
		t.Fatalf("roles: A=%v B=%v", a.Role("lts"), b.Role("lts"))
	}
	if a.Stats().HealthSent == 0 || b.Stats().HealthSent == 0 {
		t.Fatal("health assessments not flowing")
	}
	if b.Stats().FaultsReported != 0 {
		t.Fatal("false fault report in steady state")
	}
}

func TestBackupComputesInLockstep(t *testing.T) {
	// Passive state sharing: the backup runs the same law on the same
	// inputs, so its outputs track the primary's.
	r := newRig(t, defaultCfg())
	r.run(t, 10*time.Second)
	outA, okA := r.nodes[ctrlA].LastOutput("lts")
	outB, okB := r.nodes[ctrlB].LastOutput("lts")
	if !okA || !okB {
		t.Fatal("missing outputs")
	}
	diff := outA - outB
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		t.Fatalf("backup diverged: A=%f B=%f", outA, outB)
	}
}

func TestComputeFaultTriggersFailover(t *testing.T) {
	// The Fig. 6 scenario: the primary starts emitting a wrong output;
	// the backup detects the deviation, reports it, and the head
	// arbitrates the switch.
	r := newRig(t, defaultCfg())
	var failoverAt time.Duration
	var from, to radio.NodeID
	r.nodes[headID].Head().SetFailoverSink(func(task string, f, tn radio.NodeID) {
		failoverAt = r.eng.Now()
		from, to = f, tn
	})
	r.run(t, 5*time.Second)
	faultAt := r.eng.Now()
	r.nodes[ctrlA].InjectComputeFault("lts", 75)
	r.run(t, 10*time.Second)

	if failoverAt == 0 {
		t.Fatal("no failover occurred")
	}
	if from != ctrlA || to != ctrlB {
		t.Fatalf("failover %v -> %v, want A -> B", from, to)
	}
	detect := failoverAt - faultAt
	// 3-cycle deviation window at 250 ms plus messaging: ~1-3 s.
	if detect > 4*time.Second {
		t.Fatalf("failover took %v", detect)
	}
	if r.nodes[ctrlB].Role("lts") != wire.RoleActive {
		t.Fatalf("B role = %v after failover", r.nodes[ctrlB].Role("lts"))
	}
	// Actuations now come from B with healthy (non-75) outputs.
	before := len(r.actuations)
	r.run(t, 3*time.Second)
	for _, a := range r.actuations[before:] {
		if a.src == ctrlB && a.act.Value < 70 {
			return // healthy output restored
		}
	}
	t.Fatal("no healthy actuations from the new primary")
}

func TestDemotedPrimaryGoesIndicatorThenDormant(t *testing.T) {
	r := newRig(t, defaultCfg())
	fired := false
	r.nodes[headID].Head().SetFailoverSink(func(string, radio.NodeID, radio.NodeID) { fired = true })
	r.run(t, 3*time.Second)
	r.nodes[ctrlA].InjectComputeFault("lts", 75)
	for i := 0; i < 20 && !fired; i++ {
		r.run(t, 500*time.Millisecond)
	}
	if !fired {
		t.Fatal("no failover")
	}
	r.run(t, 500*time.Millisecond) // let the Indicator role change land
	if got := r.nodes[ctrlA].Role("lts"); got != wire.RoleIndicator {
		t.Fatalf("old primary role = %v, want indicator", got)
	}
	r.run(t, 3*time.Second) // DormantAfter = 2s
	if got := r.nodes[ctrlA].Role("lts"); got != wire.RoleDormant {
		t.Fatalf("old primary role = %v, want dormant", got)
	}
}

func TestSilentCrashTriggersFailover(t *testing.T) {
	r := newRig(t, defaultCfg())
	fired := false
	r.nodes[headID].Head().SetFailoverSink(func(string, radio.NodeID, radio.NodeID) { fired = true })
	r.run(t, 5*time.Second)
	r.nodes[ctrlA].Link().Radio().Fail()
	r.run(t, 15*time.Second)
	if !fired {
		t.Fatal("silent crash not detected")
	}
	if r.nodes[ctrlB].Role("lts") != wire.RoleActive {
		t.Fatalf("backup role = %v after crash failover", r.nodes[ctrlB].Role("lts"))
	}
	if r.actuationsFrom(ctrlB) == 0 {
		t.Fatal("new primary not actuating")
	}
}

func TestStateMigrationToSpareNode(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	migrated := ""
	r.nodes[spareID].SetMigrationSink(func(task string, _ radio.NodeID) { migrated = task })
	if err := r.nodes[ctrlA].MigrateTask("lts", spareID); err != nil {
		t.Fatal(err)
	}
	r.run(t, 3*time.Second)
	if migrated != "lts" {
		t.Fatal("migration did not complete")
	}
	if r.nodes[spareID].Role("lts") != wire.RoleBackup {
		t.Fatalf("spare role = %v, want backup", r.nodes[spareID].Role("lts"))
	}
	if r.nodes[spareID].Stats().MigrationsIn != 1 {
		t.Fatal("MigrationsIn not counted")
	}
	// The spare now participates in control cycles.
	r.run(t, 2*time.Second)
	if _, ok := r.nodes[spareID].LastOutput("lts"); !ok {
		t.Fatal("migrated replica not computing")
	}
}

func TestHeadCommandedMigration(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 3*time.Second)
	r.nodes[headID].Head().CommandMigration("lts", ctrlA, spareID)
	r.run(t, 3*time.Second)
	if r.nodes[spareID].Stats().MigrationsIn != 1 {
		t.Fatal("head-commanded migration did not land")
	}
	if r.nodes[ctrlA].Stats().MigrationsOut != 1 {
		t.Fatal("holder did not record migration out")
	}
}

func TestMigratedStateMatchesSource(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	// Stop cycles so state stays frozen during comparison.
	r.ticker.Stop()
	r.run(t, time.Second)
	if err := r.nodes[ctrlA].MigrateTask("lts", spareID); err != nil {
		t.Fatal(err)
	}
	r.run(t, 3*time.Second)
	src, err := r.nodes[ctrlA].replica("lts").logic.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := r.nodes[spareID].replica("lts").logic.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(src) != string(dst) {
		t.Fatal("migrated state differs from source")
	}
}

func TestRoleChangeStaleSeqIgnored(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 2*time.Second)
	n := r.nodes[ctrlB]
	apply := func(seq uint32, role wire.Role) {
		payload, err := wire.RoleChange{Node: uint16(ctrlB), TaskID: "lts", Role: role, Seq: seq}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		n.onRoleChange(rtlink.Message{Src: headID, Kind: wire.KindRoleChange, Payload: payload})
	}
	apply(10, wire.RoleActive)
	if n.Role("lts") != wire.RoleActive {
		t.Fatal("role change not applied")
	}
	apply(5, wire.RoleDormant) // stale
	if n.Role("lts") != wire.RoleActive {
		t.Fatal("stale role change applied")
	}
}

func TestModeChangeDisablesTask(t *testing.T) {
	cfg := defaultCfg()
	second := testSpec()
	second.ID = "aux"
	second.SensorPort = 0
	second.ActuatorPort = 11
	cfg.Tasks = append(cfg.Tasks, second)
	r := newRig(t, cfg)
	for _, n := range r.nodes {
		n.SetModeTasks(1, []string{"lts"}) // mode 1: aux off
	}
	r.run(t, 3*time.Second)
	r.nodes[headID].Head().SetMode(1, 2)
	r.run(t, 3*time.Second)
	mark := len(r.actuations)
	r.run(t, 3*time.Second)
	for _, a := range r.actuations[mark:] {
		if a.act.TaskID == "aux" {
			t.Fatal("disabled task still actuating after mode change")
		}
	}
	// lts still runs.
	found := false
	for _, a := range r.actuations[mark:] {
		if a.act.TaskID == "lts" {
			found = true
		}
	}
	if !found {
		t.Fatal("enabled task stopped across mode change")
	}
	if r.nodes[ctrlA].Mode() != 1 {
		t.Fatalf("mode = %d, want 1", r.nodes[ctrlA].Mode())
	}
}

func TestEnergyFaultProactiveMigration(t *testing.T) {
	r := newRig(t, defaultCfg())
	fired := false
	r.nodes[headID].Head().SetFailoverSink(func(string, radio.NodeID, radio.NodeID) { fired = true })
	r.run(t, 2*time.Second)
	// Drain the primary's battery below the 5% threshold.
	b := r.nodes[ctrlA].Link().Radio().Battery()
	b.Drain(2600*0.97, time.Hour)
	r.run(t, 3*time.Second)
	if !fired {
		t.Fatal("low battery did not trigger proactive failover")
	}
	if r.nodes[ctrlB].Role("lts") != wire.RoleActive {
		t.Fatal("backup not promoted on energy fault")
	}
}

func TestQoSEvaluation(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 3*time.Second)
	nodes := []*Node{r.nodes[ctrlA], r.nodes[ctrlB], r.nodes[headID], r.nodes[spareID]}
	rep := EvaluateQoS(r.cfg, nodes)
	if rep.CoverageRatio != 1 || rep.Redundant != 1 {
		t.Fatalf("steady QoS = %+v", rep)
	}
	// Kill both candidates: coverage collapses.
	r.nodes[ctrlA].Link().Radio().Fail()
	r.nodes[ctrlB].Link().Radio().Fail()
	rep = EvaluateQoS(r.cfg, nodes)
	if rep.CoverageRatio != 0 {
		t.Fatalf("QoS after double failure = %+v", rep)
	}
}

func TestReoptimizeAfterNodeLoss(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	// Kill the current primary; the silent-fault watchdog moves the
	// master, and a subsequent reoptimization must NOT move it back to
	// the dead node.
	r.nodes[ctrlA].Link().Radio().Fail()
	r.run(t, 5*time.Second)
	active, ok := r.nodes[headID].Head().ActiveNode("lts")
	if !ok || active == ctrlA {
		t.Fatalf("master still on dead node after crash: %v", active)
	}
	moved := r.nodes[headID].Head().Reoptimize(sim.NewRNG(5))
	if moved != 0 {
		t.Fatalf("reoptimize churned a correct assignment (%d moves)", moved)
	}
	active, _ = r.nodes[headID].Head().ActiveNode("lts")
	if active == ctrlA {
		t.Fatal("reoptimize moved the master back to a dead node")
	}
}

func TestReoptimizeRestoresPreferredPlacement(t *testing.T) {
	// Park the master on a non-candidate spare, then let runtime
	// optimization pull it back to the preferred (cheapest) candidate.
	r := newRig(t, defaultCfg())
	r.run(t, 5*time.Second)
	h := r.nodes[headID].Head()
	h.promote("lts", spareID, ctrlA)
	r.run(t, 2*time.Second)
	if a, _ := h.ActiveNode("lts"); a != spareID {
		t.Fatalf("setup failed: active = %v", a)
	}
	moved := h.Reoptimize(sim.NewRNG(5))
	r.run(t, 2*time.Second)
	if moved == 0 {
		t.Fatal("reoptimize left the master on an expensive non-candidate")
	}
	if a, _ := h.ActiveNode("lts"); a != ctrlA {
		t.Fatalf("reoptimize chose %v, want preferred candidate %v", a, ctrlA)
	}
}

func TestJoinExpandsMembership(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.run(t, 2*time.Second)
	payload, err := wire.Join{Node: uint16(spareID), CPUCapacity: 0.8, Battery: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.nodes[spareID].Link().Send(rtlink.Message{Dst: headID, Kind: wire.KindJoin, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	r.run(t, 2*time.Second)
	h := r.nodes[headID].Head()
	if h.Stats().Joins != 1 {
		t.Fatal("join not processed")
	}
	found := false
	for _, m := range h.Members() {
		if m == spareID {
			found = true
		}
	}
	if !found {
		t.Fatal("spare not in membership")
	}
}

func TestLossyChannelStillFailsOver(t *testing.T) {
	// With 20% packet loss the failover must still complete, just
	// possibly slower.
	r := newRig(t, defaultCfg())
	r.med.ForcePER(0.2)
	fired := false
	r.nodes[headID].Head().SetFailoverSink(func(string, radio.NodeID, radio.NodeID) { fired = true })
	r.run(t, 5*time.Second)
	r.nodes[ctrlA].InjectComputeFault("lts", 75)
	r.run(t, 30*time.Second)
	if !fired {
		t.Fatal("failover lost under 20% PER")
	}
}

// A member decodes a health bundle only when its sender is the primary
// one of its replicas observes; any other bundle, truncated or not, is
// dropped without touching the node. Once a role change makes the sender
// that primary, the same bundle is decoded and applied.
func TestHealthBundleFilteredBySender(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.ticker.Stop() // no sensor traffic, so no other health bundles
	r.run(t, time.Second)
	b := r.nodes[ctrlB]
	rep := b.replica("lts")
	full, err := wire.HealthBundle{Node: uint16(spareID), Battery: 1, Records: []wire.HealthRecord{
		{TaskID: "lts", Role: wire.RoleActive, Seq: 7, Output: 42, HasOut: true},
	}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(payload []byte) {
		b.onMessage(rtlink.Message{Src: spareID, Dst: radio.Broadcast, Kind: wire.KindHealth, Payload: payload})
	}
	type observed struct {
		at     time.Duration
		out    float64
		have   bool
		bundle uint16
	}
	seen := func() observed {
		return observed{rep.lastPrimaryAt, rep.lastPrimaryOut, rep.havePrimary, b.healthIn.Node}
	}

	was := seen()
	for _, p := range [][]byte{full, full[:1], full[:len(full)-1]} {
		deliver(p)
		if got := seen(); got != was {
			t.Fatalf("bundle of %d bytes from an unobserved sender: %+v, want %+v untouched", len(p), got, was)
		}
	}

	rc, err := wire.RoleChange{Node: uint16(spareID), TaskID: "lts", Role: wire.RoleActive, Seq: 100}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b.onMessage(rtlink.Message{Src: headID, Kind: wire.KindRoleChange, Payload: rc})
	r.run(t, 100*time.Millisecond)
	was = seen()
	deliver(full[:len(full)-1]) // a truncated bundle fails to decode: nothing applies
	if got := seen(); got.at != was.at || got.have {
		t.Fatalf("truncated bundle from the primary applied: %+v, was %+v", got, was)
	}
	deliver(full)
	if want := (observed{r.eng.Now(), 42, true, uint16(spareID)}); seen() != want {
		t.Fatalf("bundle from the primary: %+v, want %+v", seen(), want)
	}
}
