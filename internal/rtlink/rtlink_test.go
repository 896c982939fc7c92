package rtlink

import (
	"bytes"
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/sim"
)

// testNet builds a mesh network of n nodes with a perfect channel.
func testNet(t testing.TB, n int) (*sim.Engine, *Network) {
	t.Helper()
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	med := radio.NewMedium(eng, sim.NewRNG(7), rcfg)
	ids := make([]radio.NodeID, 0, n)
	for i := 1; i <= n; i++ {
		id := radio.NodeID(i)
		if _, err := med.Attach(id, radio.Position{X: float64(i), Y: 0}, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	cfg := DefaultConfig()
	sched, err := BuildMeshSchedule(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(med, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if _, err := net.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	return eng, net
}

func TestUnicastOneFrame(t *testing.T) {
	eng, net := testNet(t, 3)
	var got []Message
	net.Link(2).SetHandler(func(m Message) { got = append(got, kept(m)) })
	if err := net.Link(1).Send(Message{Dst: 2, Kind: 9, Payload: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration() * 2)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	if got[0].Kind != 9 || string(got[0].Payload) != "ping" || got[0].Src != 1 {
		t.Fatalf("bad message: %+v", got[0])
	}
}

func TestBroadcastMesh(t *testing.T) {
	eng, net := testNet(t, 4)
	count := 0
	for i := 2; i <= 4; i++ {
		net.Link(radio.NodeID(i)).SetHandler(func(Message) { count++ })
	}
	if err := net.Link(1).Send(Message{Dst: radio.Broadcast, Payload: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration() * 2)
	if count != 3 {
		t.Fatalf("broadcast delivered to %d, want 3", count)
	}
}

func TestFragmentationLargeMessage(t *testing.T) {
	eng, net := testNet(t, 2)
	payload := make([]byte, 1000) // ~11 fragments at 96B
	for i := range payload {
		payload[i] = byte(i)
	}
	var got Message
	done := false
	net.Link(2).SetHandler(func(m Message) { got = kept(m); done = true })
	if err := net.Link(1).Send(Message{Dst: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	// 11 fragments, 1 owned slot per frame -> 11 frames.
	_ = eng.RunUntil(net.Config().FrameDuration() * 13)
	if !done {
		t.Fatal("large message not delivered")
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("payload corrupted in reassembly")
	}
}

func TestFragmentMath(t *testing.T) {
	msg := Message{Src: 1, Dst: 2, Kind: 3, Payload: make([]byte, 250)}
	frags, err := appendFragments(nil, msg, 42, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("fragments = %d, want 3", len(frags))
	}
	if len(frags[2].chunk) != 50 {
		t.Fatalf("tail chunk = %d, want 50", len(frags[2].chunk))
	}
	// Empty payload still produces one fragment.
	frags, err = appendFragments(nil, Message{Dst: 2}, 1, 100)
	if err != nil || len(frags) != 1 {
		t.Fatalf("empty message fragments = %d err %v, want 1", len(frags), err)
	}
	// Oversize message rejected.
	if _, err := appendFragments(nil, Message{Payload: make([]byte, 100*256)}, 1, 100); err == nil {
		t.Fatal("oversize message accepted")
	}
}

func TestFragmentRoundTrip(t *testing.T) {
	f := fragment{src: 10, dst: 20, kind: 5, msgID: 999, idx: 3, total: 7, chunk: []byte("data")}
	got, err := decodeFragment(f.appendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.src != 10 || got.dst != 20 || got.kind != 5 || got.msgID != 999 ||
		got.idx != 3 || got.total != 7 || string(got.chunk) != "data" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := decodeFragment([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestReassemblerOutOfOrderAndDup(t *testing.T) {
	r := &reassembler{}
	mk := func(idx uint8) fragment {
		return fragment{src: 1, dst: 2, msgID: 5, idx: idx, total: 3, chunk: []byte{idx}}
	}
	if _, done := r.add(mk(2)); done {
		t.Fatal("early completion")
	}
	if _, done := r.add(mk(2)); done { // duplicate
		t.Fatal("duplicate completed message")
	}
	if _, done := r.add(mk(0)); done {
		t.Fatal("early completion")
	}
	msg, done := r.add(mk(1))
	if !done {
		t.Fatal("not completed")
	}
	if !bytes.Equal(msg.Payload, []byte{0, 1, 2}) {
		t.Fatalf("payload = %v", msg.Payload)
	}
}

// TestReassemblerEvictsStalePartial: a message that lost a fragment must
// not linger for the life of the run, and once the source's 16-bit message
// ID wraps, its stale chunks must not splice into the new message that
// reuses the ID.
func TestReassemblerEvictsStalePartial(t *testing.T) {
	r := &reassembler{}
	frag := func(id uint16, idx uint8, b byte) fragment {
		return fragment{src: 1, dst: 2, kind: 3, msgID: id, idx: idx, total: 3, chunk: []byte{b}}
	}
	// Message 7 loses its middle fragment.
	r.add(frag(7, 0, 'a'))
	r.add(frag(7, 2, 'c'))
	for i := 1; i <= 1<<16; i++ {
		id := uint16(7 + i)
		var got Message
		var done bool
		for idx := uint8(0); idx < 3; idx++ {
			got, done = r.add(frag(id, idx, 'x'+idx))
		}
		if !done || !bytes.Equal(got.Payload, []byte("xyz")) {
			t.Fatalf("message %d (id %d): done=%v payload %q, want \"xyz\"", i, id, done, got.Payload)
		}
		if n := len(r.partial[1]); n > 1 {
			t.Fatalf("message %d: %d partials held for one source", i, n)
		}
	}
	if len(r.partial) != 0 {
		t.Fatalf("stale partial never evicted: %d sources still held", len(r.partial))
	}
}

// TestReassemblerToleratesInterleaving: a partial survives while newer
// messages from the same source complete, as long as it stays within the
// eviction window (relayed unicast lagging behind direct broadcasts).
func TestReassemblerToleratesInterleaving(t *testing.T) {
	r := &reassembler{}
	frag := func(id uint16, idx, total uint8) fragment {
		return fragment{src: 1, dst: 2, msgID: id, idx: idx, total: total, chunk: []byte{idx}}
	}
	r.add(frag(65530, 0, 2))
	for id := uint16(65531); id != 100; id++ { // wraps past zero
		if _, done := r.add(frag(id, 0, 1)); !done {
			t.Fatalf("single-fragment message %d not delivered", id)
		}
	}
	msg, done := r.add(frag(65530, 1, 2))
	if !done || !bytes.Equal(msg.Payload, []byte{0, 1}) {
		t.Fatalf("lagging message: done=%v payload %v", done, msg.Payload)
	}
}

func TestMultiHopRelay(t *testing.T) {
	// Line topology 1-2-3 with node 3 out of radio range of node 1.
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	rcfg.RangeM = 15
	med := radio.NewMedium(eng, sim.NewRNG(7), rcfg)
	for i, x := range []float64{0, 10, 20} {
		if _, err := med.Attach(radio.NodeID(i+1), radio.Position{X: x}, nil, radio.DefaultEnergyModel()); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	sched, err := BuildLineSchedule([]radio.NodeID{1, 2, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(med, cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := net.Join(radio.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	net.Link(1).SetRoute(3, 2)
	net.Link(2).SetRoute(3, 3)
	var got []Message
	net.Link(3).SetHandler(func(m Message) { got = append(got, kept(m)) })
	if err := net.Link(1).Send(Message{Dst: 3, Payload: []byte("hop")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(cfg.FrameDuration() * 4)
	if len(got) != 1 {
		t.Fatalf("relayed delivery = %d, want 1", len(got))
	}
	if got[0].Src != 1 || string(got[0].Payload) != "hop" {
		t.Fatalf("bad relayed message: %+v", got[0])
	}
	if net.Link(2).Stats().FragsRelayed != 1 {
		t.Fatalf("relay count = %d, want 1", net.Link(2).Stats().FragsRelayed)
	}
}

func TestFailedOwnerSlotSilent(t *testing.T) {
	eng, net := testNet(t, 2)
	got := 0
	net.Link(2).SetHandler(func(Message) { got++ })
	if err := net.Link(1).Send(Message{Dst: 2, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	net.Link(1).Radio().Fail()
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration() * 3)
	if got != 0 {
		t.Fatal("failed node transmitted")
	}
	if err := net.Link(1).Send(Message{Dst: 2}); err == nil {
		t.Fatal("send on failed node accepted")
	}
}

func TestQueueBound(t *testing.T) {
	_, net := testNet(t, 2)
	l := net.Link(1)
	l.MaxQueue = 2
	if err := l.Send(Message{Dst: 2, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Message{Dst: 2, Payload: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(Message{Dst: 2, Payload: []byte("c")}); err == nil {
		t.Fatal("queue overflow accepted")
	}
	if l.Stats().QueueDrops != 1 {
		t.Fatalf("QueueDrops = %d, want 1", l.Stats().QueueDrops)
	}
}

func TestLatencyWithinOneFrame(t *testing.T) {
	// E5 invariant: a message queued before the owner's slot is delivered
	// within the same frame; worst case latency < 2 frame durations.
	eng, net := testNet(t, 6)
	var deliveredAt time.Duration
	net.Link(6).SetHandler(func(Message) { deliveredAt = eng.Now() })
	sentAt := time.Duration(0)
	if err := net.Link(1).Send(Message{Dst: 6, Payload: []byte("ctl")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration() * 2)
	if deliveredAt == 0 {
		t.Fatal("not delivered")
	}
	lat := deliveredAt - sentAt
	if lat > net.Config().FrameDuration() {
		t.Fatalf("latency %v exceeds one frame %v", lat, net.Config().FrameDuration())
	}
}

func TestDutyCycleEnergySavings(t *testing.T) {
	// A node in a 50-slot frame owning 1 slot and listening in a few
	// others must consume far less than an always-on radio.
	eng, net := testNet(t, 3)
	net.Start()
	_ = eng.RunUntil(10 * time.Second)
	consumed := net.Link(1).Radio().EnergyConsumedMAH()
	alwaysOn := radio.DefaultEnergyModel().RXCurrentMA * (10.0 / 3600.0)
	if consumed >= alwaysOn/2 {
		t.Fatalf("TDMA node consumed %.4f mAh, always-on %.4f — no duty-cycle savings", consumed, alwaysOn)
	}
	if consumed <= 0 {
		t.Fatal("no energy consumed at all")
	}
}

func TestActiveFrameEveryReducesEnergy(t *testing.T) {
	build := func(every int) float64 {
		eng := sim.New()
		rcfg := radio.DefaultConfig()
		rcfg.RefPER = 0
		rcfg.Burst = radio.GilbertElliott{}
		med := radio.NewMedium(eng, sim.NewRNG(7), rcfg)
		ids := []radio.NodeID{1, 2}
		for i, id := range ids {
			_, err := med.Attach(id, radio.Position{X: float64(i)}, radio.NewBattery(2600), radio.DefaultEnergyModel())
			if err != nil {
				t.Fatal(err)
			}
		}
		cfg := DefaultConfig()
		cfg.ActiveFrameEvery = every
		sched, err := BuildMeshSchedule(ids, cfg)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(med, cfg, sched)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if _, err := net.Join(id); err != nil {
				t.Fatal(err)
			}
		}
		net.Start()
		_ = eng.RunUntil(20 * time.Second)
		return net.Link(1).Radio().EnergyConsumedMAH()
	}
	full := build(1)
	sparse := build(10)
	if sparse >= full/4 {
		t.Fatalf("sparse frames consumed %.5f, full %.5f — expected big reduction", sparse, full)
	}
}

func TestScheduleValidation(t *testing.T) {
	cfg := DefaultConfig()
	bad := Schedule{0: {Owner: 1}} // slot 0 is the sync slot
	if err := bad.Validate(cfg); err == nil {
		t.Fatal("sync-slot assignment accepted")
	}
	bad = Schedule{cfg.SlotsPerFrame: {Owner: 1}}
	if err := bad.Validate(cfg); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	bad = Schedule{1: {Owner: 1, Listeners: []radio.NodeID{1}}}
	if err := bad.Validate(cfg); err == nil {
		t.Fatal("owner-as-listener accepted")
	}
}

func TestBuildSchedules(t *testing.T) {
	cfg := DefaultConfig()
	ids := []radio.NodeID{3, 1, 2}
	star, err := BuildStarSchedule(1, ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(star.OwnedSlots(1)) != 1 {
		t.Fatal("hub must own exactly one slot")
	}
	if len(star.ListenSlots(1)) != 2 {
		t.Fatalf("hub listens in %d slots, want 2", len(star.ListenSlots(1)))
	}
	mesh, err := BuildMeshSchedule(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if got := len(mesh.ListenSlots(id)); got != 2 {
			t.Fatalf("mesh node %v listens in %d slots, want 2", id, got)
		}
	}
	frac := mesh.ActiveSlotFraction(1, cfg)
	want := 4.0 / 50.0 // sync + own + 2 listens
	if frac != want {
		t.Fatalf("active fraction = %f, want %f", frac, want)
	}
	// Too many nodes for the frame.
	big := make([]radio.NodeID, cfg.SlotsPerFrame+1)
	for i := range big {
		big[i] = radio.NodeID(i + 1)
	}
	if _, err := BuildMeshSchedule(big, cfg); err == nil {
		t.Fatal("oversized mesh accepted")
	}
}

func TestRuntimeScheduleSwap(t *testing.T) {
	eng, net := testNet(t, 3)
	got := 0
	net.Link(3).SetHandler(func(Message) { got++ })
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration())
	// Give node 1 a second slot at runtime.
	sched := net.Schedule()
	sched2 := make(Schedule, len(sched)+1)
	for k, v := range sched {
		sched2[k] = v
	}
	sched2[10] = SlotAssign{Owner: 1, Listeners: []radio.NodeID{2, 3}}
	if err := net.SetSchedule(sched2); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(1).Send(Message{Dst: 3, Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(1).Send(Message{Dst: 3, Payload: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	// Both messages fit in a single frame now that node 1 owns 2 slots.
	_ = eng.RunUntil(net.Config().FrameDuration() * 3)
	if got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{
		{SlotDuration: 0, SlotsPerFrame: 10, MaxPayload: 10, ActiveFrameEvery: 1},
		{SlotDuration: time.Millisecond, SlotsPerFrame: 1, MaxPayload: 10, ActiveFrameEvery: 1},
		{SlotDuration: time.Millisecond, SlotsPerFrame: 10, MaxPayload: 0, ActiveFrameEvery: 1},
		{SlotDuration: time.Millisecond, SlotsPerFrame: 10, MaxPayload: 10, ActiveFrameEvery: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("bad config accepted: %+v", bad)
		}
	}
}

func TestSlotAirTimeGuard(t *testing.T) {
	eng := sim.New()
	med := radio.NewMedium(eng, sim.NewRNG(1), radio.DefaultConfig())
	cfg := DefaultConfig()
	cfg.SlotDuration = 100 * time.Microsecond // too short for 96B payloads
	if _, err := NewNetwork(med, cfg, Schedule{}); err == nil {
		t.Fatal("slot shorter than air time accepted")
	}
}
