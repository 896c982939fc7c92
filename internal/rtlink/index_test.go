package rtlink

import (
	"slices"
	"testing"
	"time"

	"evm/internal/radio"
)

const ms = time.Millisecond

// In testNet's 3-node mesh with the default 5 ms slots, slot s opens at
// s*5 ms into a frame: slot 1 is node 1's, heard by 2 and 3; slot 2 is
// node 2's, heard by 1 and 3; slot 3 is node 3's, heard by 1 and 2.

func TestLeaveBetweenSlotOpenAndClose(t *testing.T) {
	eng, net := testNet(t, 3)
	l2 := net.Link(2)
	if err := l2.Send(Message{Dst: 3, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	eng.At(7*ms, func() { net.Leave(2) }) // slot 1 is open, node 2 listening
	_ = eng.RunUntil(12 * ms)
	if net.Link(2) != nil {
		t.Fatal("left link still found")
	}
	// Slot 1's close skipped the departed listener.
	if s := l2.Radio().State(); s != radio.StateRX {
		t.Fatalf("departed listener's radio is %v after the slot closed, want rx", s)
	}
	_ = eng.RunUntil(2 * net.Config().FrameDuration())
	if n := l2.Stats().FragsSent; n != 0 {
		t.Fatalf("departed owner sent %d fragments in its slot", n)
	}
}

func TestSetScheduleMidFrameTakesEffectNextFrame(t *testing.T) {
	eng, net := testNet(t, 3)
	frame := net.Config().FrameDuration()
	next := make(Schedule)
	for slot, as := range net.Schedule() {
		if slot != 3 {
			next[slot] = as
		}
	}
	next[10] = SlotAssign{Owner: 1, Listeners: []radio.NodeID{3}}
	r1, r3 := net.Link(1).Radio(), net.Link(3).Radio()
	var got []radio.State
	probe := func(r *radio.Radio) func() { return func() { got = append(got, r.State()) } }
	net.Start()
	eng.At(7*ms, func() {
		if err := net.SetSchedule(next); err != nil {
			t.Error(err)
		}
	})
	eng.At(17*ms, probe(r1))       // frame 1, old slot 3: node 1 listens
	eng.At(52*ms, probe(r3))       // frame 1, new slot 10: not yet
	eng.At(frame+17*ms, probe(r1)) // frame 2: slot 3 is gone
	eng.At(frame+52*ms, probe(r3)) // frame 2: node 3 listens in slot 10
	_ = eng.RunUntil(2 * frame)
	want := []radio.State{radio.StateRX, radio.StateSleep, radio.StateSleep, radio.StateRX}
	if !slices.Equal(got, want) {
		t.Fatalf("probed %v, want %v", got, want)
	}
}

func TestAdmissionAndRollback(t *testing.T) {
	eng, net := testNet(t, 3)
	frame := net.Config().FrameDuration()
	old := net.Schedule()
	if _, err := net.med.Attach(4, radio.Position{X: 4}, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
		t.Fatal(err)
	}
	grown, err := BuildMeshSchedule([]radio.NodeID{1, 2, 3, 4}, net.Config())
	if err != nil {
		t.Fatal(err)
	}
	var l4 *Link
	got3, got4 := 0, 0
	net.Link(3).SetHandler(func(Message) { got3++ })
	broadcast := func() {
		if err := net.Link(1).Send(Message{Dst: radio.Broadcast, Payload: []byte("b")}); err != nil {
			t.Error(err)
		}
	}
	net.Start()
	// Admit node 4 mid-frame, as a runtime admission does.
	eng.At(frame+7*ms, func() {
		if err := net.SetSchedule(grown); err != nil {
			t.Error(err)
		}
		var err error
		if l4, err = net.Join(4); err != nil {
			t.Error(err)
			return
		}
		l4.SetHandler(func(Message) { got4++ })
		broadcast()
	})
	_ = eng.RunUntil(4 * frame)
	if got3 != 1 || got4 != 1 {
		t.Fatalf("after admission: node 3 got %d, node 4 got %d; want 1 and 1", got3, got4)
	}
	// Roll it back mid-frame.
	eng.At(4*frame+7*ms, func() {
		net.Leave(4)
		if err := net.SetSchedule(old); err != nil {
			t.Error(err)
		}
		broadcast()
	})
	_ = eng.RunUntil(7 * frame)
	if net.Link(4) != nil {
		t.Fatal("rolled-back link still found")
	}
	if got3 != 2 || got4 != 1 {
		t.Fatalf("after rollback: node 3 got %d, node 4 got %d; want 2 and 1", got3, got4)
	}
	if _, err := net.Join(4); err != nil {
		t.Fatalf("rejoin after rollback: %v", err)
	}
}

func TestIdleFramesDoNotAllocate(t *testing.T) {
	eng, net := testNet(t, 16)
	frame := net.Config().FrameDuration()
	net.Start()
	_ = eng.RunUntil(2 * frame)
	allocs := testing.AllocsPerRun(1, func() {
		_ = eng.RunUntil(eng.Now() + 100*frame)
	})
	if allocs != 0 {
		t.Fatalf("100 frames of a 16-node mesh allocated %v times, want 0", allocs)
	}
}

// TestIdleFrameFiresOnlyFrameAndSyncSleep: in a mesh where nobody has
// anything to send, an active frame dispatches two engine callbacks, the
// frame start and the end of the sync slot; every listener's RX time
// still comes out of the schedule, one slot per listened slot.
func TestIdleFrameFiresOnlyFrameAndSyncSleep(t *testing.T) {
	const nodes, frames = 16, 10
	eng, net := testNet(t, nodes)
	slot, frame := net.Config().SlotDuration, net.Config().FrameDuration()
	net.Start()
	for f := range frames {
		for _, want := range []time.Duration{time.Duration(f) * frame, time.Duration(f)*frame + slot} {
			if !eng.Step() || eng.Now() != want {
				t.Fatalf("frame %d: callback at %v, want one at %v", f, eng.Now(), want)
			}
		}
	}
	if !eng.Step() || eng.Now() != frames*frame {
		t.Fatalf("after %d idle frames the next callback fired at %v, want the frame start at %v", frames, eng.Now(), frames*frame)
	}
	// Each node heard the sync slot and the other nodes' slots in every
	// frame before this one.
	want := frames * nodes * slot
	for id := radio.NodeID(1); id <= nodes; id++ {
		if rx := net.Link(id).Radio().TimeIn(radio.StateRX); rx != want {
			t.Fatalf("node %v spent %v in RX over %d frames, want %v", id, rx, frames, want)
		}
	}
}

// BenchmarkSlotLoop times one idle frame of a 16-node full mesh: the
// frame and sync-sleep callbacks fire, and the 16 slots, each heard by 15
// listeners, fire nothing; the listeners' RX windows come from the
// schedule when their radios are next read.
func BenchmarkSlotLoop(b *testing.B) {
	eng, net := testNet(b, 16)
	frame := net.Config().FrameDuration()
	net.Start()
	for b.Loop() {
		_ = eng.RunUntil(eng.Now() + frame)
	}
}

// busyFrame returns one frame of a 16-node full mesh in which every node
// broadcasts a fragment, so all 16 slots fire and each frame reaches 15
// listeners.
func busyFrame(tb testing.TB) func() {
	const nodes = 16
	eng, net := testNet(tb, nodes)
	frame := net.Config().FrameDuration()
	payload := make([]byte, 32)
	net.Start()
	return func() {
		for id := radio.NodeID(1); id <= nodes; id++ {
			if err := net.Link(id).Send(Message{Dst: radio.Broadcast, Payload: payload}); err != nil {
				tb.Fatal(err)
			}
		}
		_ = eng.RunUntil(eng.Now() + frame)
	}
}

// TestBusyFrameDoesNotAllocate: once the links' frame buffers and the
// medium's transmissions exist, a frame in which every slot sends costs
// no allocation. A run is 10 frames, so AllocsPerRun's division by runs
// cannot hide one.
func TestBusyFrameDoesNotAllocate(t *testing.T) {
	frame := busyFrame(t)
	frame()
	allocs := testing.AllocsPerRun(1, func() {
		for range 10 {
			frame()
		}
	})
	if allocs != 0 {
		t.Fatalf("10 busy frames of a 16-node mesh allocated %v times, want 0", allocs)
	}
}

// BenchmarkBusyFrame times one busy frame (see busyFrame).
func BenchmarkBusyFrame(b *testing.B) {
	frame := busyFrame(b)
	for b.Loop() {
		frame()
	}
}
