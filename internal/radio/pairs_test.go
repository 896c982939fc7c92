package radio

import (
	"testing"
	"time"

	"evm/internal/sim"
)

// sendAt makes from send a broadcast frame at the given virtual time and
// runs the engine past its air time.
func sendAt(t *testing.T, eng *sim.Engine, from *Radio, at time.Duration) {
	t.Helper()
	eng.At(at, func() {
		if _, err := from.Send(Packet{Dst: Broadcast, Payload: []byte("x")}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	_ = eng.RunUntil(at + 10*time.Millisecond)
}

func TestRadioAttachedAfterFirstTransmissionIsReached(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 2, Position{0, 0})
	b := attach(t, m, 3, Position{5, 0})
	b.SetState(StateRX)
	sendAt(t, eng, a, 0)
	// Attached between a's two frames, and below a in ID order, so
	// every radio's position in the medium shifts.
	c := attach(t, m, 1, Position{0, 5})
	c.SetState(StateRX)
	sendAt(t, eng, a, 20*time.Millisecond)
	if b.Received() != 2 || c.Received() != 1 {
		t.Fatalf("received b=%d c=%d, want 2 and 1", b.Received(), c.Received())
	}
	a.SetState(StateRX)
	sendAt(t, eng, c, 40*time.Millisecond)
	if a.Received() != 1 || b.Received() != 3 {
		t.Fatalf("from the new radio: received a=%d b=%d, want 1 and 3", a.Received(), b.Received())
	}
}

func TestDetachedRadioIsNotReached(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	far := attach(t, m, 3, Position{100, 0}) // out of a's range
	c := attach(t, m, 4, Position{0, 5})
	for _, r := range []*Radio{b, far, c} {
		r.SetState(StateRX)
	}
	sendAt(t, eng, a, 0)
	m.Detach(2) // shifts far and c down one position
	sendAt(t, eng, a, 20*time.Millisecond)
	if b.Received() != 1 || far.Received() != 0 || c.Received() != 2 {
		t.Fatalf("received b=%d far=%d c=%d, want 1, 0 and 2", b.Received(), far.Received(), c.Received())
	}
	if _, err := b.Send(Packet{Dst: Broadcast}); err == nil {
		t.Fatal("detached radio sent")
	}
	// A frame whose sender is detached while it is on the air is lost.
	eng.At(40*time.Millisecond, func() {
		_, _ = a.Send(Packet{Dst: Broadcast, Payload: []byte("x")})
		m.Detach(1)
	})
	_ = eng.RunUntil(50 * time.Millisecond)
	if c.Received() != 2 {
		t.Fatalf("frame from a detached sender delivered: c received %d, want 2", c.Received())
	}
}

func TestAttachAndDetachFromReceiveHandler(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 10, Position{0, 0})
	b := attach(t, m, 20, Position{5, 0})
	c := attach(t, m, 30, Position{0, 5})
	d := attach(t, m, 40, Position{5, 5})
	for _, r := range []*Radio{b, c, d} {
		r.SetState(StateRX)
	}
	// b's handler runs mid-way through the first frame's receivers: it
	// attaches a radio below every other in ID order, so each position
	// shifts, and detaches d, which the frame has not reached yet.
	var early *Radio
	b.SetHandler(func(Packet) {
		if early == nil {
			early = attach(t, m, 5, Position{5, 0})
			m.Detach(40)
		}
	})
	sendAt(t, eng, a, 0)
	if b.Received() != 1 || c.Received() != 1 || d.Received() != 0 || early.Received() != 0 {
		t.Fatalf("received b=%d c=%d d=%d early=%d, want 1, 1, 0 and 0",
			b.Received(), c.Received(), d.Received(), early.Received())
	}
	early.SetState(StateRX)
	sendAt(t, eng, a, 20*time.Millisecond)
	if b.Received() != 2 || c.Received() != 2 || d.Received() != 0 || early.Received() != 1 {
		t.Fatalf("next frame: received b=%d c=%d d=%d early=%d, want 2, 2, 0 and 1",
			b.Received(), c.Received(), d.Received(), early.Received())
	}
}

func TestBurstStateSurvivesDetachAndReattach(t *testing.T) {
	cfg := perfectConfig()
	cfg.Burst = GilbertElliott{PBad: 1} // no transitions: the state stays as set
	eng, m := newTestMedium(t, cfg)
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	b.SetState(StateRX)
	sendAt(t, eng, a, 0)
	m.link(1, 2).bad = true
	sendAt(t, eng, a, 20*time.Millisecond)
	if b.Received() != 1 || b.Drops(DropLoss) != 1 {
		t.Fatalf("received %d, lost %d; want 1 and 1", b.Received(), b.Drops(DropLoss))
	}
	m.Detach(2)
	b = attach(t, m, 2, Position{5, 0})
	b.SetState(StateRX)
	c := attach(t, m, 3, Position{0, 5})
	c.SetState(StateRX)
	sendAt(t, eng, a, 40*time.Millisecond)
	if b.Received() != 0 || b.Drops(DropLoss) != 1 {
		t.Fatalf("re-attached: received %d, lost %d; want 0 and 1", b.Received(), b.Drops(DropLoss))
	}
	if c.Received() != 1 {
		t.Fatalf("fresh pair received %d, want 1", c.Received())
	}
}

// broadcaster returns one broadcast of a 64-byte frame on a 16-radio
// medium with the default lossy channel, every radio listening; each call
// sends from the next radio in turn and runs the engine until the frame
// has reached the other 15.
func broadcaster(tb testing.TB) func() {
	eng := sim.New()
	m := NewMedium(eng, sim.NewRNG(1), DefaultConfig())
	radios := make([]*Radio, 16)
	for i := range radios {
		r, err := m.Attach(NodeID(i+1), Position{X: float64(i % 4 * 5), Y: float64(i / 4 * 5)}, NewBattery(2600), DefaultEnergyModel())
		if err != nil {
			tb.Fatal(err)
		}
		r.SetState(StateRX)
		radios[i] = r
	}
	payload := make([]byte, 64)
	i := 0
	return func() {
		if _, err := radios[i%len(radios)].Send(Packet{Dst: Broadcast, Payload: payload}); err != nil {
			tb.Fatal(err)
		}
		eng.Run()
		i++
	}
}

// TestMediumBroadcastDoesNotAllocate: once every pair has drawn its
// first loss and a transmission exists to recycle, a broadcast costs no
// allocation, payload copy included. A run is 32 broadcasts, so
// AllocsPerRun's division by runs cannot hide one.
func TestMediumBroadcastDoesNotAllocate(t *testing.T) {
	broadcast := broadcaster(t)
	for range 16 {
		broadcast()
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 32 {
			broadcast()
		}
	})
	if allocs != 0 {
		t.Fatalf("32 broadcasts allocated %v times, want 0", allocs)
	}
}

// BenchmarkMediumBroadcast times one broadcast frame from each of 16
// radios in turn to the 15 others, all listening, on a lossy channel.
func BenchmarkMediumBroadcast(b *testing.B) {
	broadcast := broadcaster(b)
	for b.Loop() {
		broadcast()
	}
}

// A transmission is one engine event: its receivers hear the frame while
// the sender is still in TX, and the sender is back in the state it sent
// from once the event has fired.
func TestTransmissionIsOneEvent(t *testing.T) {
	for _, prev := range []State{StateSleep, StateIdle, StateRX} {
		eng, m := newTestMedium(t, perfectConfig())
		a := attach(t, m, 1, Position{0, 0})
		b := attach(t, m, 2, Position{5, 0})
		b.SetState(StateRX)
		a.SetState(prev)
		var seen []State
		b.SetHandler(func(Packet) { seen = append(seen, a.State()) })
		before := eng.Pending()
		if _, err := a.Send(Packet{Dst: Broadcast, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		if got := eng.Pending() - before; got != 1 {
			t.Errorf("from %v: Send queued %d events, want 1", prev, got)
		}
		eng.Run()
		if len(seen) != 1 || seen[0] != StateTX {
			t.Errorf("from %v: receive handler saw the sender in %v, want [tx]", prev, seen)
		}
		if got := a.State(); got != prev {
			t.Errorf("sender in %v after the frame, want %v", got, prev)
		}
	}
}
