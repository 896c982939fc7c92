package radio

import (
	"bytes"
	"math"
	"testing"
	"time"

	"evm/internal/sim"
)

func newTestMedium(t *testing.T, cfg Config) (*sim.Engine, *Medium) {
	t.Helper()
	eng := sim.New()
	return eng, NewMedium(eng, sim.NewRNG(1), cfg)
}

func attach(t *testing.T, m *Medium, id NodeID, pos Position) *Radio {
	t.Helper()
	r, err := m.Attach(id, pos, NewBattery(2600), DefaultEnergyModel())
	if err != nil {
		t.Fatalf("attach %v: %v", id, err)
	}
	return r
}

func perfectConfig() Config {
	cfg := DefaultConfig()
	cfg.RefPER = 0
	cfg.Burst = GilbertElliott{} // no burst loss
	return cfg
}

func TestDeliveryPerfectChannel(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	var got []Packet
	b.SetHandler(func(p Packet) {
		p.Payload = bytes.Clone(p.Payload) // the handler only borrows it
		got = append(got, p)
	})
	b.SetState(StateRX)
	eng.At(time.Millisecond, func() {
		if _, err := a.Send(Packet{Dst: 2, Payload: []byte("hello")}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if string(got[0].Payload) != "hello" {
		t.Fatalf("payload = %q", got[0].Payload)
	}
	if got[0].Src != 1 || got[0].Dst != 2 {
		t.Fatalf("addressing wrong: %+v", got[0])
	}
}

// TestPayloadIsCopied: the medium copies the payload at Send, so a
// sender that reuses its buffer at once does not change what is on the
// air.
func TestPayloadIsCopied(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	buf := []byte("mutable")
	var got string
	b.SetHandler(func(p Packet) { got = string(p.Payload) })
	b.SetState(StateRX)
	eng.At(0, func() {
		_, _ = a.Send(Packet{Dst: 2, Payload: buf})
		buf[0] = 'X'
	})
	eng.Run()
	if got != "mutable" {
		t.Fatalf("received %q: receiver payload aliases sender buffer", got)
	}
}

func TestNoDeliveryWhenSleeping(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	delivered := 0
	b.SetHandler(func(Packet) { delivered++ })
	// b stays in sleep.
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: 2, Payload: []byte("x")}) })
	eng.Run()
	if delivered != 0 {
		t.Fatal("sleeping radio received a packet")
	}
	if b.Drops(DropNotListening) != 1 {
		t.Fatalf("DropNotListening = %d, want 1", b.Drops(DropNotListening))
	}
}

func TestLateRXTurnOnDrops(t *testing.T) {
	// Receiver turns on mid-frame: frame must be lost (must listen for
	// the whole air time).
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	delivered := 0
	b.SetHandler(func(Packet) { delivered++ })
	eng.At(0, func() {
		_, _ = a.Send(Packet{Dst: 2, Payload: make([]byte, 100)})
	})
	// 117 bytes at 250kbps is ~3.7ms; turn on at 1ms.
	eng.At(time.Millisecond, func() { b.SetState(StateRX) })
	eng.Run()
	if delivered != 0 {
		t.Fatal("packet delivered despite partial listen")
	}
}

func TestOutOfRange(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{100, 0}) // beyond 30m range
	delivered := 0
	b.SetHandler(func(Packet) { delivered++ })
	b.SetState(StateRX)
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: 2, Payload: []byte("x")}) })
	eng.Run()
	if delivered != 0 {
		t.Fatal("out-of-range delivery")
	}
}

func TestCollisionBothLost(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{10, 0})
	c := attach(t, m, 3, Position{5, 5})
	delivered := 0
	c.SetHandler(func(Packet) { delivered++ })
	c.SetState(StateRX)
	// a and b transmit overlapping frames audible at c.
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: 3, Payload: make([]byte, 50)}) })
	eng.At(100*time.Microsecond, func() { _, _ = b.Send(Packet{Dst: 3, Payload: make([]byte, 50)}) })
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d frames through a collision", delivered)
	}
	if c.Drops(DropCollision) == 0 {
		t.Fatal("collision not recorded")
	}
}

func TestSequentialFramesBothDelivered(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{10, 0})
	c := attach(t, m, 3, Position{5, 5})
	delivered := 0
	c.SetHandler(func(Packet) { delivered++ })
	c.SetState(StateRX)
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: 3, Payload: make([]byte, 20)}) })
	// Well after the first frame ends (~1.2ms).
	eng.At(10*time.Millisecond, func() { _, _ = b.Send(Packet{Dst: 3, Payload: make([]byte, 20)}) })
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2", delivered)
	}
}

func TestForcedPERLossRate(t *testing.T) {
	cfg := perfectConfig()
	eng, m := newTestMedium(t, cfg)
	m.ForcePER(0.3)
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	delivered := 0
	b.SetHandler(func(Packet) { delivered++ })
	b.SetState(StateRX)
	const n = 5000
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		eng.At(at, func() { _, _ = a.Send(Packet{Dst: 2, Payload: []byte{1}}) })
	}
	eng.Run()
	rate := float64(delivered) / n
	if math.Abs(rate-0.7) > 0.03 {
		t.Fatalf("delivery rate %.3f, want ~0.7", rate)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	rx := []*Radio{
		attach(t, m, 2, Position{5, 0}),
		attach(t, m, 3, Position{0, 5}),
		attach(t, m, 4, Position{-5, 0}),
	}
	count := 0
	for _, r := range rx {
		r.SetHandler(func(Packet) { count++ })
		r.SetState(StateRX)
	}
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: Broadcast, Payload: []byte("b")}) })
	eng.Run()
	if count != 3 {
		t.Fatalf("broadcast reached %d, want 3", count)
	}
}

func TestFailedNodeCannotSendOrReceive(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	delivered := 0
	b.SetHandler(func(Packet) { delivered++ })
	b.SetState(StateRX)
	b.Fail()
	if _, err := a.Send(Packet{Dst: 2}); err != nil {
		t.Fatalf("healthy node send: %v", err)
	}
	eng.Run()
	if delivered != 0 {
		t.Fatal("failed node received")
	}
	if _, err := b.Send(Packet{Dst: 1}); err == nil {
		t.Fatal("failed node send succeeded")
	}
	b.Recover()
	b.SetState(StateRX)
	eng.At(eng.Now()+time.Millisecond, func() { _, _ = a.Send(Packet{Dst: 2}) })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("recovered node delivered = %d, want 1", delivered)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	a.SetState(StateRX)
	eng.At(time.Hour, func() { a.SetState(StateSleep) })
	_ = eng.RunUntil(time.Hour)
	got := a.EnergyConsumedMAH()
	want := DefaultEnergyModel().RXCurrentMA // 1 hour at RX current
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("consumed %.3f mAh, want ~%.1f", got, want)
	}
}

func TestRecoverDoesNotChargeFailedInterval(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	a.SetState(StateRX)
	_ = eng.RunUntil(time.Second)
	a.Fail()
	before := a.EnergyConsumedMAH()
	_ = eng.RunUntil(11 * time.Second)
	a.Recover()
	if got := a.EnergyConsumedMAH(); got != before {
		t.Fatalf("consumed %v mAh after 10 s failed, want %v", got, before)
	}
}

// Reading the energy of a listening radio while a frame is on the air
// must not change what it receives: the read charges the battery up to
// now but leaves the time the radio entered RX alone.
func TestEnergyReadDoesNotDropFrameInFlight(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	got := 0
	b.SetHandler(func(Packet) { got++ })
	b.SetState(StateRX)
	var air time.Duration
	eng.At(time.Millisecond, func() {
		var err error
		if air, err = a.Send(Packet{Dst: 2, Payload: make([]byte, 40)}); err != nil {
			t.Error(err)
			return
		}
		eng.At(eng.Now()+air/2, func() { _ = b.EnergyConsumedMAH() })
	})
	eng.Run()
	if got != 1 || b.Drops(DropNotListening) != 0 {
		t.Fatalf("delivered %d, dropped %d as not listening; want 1 and 0", got, b.Drops(DropNotListening))
	}
	if rx, want := b.TimeIn(StateRX), time.Millisecond+air; rx != want {
		t.Fatalf("RX time %v, want %v", rx, want)
	}
}

func TestLifetimeExtrapolation(t *testing.T) {
	b := NewBattery(2600)
	b.Drain(1.0, time.Hour) // 1 mA average
	life := b.LifetimeAt(time.Hour)
	wantHours := 2600.0
	if math.Abs(life.Hours()-wantHours) > 1 {
		t.Fatalf("lifetime %.0f h, want %.0f h", life.Hours(), wantHours)
	}
}

func TestBatteryDepletion(t *testing.T) {
	b := NewBattery(1)
	if b.Depleted() {
		t.Fatal("fresh battery depleted")
	}
	b.Drain(2, time.Hour)
	if !b.Depleted() {
		t.Fatal("over-drained battery not depleted")
	}
	if b.RemainingFraction() != 0 {
		t.Fatalf("remaining = %f, want clamp to 0", b.RemainingFraction())
	}
}

func TestSyncJitterBounded(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	for i := 1; i <= 10; i++ {
		attach(t, m, NodeID(i), Position{float64(i), 0})
	}
	_ = eng
	maxJ := time.Duration(0)
	var sum time.Duration
	n := 0
	for k := 0; k < 1000; k++ {
		for _, j := range m.BroadcastSync() {
			if j > maxJ {
				maxJ = j
			}
			sum += j
			n++
		}
	}
	if maxJ > 250*time.Microsecond {
		t.Fatalf("max jitter %v implausibly large", maxJ)
	}
	mean := sum / time.Duration(n)
	// Half-normal mean = sigma*sqrt(2/pi) ~ 32us for sigma=40us.
	if mean < 20*time.Microsecond || mean > 45*time.Microsecond {
		t.Fatalf("mean jitter %v outside expected band", mean)
	}
}

func TestClockDriftAccumulates(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	a.SetDriftPPM(10)
	m.BroadcastSync()
	base := a.ClockError()
	_ = eng.RunUntil(10 * time.Second)
	grown := a.ClockError() - base
	want := 100 * time.Microsecond // 10ppm over 10s
	if grown < want-time.Microsecond || grown > want+time.Microsecond {
		t.Fatalf("drift grew %v, want ~%v", grown, want)
	}
}

func TestAttachDuplicate(t *testing.T) {
	_, m := newTestMedium(t, perfectConfig())
	attach(t, m, 1, Position{})
	if _, err := m.Attach(1, Position{}, nil, DefaultEnergyModel()); err == nil {
		t.Fatal("duplicate attach succeeded")
	}
}

func TestUnicastNotDeliveredToOthers(t *testing.T) {
	eng, m := newTestMedium(t, perfectConfig())
	a := attach(t, m, 1, Position{0, 0})
	b := attach(t, m, 2, Position{5, 0})
	c := attach(t, m, 3, Position{0, 5})
	bGot, cGot := 0, 0
	b.SetHandler(func(Packet) { bGot++ })
	c.SetHandler(func(Packet) { cGot++ })
	b.SetState(StateRX)
	c.SetState(StateRX)
	eng.At(0, func() { _, _ = a.Send(Packet{Dst: 2, Payload: []byte("u")}) })
	eng.Run()
	if bGot != 1 || cGot != 0 {
		t.Fatalf("bGot=%d cGot=%d, want 1/0", bGot, cGot)
	}
}
