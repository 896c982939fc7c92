package rtlink

import (
	"bytes"
	"fmt"
	"testing"

	"evm/internal/radio"
	"evm/internal/sim"
)

// A delivered payload is borrowed: it lives in the medium's transmission
// buffer, which the next transmission overwrites. These tests pin the
// three places that keep bytes past a handler or a Send, each of which
// must copy: the link's own queue, the relay queue and the reassembler;
// and the memo, which must not take a recycled buffer for the
// transmission it last decoded.

// kept copies a delivered message's payload, so a test can keep it past
// the handler.
func kept(m Message) Message {
	m.Payload = bytes.Clone(m.Payload)
	return m
}

// pattern returns n bytes that differ from one fragment's chunk to the
// next.
func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i/100)
	}
	return b
}

func TestSendCopiesCallerBuffer(t *testing.T) {
	eng, net := testNet(t, 2)
	var got []Message
	net.Link(2).SetHandler(func(m Message) { got = append(got, kept(m)) })
	buf := []byte("before")
	if err := net.Link(1).Send(Message{Dst: 2, Payload: buf}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "AFTER!") // the caller reuses its buffer at once
	net.Start()
	_ = eng.RunUntil(2 * net.Config().FrameDuration())
	if len(got) != 1 || string(got[0].Payload) != "before" {
		t.Fatalf("delivered %q, want the payload as it was at Send", got)
	}
}

func TestReassemblyCopiesRecycledChunks(t *testing.T) {
	eng, net := testNet(t, 3)
	chunk := net.Config().MaxPayload
	payload := pattern(2*chunk + 10) // three fragments
	var got []Message
	net.Link(2).SetHandler(func(m Message) {
		if m.Src == 1 {
			got = append(got, kept(m))
		}
	})
	if err := net.Link(1).Send(Message{Dst: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	// Node 3 broadcasts in every frame, so its frames reuse the
	// transmission buffer between node 1's fragments as well.
	for range 4 {
		if err := net.Link(3).Send(Message{Dst: radio.Broadcast, Payload: pattern(chunk)}); err != nil {
			t.Fatal(err)
		}
		_ = eng.RunUntil(eng.Now() + net.Config().FrameDuration())
	}
	if len(got) != 1 || !bytes.Equal(got[0].Payload, payload) {
		t.Fatalf("reassembled %d messages; the first differs from the 3-fragment payload sent", len(got))
	}
}

// lineNet builds the line 1-2-3 on a perfect channel, with 1 and 3 out
// of each other's range and routes 1 -> 2 -> 3. Slots run 1, 2, 3.
func lineNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
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
	return eng, net
}

func TestRelayCopiesRecycledFrame(t *testing.T) {
	eng, net := lineNet(t)
	var got []string
	net.Link(3).SetHandler(func(m Message) { got = append(got, fmt.Sprintf("%v:%s", m.Src, m.Payload)) })
	// Node 2's own broadcast is queued first, so the relay waits a frame
	// and node 2's broadcast overwrites the transmission buffer the
	// relayed fragment arrived in.
	if err := net.Link(2).Send(Message{Dst: radio.Broadcast, Payload: []byte("mine")}); err != nil {
		t.Fatal(err)
	}
	if err := net.Link(1).Send(Message{Dst: 3, Payload: []byte("hop")}); err != nil {
		t.Fatal(err)
	}
	net.Start()
	_ = eng.RunUntil(3 * net.Config().FrameDuration())
	want := []string{"node(2):mine", "node(1):hop"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("node 3 got %q, want %q", got, want)
	}
	if n := net.Link(2).Stats().FragsRelayed; n != 1 {
		t.Fatalf("relayed %d fragments, want 1", n)
	}
}

func TestMemoTellsRecycledTransmissionsApart(t *testing.T) {
	eng, net := testNet(t, 3)
	var got []string
	var bufs []*byte
	net.Link(3).SetHandler(func(m Message) {
		got = append(got, fmt.Sprintf("%v:%s", m.Src, m.Payload))
		bufs = append(bufs, &m.Payload[0])
	})
	// Two frames of equal length in consecutive slots of one frame. A
	// stale memo would still read the new chunk, which aliases the
	// recycled buffer, but with the old header.
	for id, p := range []string{"aaaa", "bbbb"} {
		if err := net.Link(radio.NodeID(id + 1)).Send(Message{Dst: radio.Broadcast, Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Start()
	_ = eng.RunUntil(net.Config().FrameDuration())
	want := []string{"node(1):aaaa", "node(2):bbbb"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("node 3 got %q, want %q", got, want)
	}
	if bufs[0] != bufs[1] {
		t.Fatal("the two transmissions did not share a recycled buffer; the test no longer covers the memo")
	}
}
