package radio

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"evm/internal/sim"
)

// broadcastRun attaches n radios 3 m apart on a line, all listening,
// forces per, marks the pairs of node 1 with the nodes in bad as in the
// Bad burst state, sends frames broadcasts from node 1 and then one sync
// pulse. With draw set the medium makes every loss draw, as if no
// outcome were certain. It returns what each receiver got, then the
// jitter the pulse gave each radio.
func broadcastRun(t *testing.T, cfg Config, per float64, bad []NodeID, n, frames int, draw bool) (got, jitters string, m *Medium) {
	t.Helper()
	eng, m := newTestMedium(t, cfg)
	var rs []*Radio
	for i := 1; i <= n; i++ {
		r := attach(t, m, NodeID(i), Position{X: float64(3 * (i - 1))})
		r.SetState(StateRX)
		rs = append(rs, r)
	}
	m.ForcePER(per)
	if draw {
		m.lossless = false
	}
	for _, id := range bad {
		m.link(1, id).bad = true
	}
	for k := range frames {
		sendAt(t, eng, rs[0], time.Duration(k)*time.Millisecond)
	}
	for _, r := range rs[1:] {
		got += fmt.Sprintf("%v received %d lost %d; ", r.ID(), r.Received(), r.Drops(DropLoss))
	}
	jitter := m.BroadcastSync()
	for _, r := range rs {
		jitters += fmt.Sprintf("%v jitter %v; ", r.ID(), jitter[r.ID()])
	}
	return got, jitters, m
}

// TestCertainLossDrawsAreSkippedExactly: on a lossless medium, k
// deliveries over pairs in the Good state leave the medium's stream
// exactly where 2k loss draws would, which the next sync pulse's jitter
// shows. A pair in the Bad state, or a PER above 0, still draws, and on
// every channel the skipped draws change no outcome.
func TestCertainLossDrawsAreSkippedExactly(t *testing.T) {
	const n, frames = 6, 5
	deliveries := (n - 1) * frames

	noBurst := perfectConfig()
	model := DefaultConfig()
	model.Burst = GilbertElliott{}
	lossyGood := perfectConfig()
	lossyGood.Burst = GilbertElliott{PGood: 0.4}
	stuckBad := perfectConfig()
	stuckBad.Burst = GilbertElliott{PBad: 1, BadToGood: 0.3}
	for _, c := range []struct {
		name     string
		cfg      Config
		per      float64
		bad      []NodeID
		lossless bool
		lost     bool // some frame must be lost
	}{
		{"zero RefPER", noBurst, -1, nil, true, false},
		{"forced zero PER", model, 0, nil, true, false},
		{"forced PER above zero", noBurst, 0.4, nil, false, true},
		{"distance PER above zero", model, -1, nil, false, false},
		{"Good-to-Bad transitions", DefaultConfig(), 0, nil, false, false},
		{"loss in the Good state", lossyGood, 0, nil, false, true},
		{"pairs in the Bad state", stuckBad, 0, []NodeID{2, 4}, true, true},
	} {
		got, gotJitters, m := broadcastRun(t, c.cfg, c.per, c.bad, n, frames, false)
		want, wantJitters, _ := broadcastRun(t, c.cfg, c.per, c.bad, n, frames, true)
		if got+gotJitters != want+wantJitters {
			t.Fatalf("%s: skipping certain draws changed the run:\n got  %s%s\n want %s%s", c.name, got, gotJitters, want, wantJitters)
		}
		if m.lossless != c.lossless {
			t.Fatalf("%s: lossless = %v, want %v", c.name, m.lossless, c.lossless)
		}
		if lost := m.Stats().DroppedLoss > 0; c.lost && !lost {
			t.Fatalf("%s: no frame lost; %s", c.name, got)
		}
		if !c.lossless || c.bad != nil {
			continue
		}
		// Every delivery skipped its two draws: the pulse's jitter is
		// what a stream advanced by 2k draws gives.
		if m.Stats().Delivered != deliveries {
			t.Fatalf("%s: delivered %d, want %d", c.name, m.Stats().Delivered, deliveries)
		}
		ref := sim.NewRNG(1)
		for range 2 * deliveries {
			ref.Bool(0)
		}
		want = ""
		for id := NodeID(1); id <= n; id++ {
			j := time.Duration(ref.NormFloat64() * float64(SyncJitterSigma))
			want += fmt.Sprintf("%v jitter %v; ", id, max(j, -j))
		}
		if gotJitters != want {
			t.Fatalf("%s: sync jitter after %d deliveries\n got  %s\n want %s", c.name, deliveries, gotJitters, want)
		}
	}
}

// TestLosslessMediumMakesNoBurstState: broadcasts on a lossless medium
// make no burst state, in links or in the pair table, yet leave the
// stream where drawing every loss would. A later ForcePER(0.1) makes each
// pair's state on its first draw and loses exactly the frames a medium
// that drew from the start loses.
func TestLosslessMediumMakesNoBurstState(t *testing.T) {
	const n, frames = 5, 20
	run := func(draw bool) (got string, m *Medium) {
		eng, m := newTestMedium(t, perfectConfig())
		var rs []*Radio
		for i := 1; i <= n; i++ {
			r := attach(t, m, NodeID(i), Position{X: float64(3 * (i - 1))})
			r.SetState(StateRX)
			rs = append(rs, r)
		}
		m.lossless = !draw
		for k := range frames {
			sendAt(t, eng, rs[0], time.Duration(k)*time.Millisecond)
		}
		if !draw {
			if len(m.links) != 0 || slices.ContainsFunc(m.pairs, func(ls *linkState) bool { return ls != nil }) {
				t.Fatalf("lossless broadcasts made burst state: %d links, pair table %v", len(m.links), m.pairs)
			}
		}
		m.ForcePER(0.1)
		for k := range frames {
			sendAt(t, eng, rs[0], time.Duration(frames+k)*time.Millisecond)
		}
		for _, r := range rs[1:] {
			got += fmt.Sprintf("%v received %d lost %d; ", r.ID(), r.Received(), r.Drops(DropLoss))
		}
		jitter := m.BroadcastSync()
		for _, r := range rs {
			got += fmt.Sprintf("%v jitter %v; ", r.ID(), jitter[r.ID()])
		}
		return got, m
	}
	got, m := run(false)
	want, _ := run(true)
	if got != want {
		t.Fatalf("lazy burst state changed the run:\n got  %s\n want %s", got, want)
	}
	if m.Stats().DroppedLoss == 0 || len(m.links) != n-1 {
		t.Fatalf("after ForcePER(0.1): %d frames lost, %d links; want some lost and %d links", m.Stats().DroppedLoss, len(m.links), n-1)
	}
}
