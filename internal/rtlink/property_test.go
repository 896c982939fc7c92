package rtlink

import (
	"bytes"
	"testing"
	"testing/quick"

	"evm/internal/radio"
	"evm/internal/sim"
)

func TestFragmentationRoundTripProperty(t *testing.T) {
	// Any payload up to the 255-fragment limit must reassemble exactly,
	// regardless of chunk size.
	f := func(data []byte, chunkSeed uint8) bool {
		chunk := int(chunkSeed%96) + 1
		if len(data) > chunk*255 {
			data = data[:chunk*255]
		}
		msg := Message{Src: 1, Dst: 2, Kind: 7, Payload: data}
		frags, err := appendFragments(nil, msg, 42, chunk)
		if err != nil {
			return false
		}
		r := &reassembler{}
		for i, fr := range frags {
			// Encode/decode each fragment as it would travel on air.
			dec, err := decodeFragment(fr.appendTo(nil))
			if err != nil {
				return false
			}
			got, done := r.add(dec)
			if done != (i == len(frags)-1) {
				return false
			}
			if done {
				return bytes.Equal(got.Payload, data) && got.Kind == 7 && got.Src == 1
			}
		}
		return len(frags) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblyShuffledOrderProperty(t *testing.T) {
	rng := sim.NewRNG(9)
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		if len(data) > 500 {
			data = data[:500]
		}
		frags, err := appendFragments(nil, Message{Src: 3, Dst: 4, Payload: data}, 7, 32)
		if err != nil {
			return false
		}
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		r := &reassembler{}
		var got Message
		done := false
		for _, fr := range frags {
			if m, ok := r.add(fr); ok {
				got = m
				done = true
			}
		}
		return done && bytes.Equal(got.Payload, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleBuildersNoSlotConflicts(t *testing.T) {
	cfg := DefaultConfig()
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%10) + 2
		k := int(kRaw%3) + 1
		ids := make([]radio.NodeID, n)
		for i := range ids {
			ids[i] = radio.NodeID(i + 1)
		}
		sched, err := BuildMeshScheduleK(ids, cfg, k)
		if err != nil {
			// Legitimately too large for the frame.
			return n*k+1 > cfg.SlotsPerFrame
		}
		if err := sched.Validate(cfg); err != nil {
			return false
		}
		// Every node owns exactly k slots; slot 0 never assigned.
		for _, id := range ids {
			if len(sched.OwnedSlots(id)) != k {
				return false
			}
		}
		if _, ok := sched[0]; ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
