package rtlink

import (
	"testing"

	"evm/internal/radio"
)

// TestOnFrameNeverReadsStaleMemo hands a link packets built by hand,
// which reuse one buffer or carry another transmission's Seq, and short
// frames cut from a memoised payload: each must be decoded from its own
// bytes, and a frame shorter than the header rejected.
func TestOnFrameNeverReadsStaleMemo(t *testing.T) {
	w := newWorld(t, meshSpec(t, 3), false)
	l := w.link(2)
	var got []string // copied: a payload aliases the reused buffer
	l.SetHandler(func(m Message) { got = append(got, string(m.Payload)) })
	frag := func(buf []byte, payload string) []byte {
		f := fragment{src: 1, dst: radio.Broadcast, kind: 1, msgID: 7, total: 1, chunk: []byte(payload)}
		return f.appendTo(buf[:0])
	}
	deliver := func(seq uint32, b []byte) {
		l.onFrame(radio.Packet{Src: 1, Dst: radio.Broadcast, Hop: radio.Broadcast, Kind: dataKind, Seq: seq, Payload: b})
	}
	buf := make([]byte, 0, 64)

	deliver(0, frag(buf, "first"))
	deliver(0, frag(buf, "again")) // the same buffer, rewritten
	deliver(0, frag(make([]byte, 0, 64), "other"))
	deliver(5, frag(buf, "seq-5"))
	memo := frag(buf, "seq-5")
	deliver(5, memo[:fragHeaderLen+2]) // the same transmission's array, shorter
	deliver(5, memo[:fragHeaderLen-1]) // shorter than the header
	deliver(5, memo[:0])
	deliver(5, frag(make([]byte, 0, 64), "seq-5-b")) // another array under Seq 5
	deliver(6, frag(buf, "seq-6"))                   // the memoised array under a new Seq

	want := []string{"first", "again", "other", "seq-5", "se", "seq-5-b", "seq-6"}
	if len(got) != len(want) {
		t.Fatalf("delivered %d messages %q, want %q", len(got), got, want)
	}
	for i, p := range got {
		if p != want[i] {
			t.Fatalf("message %d is %q, want %q", i, p, want[i])
		}
	}
	if s := l.Stats(); s.FragsReceived != len(want) {
		t.Fatalf("FragsReceived = %d, want %d: a short frame was counted", s.FragsReceived, len(want))
	}
}
