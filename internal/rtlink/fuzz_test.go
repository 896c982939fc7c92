package rtlink

import (
	"bytes"
	"errors"
	"testing"

	"evm/internal/radio"
)

// FuzzDecodeFragment: decodeFragment never panics, rejects every input
// shorter than the header with errShortFrame, and for every input it
// decodes, re-encoding gives back the input byte for byte. Seeds are
// the encodings of fragments like those appendFragments builds, and
// short frames.
func FuzzDecodeFragment(f *testing.F) {
	for _, fr := range []fragment{
		{src: 10, dst: 20, kind: 5, msgID: 999, idx: 3, total: 7, chunk: []byte("data")},
		{src: 1, dst: radio.Broadcast, kind: 2, msgID: 1, total: 1},
		{src: 0xfffe, dst: 3, kind: 0xff, msgID: 0xffff, idx: 254, total: 255, chunk: make([]byte, 100)},
	} {
		f.Add(fr.appendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add(make([]byte, fragHeaderLen-1))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFragment(b)
		if len(b) < fragHeaderLen {
			if !errors.Is(err, errShortFrame) {
				t.Fatalf("%x: %d bytes decoded with error %v, want errShortFrame", b, len(b), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%x: %v", b, err)
		}
		if again := fr.appendTo(nil); !bytes.Equal(again, b) {
			t.Fatalf("appendTo(decodeFragment(%x)) = %x", b, again)
		}
	})
}
