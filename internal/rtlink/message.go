// Package rtlink implements an RT-Link-style time-synchronized TDMA link
// protocol over the internal/radio medium.
//
// RT-Link (Rowe, Mangharam, Rajkumar; SECON 2006) organizes time into
// fixed-length frames of transmission slots. A global out-of-band AM sync
// pulse marks every frame boundary; nodes transmit only in slots they own
// and listen only in slots where a neighbor may address them, sleeping the
// rest of the frame. Communication in owned slots is collision-free, which
// is what gives the EVM its bounded-latency control loops.
package rtlink

import (
	"encoding/binary"
	"errors"
	"fmt"

	"evm/internal/radio"
)

// Kind is the application-level message type carried end-to-end.
type Kind uint8

// Message is the unit handed to and received from the link layer. Messages
// larger than the slot payload are fragmented transparently.
type Message struct {
	Src     radio.NodeID
	Dst     radio.NodeID // end-to-end destination (Broadcast allowed)
	Kind    Kind
	Payload []byte
}

// fragment header layout (big endian):
//
//	0:2  src
//	2:4  dst
//	4    kind
//	5:7  msgID
//	7    frag index
//	8    frag total
const fragHeaderLen = 9

var errShortFrame = errors.New("rtlink: frame shorter than fragment header")

type fragment struct {
	src   radio.NodeID
	dst   radio.NodeID
	kind  Kind
	msgID uint16
	idx   uint8
	total uint8
	chunk []byte
}

// appendTo appends the fragment's on-air encoding to dst.
func (f *fragment) appendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.src))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.dst))
	dst = append(dst, byte(f.kind))
	dst = binary.BigEndian.AppendUint16(dst, f.msgID)
	dst = append(dst, f.idx, f.total)
	return append(dst, f.chunk...)
}

// decodeFragment parses an on-air fragment. The chunk aliases b: frames
// are shared read-only between receivers, so the fragment (and a
// single-fragment message built from it) borrows the frame for as long
// as the frame's handler runs, and whatever keeps the chunk longer
// copies it.
func decodeFragment(b []byte) (fragment, error) {
	if len(b) < fragHeaderLen {
		return fragment{}, errShortFrame
	}
	return fragment{
		src:   radio.NodeID(binary.BigEndian.Uint16(b[0:2])),
		dst:   radio.NodeID(binary.BigEndian.Uint16(b[2:4])),
		kind:  Kind(b[4]),
		msgID: binary.BigEndian.Uint16(b[5:7]),
		idx:   b[7],
		total: b[8],
		chunk: b[fragHeaderLen:],
	}, nil
}

// fragmentDst returns the destination field of an encoded fragment.
func fragmentDst(b []byte) radio.NodeID { return radio.NodeID(binary.BigEndian.Uint16(b[2:4])) }

// appendFragments splits a message into slot-sized fragments and appends
// them to dst. Their chunks alias msg.Payload.
func appendFragments(dst []fragment, msg Message, msgID uint16, maxChunk int) ([]fragment, error) {
	if maxChunk <= 0 {
		return dst, fmt.Errorf("rtlink: maxChunk %d", maxChunk)
	}
	n := (len(msg.Payload) + maxChunk - 1) / maxChunk
	if n == 0 {
		n = 1
	}
	if n > 255 {
		return dst, fmt.Errorf("rtlink: message of %d bytes needs %d fragments (max 255)", len(msg.Payload), n)
	}
	for i := 0; i < n; i++ {
		lo := i * maxChunk
		hi := min(lo+maxChunk, len(msg.Payload))
		dst = append(dst, fragment{
			src:   msg.Src,
			dst:   msg.Dst,
			kind:  msg.Kind,
			msgID: msgID,
			idx:   uint8(i),
			total: uint8(n),
			chunk: msg.Payload[lo:hi],
		})
	}
	return dst, nil
}

// reasmWindow is how far, in message IDs mod 2^16, a source's newest
// message may run ahead of one of its partial messages before the partial
// is evicted. A source's fragments reach a receiver in send order up to
// relay lag (queues are FIFO and the link never retransmits), so a partial
// that far behind has lost a fragment for good. Evicting it bounds the
// reassembler and keeps a wrapped message ID from splicing the stale
// chunks into a new message.
const reasmWindow = 1024

// reassembler collects fragments into whole messages. Its zero value is
// ready to use.
type reassembler struct {
	// partial holds each source's incomplete messages in arrival order;
	// a source with none has no entry. It is made with the first
	// fragment of a multi-fragment message.
	partial map[radio.NodeID][]*reasmState
}

type reasmState struct {
	msgID  uint16
	total  uint8
	have   int
	chunks [][]byte
	kind   Kind
	dst    radio.NodeID
}

// add returns the completed message when the final fragment arrives.
func (r *reassembler) add(f fragment) (Message, bool) {
	if len(r.partial) > 0 {
		r.evict(f.src, f.msgID)
	}
	if f.total <= 1 {
		return Message{Src: f.src, Dst: f.dst, Kind: f.kind, Payload: f.chunk}, true
	}
	parts := r.partial[f.src]
	at := -1
	for i, st := range parts {
		if st.msgID == f.msgID {
			at = i
			break
		}
	}
	if at < 0 {
		at = len(parts)
		parts = append(parts, &reasmState{msgID: f.msgID, total: f.total, chunks: make([][]byte, f.total), kind: f.kind, dst: f.dst})
		if r.partial == nil {
			r.partial = make(map[radio.NodeID][]*reasmState)
		}
		r.partial[f.src] = parts
	}
	st := parts[at]
	if int(f.idx) < len(st.chunks) && st.chunks[f.idx] == nil {
		// The chunk aliases a borrowed frame, so the partial message
		// keeps a copy.
		st.chunks[f.idx] = append(make([]byte, 0, len(f.chunk)), f.chunk...)
		st.have++
	}
	if st.have < int(st.total) {
		return Message{}, false
	}
	r.drop(f.src, at)
	size := 0
	for _, c := range st.chunks {
		size += len(c)
	}
	payload := make([]byte, 0, size)
	for _, c := range st.chunks {
		payload = append(payload, c...)
	}
	return Message{Src: f.src, Dst: f.dst, Kind: st.kind, Payload: payload}, true
}

// evict drops src's partial messages that msgID has overtaken by more than
// reasmWindow, comparing mod 2^16.
func (r *reassembler) evict(src radio.NodeID, msgID uint16) {
	parts := r.partial[src]
	for i := len(parts) - 1; i >= 0; i-- {
		if ahead := msgID - parts[i].msgID; ahead > reasmWindow && ahead < 1<<15 {
			r.drop(src, i)
			parts = r.partial[src]
		}
	}
}

// drop removes src's i-th partial message.
func (r *reassembler) drop(src radio.NodeID, i int) {
	parts := r.partial[src]
	if len(parts) == 1 {
		delete(r.partial, src)
		return
	}
	copy(parts[i:], parts[i+1:])
	parts[len(parts)-1] = nil
	r.partial[src] = parts[:len(parts)-1]
}
