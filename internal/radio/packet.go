// Package radio models the physical wireless layer of a FireFly-class
// sensor network: an IEEE 802.15.4-like shared medium with distance-based
// packet error rates, Gilbert-Elliott burst losses, collision detection,
// a radio power-state machine with per-state current draw, and an AM-carrier
// global time-synchronization pulse with configurable jitter.
//
// The paper's EVM runs over exactly this substrate (FireFly + CC2420 +
// passive AM sync receiver); here it is simulated on the internal/sim
// discrete-event engine so experiments are deterministic.
package radio

import "fmt"

// NodeID identifies a node on the medium.
type NodeID uint16

// Broadcast addresses a packet to every node in range.
const Broadcast NodeID = 0xFFFF

// String implements fmt.Stringer.
func (id NodeID) String() string {
	if id == Broadcast {
		return "node(*)"
	}
	return fmt.Sprintf("node(%d)", uint16(id))
}

// Kind classifies link-layer payloads. Higher layers (RT-Link, the EVM)
// define their own kinds; the radio treats them opaquely.
type Kind uint8

// Packet is a link-layer frame. Src/Dst are end-to-end addresses; Hop is
// the link-layer next hop chosen by the routing layer (Broadcast means
// every listener delivers the frame). The medium numbers its
// transmissions from 1 in Seq, wrapping, and hands every receiver of one
// transmission the same Seq and Payload. A received Payload is borrowed:
// it lives in a buffer the medium recycles once every receiver's handler
// has returned, so anything kept past the handler must be a copy.
type Packet struct {
	Src     NodeID
	Dst     NodeID
	Hop     NodeID
	Kind    Kind
	Seq     uint32
	Payload []byte
}

// Overhead is the fixed per-frame byte cost (preamble, SFD, FCF, addresses,
// FCS) modeled after an 802.15.4 data frame.
const Overhead = 17

// AirBytes returns the number of bytes the frame occupies on air.
func (p *Packet) AirBytes() int { return Overhead + len(p.Payload) }
