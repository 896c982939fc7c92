package rtlink

import (
	"fmt"
	"time"

	"evm/internal/radio"
)

// LinkStats counts link-layer activity for one node.
type LinkStats struct {
	MsgsSent      int // messages accepted for transmission
	MsgsDelivered int // whole messages delivered to the handler
	FragsSent     int
	FragsReceived int
	FragsRelayed  int
	QueueDrops    int
	// ReserveDeferrals counts slots skipped because the per-frame
	// network reservation was exhausted.
	ReserveDeferrals int
}

// Link is the per-node RT-Link layer: an outgoing fragment queue drained
// one fragment per owned slot, a reassembler, and a static next-hop
// routing table for multi-hop forwarding.
type Link struct {
	net *Network
	r   *radio.Radio
	// txq[txHead:] is the queue of encoded fragments, each in a frame
	// buffer the link owns; popping advances txHead. A sent frame's
	// buffer goes back to spare once the medium has copied it, so a
	// steady flow of messages reuses the same few buffers.
	txq     [][]byte
	txHead  int
	spare   [][]byte
	split   []fragment // Send's scratch list of a message's fragments
	nextID  uint16
	reasm   reassembler
	handler func(Message)
	routes  map[radio.NodeID]radio.NodeID
	stats   LinkStats
	// MaxQueue bounds the fragment queue; 0 means unbounded.
	MaxQueue int
	// txBudget caps fragments transmitted per frame (nano-RK network
	// reservation); 0 means unlimited.
	txBudget    int
	txThisFrame int
	// sets holds two bit sets of the current frame's plan indices: the
	// slots this node listens in, then those it listens in or owns (see
	// listen and member). win is the plan index of the next member slot
	// not yet closed on the radio, or a slot before it; inWin reports
	// that the open of the RX window at win has been applied.
	sets  []uint64
	win   int32
	inWin bool
}

// SetNetworkReservation caps the node's transmissions to n fragments per
// TDMA frame, enforcing a nano-RK-style network reserve. Pass 0 to
// remove the cap.
func (l *Link) SetNetworkReservation(n int) { l.txBudget = n }

// ID returns the node ID.
func (l *Link) ID() radio.NodeID { return l.r.ID() }

// Radio exposes the underlying radio (for failure injection and energy
// accounting in experiments).
func (l *Link) Radio() *radio.Radio { return l.r }

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of fragments waiting for slots.
func (l *Link) QueueLen() int { return len(l.txq) - l.txHead }

// SetHandler installs the message delivery callback. A delivered payload
// may be shared read-only by every receiver of one transmission, and the
// handler borrows it until it returns: a single-fragment payload lives in
// the medium's recycled transmission buffer, so a handler that keeps the
// bytes must copy them.
func (l *Link) SetHandler(fn func(Message)) { l.handler = fn }

// SetRoute installs dst -> nextHop for multi-hop forwarding. The route
// table is made on the first route.
func (l *Link) SetRoute(dst, nextHop radio.NodeID) {
	if l.routes == nil {
		l.routes = make(map[radio.NodeID]radio.NodeID)
	}
	l.routes[dst] = nextHop
}

// nextHop resolves the link-layer hop for an end-to-end destination.
func (l *Link) nextHop(dst radio.NodeID) radio.NodeID {
	if dst == radio.Broadcast {
		return radio.Broadcast
	}
	if h, ok := l.routes[dst]; ok {
		return h
	}
	return dst // assume one hop
}

// Send queues a message for transmission in this node's owned slots. It
// encodes the message's fragments into frame buffers the link owns, so
// the caller may reuse msg.Payload as soon as Send returns.
func (l *Link) Send(msg Message) error {
	if l.r.Failed() {
		return fmt.Errorf("rtlink: node %v is failed", l.ID())
	}
	msg.Src = l.ID()
	l.nextID++
	frags, err := appendFragments(l.split[:0], msg, l.nextID, l.net.cfg.MaxPayload)
	if err != nil {
		return err
	}
	defer clear(frags) // drop the references to msg.Payload
	l.split = frags
	if l.MaxQueue > 0 && l.QueueLen()+len(frags) > l.MaxQueue {
		l.stats.QueueDrops++
		return fmt.Errorf("rtlink: node %v queue full (%d)", l.ID(), l.QueueLen())
	}
	idle := l.QueueLen() == 0
	for i := range frags {
		l.txq = append(l.txq, frags[i].appendTo(l.frameBuf()))
	}
	l.stats.MsgsSent++
	if idle {
		l.net.wake(l)
	}
	return nil
}

// frameBuf returns an empty frame buffer, a spare one if there is one.
func (l *Link) frameBuf() []byte {
	if n := len(l.spare); n > 0 {
		b := l.spare[n-1]
		l.spare = l.spare[:n-1]
		return b
	}
	return make([]byte, 0, fragHeaderLen+l.net.cfg.MaxPayload)
}

// transmitNext sends the head-of-line fragment in the current slot.
func (l *Link) transmitNext() {
	if l.QueueLen() == 0 {
		return
	}
	if l.txBudget > 0 && l.txThisFrame >= l.txBudget {
		l.stats.ReserveDeferrals++
		return // network reserve exhausted for this frame
	}
	l.txThisFrame++
	b := l.txq[l.txHead]
	l.txHead++
	if 2*l.txHead >= len(l.txq) {
		// Slide the rest to the front, so the backing array is reused
		// and a queue that never drains does not grow without bound.
		n := copy(l.txq, l.txq[l.txHead:])
		l.txq, l.txHead = l.txq[:n], 0
	}
	dst := fragmentDst(b)
	pkt := radio.Packet{
		Dst:     dst,
		Hop:     l.nextHop(dst),
		Kind:    dataKind,
		Payload: b,
	}
	if _, err := l.r.Send(pkt); err == nil {
		l.stats.FragsSent++
	}
	// The medium has copied the frame, so its buffer is free again.
	l.spare = append(l.spare, b[:0])
}

// onFrame handles a radio frame addressed to this node's hop. The first
// receiver of a transmission decodes its fragment into the network's
// memo, and every other receiver reads it there. A frame shorter than the
// header is rejected before the memo is read. The frame is borrowed (see
// radio.Radio.SetHandler): a relay queues a copy of it, and the
// reassembler copies the chunks of a multi-fragment message.
func (l *Link) onFrame(pkt radio.Packet) {
	b := pkt.Payload
	if pkt.Kind != dataKind || len(b) < fragHeaderLen {
		return
	}
	n := l.net
	if k := (memoKey{pkt.Seq, &b[0], len(b)}); k != n.lastKey {
		n.remember(k, b)
	}
	f := &n.last
	l.stats.FragsReceived++
	if f.dst != l.ID() && f.dst != radio.Broadcast {
		// Relay toward the destination if a route exists.
		if _, ok := l.routes[f.dst]; ok {
			l.txq = append(l.txq, append(l.frameBuf(), b...))
			l.stats.FragsRelayed++
			if l.QueueLen() == 1 {
				l.net.wake(l)
			}
		}
		return
	}
	msg, done := l.reasm.add(*f)
	if !done {
		return
	}
	l.stats.MsgsDelivered++
	if l.handler != nil {
		l.handler(msg)
	}
	// Broadcast fragments are also relayed by nodes with explicit routes?
	// No: broadcast stays single-hop in this model.
}

// CatchUp applies, in firing order, every transition of the radio that
// the current frame's plan holds and the engine has passed: an RX window
// opens at each slot the node listens in, and the radio goes to sleep
// when any slot it listens in or owns closes. The radio calls it (as its
// radio.Windows) before anything reads or changes its state or battery.
// However many slots have closed since the last call, it costs O(1): the
// radio is asleep after the first close, so the rest charge their RX
// time and the sleep between in one step.
func (l *Link) CatchUp() {
	listen, member := l.listen(), l.member()
	i := nextIn(member, int(l.win))
	if i < 0 {
		return
	}
	n := l.net
	c := n.closedUpTo()
	if i < c {
		// Member slots i.., up to c, have all closed; k of this node's
		// windows follow i, the last at last.
		if !l.inWin && has(listen, i) {
			l.r.OpenWindow(n.slotAt(i))
		}
		k, last := 0, i
		if i+1 < c {
			k, last = spanIn(listen, i+1, c)
		}
		slot := n.cfg.SlotDuration
		l.r.CloseWindows(n.slotAt(i)+slot, time.Duration(k)*slot, n.slotAt(max(i, last))+slot)
		l.inWin = false
	}
	// Every member slot before c has closed and none after c has
	// opened, so only slot c's window can be open.
	l.win = int32(c)
	if !l.inWin && has(listen, c) && n.opened(c) {
		l.r.OpenWindow(n.slotAt(c))
		l.inWin = true
	}
}

// PendingRX implements radio.Windows: it reports when the window of the
// frame's open slot c opened, if l listens in c and CatchUp has not
// applied that window yet. CatchUp would then end by opening it, so a
// frame on the air since then finds a live radio listening, unless
// something changed the radio's state after the window opened; the
// radio checks that. A link that joined while c was open counts the
// window as applied (see Network.Join), so it is never pending.
func (l *Link) PendingRX() (time.Duration, bool) {
	n := l.net
	if n.fp == nil {
		return 0, false
	}
	c := n.closedUpTo()
	if (l.inWin && int(l.win) == c) || !has(l.listen(), c) || !n.opened(c) {
		return 0, false
	}
	return n.slotAt(c), true
}

// listen returns the bit set of the slots l listens in, in the current
// frame's plan.
func (l *Link) listen() []uint64 { return l.sets[:len(l.sets)/2] }

// member returns the bit set of the slots l listens in or owns.
func (l *Link) member() []uint64 { return l.sets[len(l.sets)/2:] }
