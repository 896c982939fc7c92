package rtlink

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"evm/internal/radio"
	"evm/internal/sim"
	"evm/internal/span"
)

// dataKind is the radio.Kind used for RT-Link data frames.
const dataKind radio.Kind = 1

// Network drives the TDMA frame structure for a set of links sharing a
// medium. One Network corresponds to one synchronized RT-Link cell.
//
// Within an active frame the engine runs only the frame callback, the
// end of the sync slot and the opens of slots whose owner has a fragment
// queued. A slot's listeners get their RX window, and its owner and
// listeners their return to sleep at its close, from the frame's plan,
// not from an event: each Link applies the transitions the engine has
// gone past, in the engine's firing order, before anything reads or
// changes its radio (see Link.CatchUp).
type Network struct {
	eng   *sim.Engine
	med   *radio.Medium
	cfg   Config
	sched Schedule
	// byID indexes the joined links by node ID (nil where none joined).
	// Frame-loop state changes (reserve replenish, sync wake/sleep)
	// iterate it, so they land in node-ID order every run. The cell
	// builders number nodes 1..N, so the table stays short.
	byID []*Link
	// plan is sched resolved for the frame loop; an active frame
	// captures it, so SetSchedule applies from the next frame.
	plan  *plan
	frame uint64

	// The frame loop posts the same three callbacks every frame; they
	// are bound once in NewNetwork. An active frame reserves the engine
	// sequence numbers its sync-sleep callback and each slot's open and
	// close would take if all were posted at frame start, and queues
	// only the opens of slots that transmit (see queueFrom and wake).
	// The reserved positions of the rest tell the links' catch-up where
	// each RX window opened and closed.
	frameFn, syncSleepFn, openSlotFn func()
	fp                               *plan // the current active frame's plan
	frameStart                       time.Duration
	frameSeq                         uint64 // first reserved sequence number
	queued                           []bool // queued[i]: slot i's open is in the engine queue
	closedN                          int    // how many of the frame's slots had closed at the last look

	// last is the fragment of the latest transmission a link decoded;
	// every other receiver of that transmission reads it from here (see
	// Link.onFrame). lastKey names the transmission.
	last    fragment
	lastKey memoKey

	started bool
	stopped bool
}

// plan is a schedule resolved for the frame loop, built once per
// SetSchedule. Its slot i is the schedule's i-th slot in ascending
// order. sets holds three bit sets of plan indices per node ID, words
// words each: the slots the node listens in, the slots it listens in or
// owns (whose close puts its radio to sleep), and the slots it owns.
type plan struct {
	slots   []int
	assigns []SlotAssign
	words   int
	sets    []uint64
}

func newPlan(s Schedule) *plan {
	p := &plan{slots: sim.SortedKeys(s)}
	p.assigns = make([]SlotAssign, len(p.slots))
	var top radio.NodeID
	for i, slot := range p.slots {
		as := s[slot]
		p.assigns[i] = as
		top = max(top, as.Owner)
		for _, id := range as.Listeners {
			top = max(top, id)
		}
	}
	p.words = (len(p.slots) + 63) / 64
	p.sets = make([]uint64, 3*p.words*(int(top)+1))
	for i, as := range p.assigns {
		w, bit := i/64, uint64(1)<<(i%64)
		p.owning(as.Owner)[w] |= bit
		p.member(as.Owner)[w] |= bit
		for _, id := range as.Listeners {
			p.listening(id)[w] |= bit
			p.member(id)[w] |= bit
		}
	}
	return p
}

// listening returns the bit set of the slots id listens in.
func (p *plan) listening(id radio.NodeID) []uint64 { return p.sets3(id, 0, 1) }

// member returns the bit set of the slots id listens in or owns.
func (p *plan) member(id radio.NodeID) []uint64 { return p.sets3(id, 1, 2) }

// owning returns the bit set of the slots id owns.
func (p *plan) owning(id radio.NodeID) []uint64 { return p.sets3(id, 2, 3) }

// sets3 returns sets from..to-1 of id's three, back to back.
func (p *plan) sets3(id radio.NodeID, from, to int) []uint64 {
	if at := 3 * int(id) * p.words; at < len(p.sets) {
		return p.sets[at+from*p.words : at+to*p.words]
	}
	return nil
}

// has reports whether set holds plan index i.
func has(set []uint64, i int) bool {
	w := uint(i) / 64
	return w < uint(len(set)) && set[w]&(1<<(uint(i)%64)) != 0
}

// nextIn returns the first plan index at or after i in set, or -1.
func nextIn(set []uint64, i int) int {
	first := uint(i) / 64
	for w := first; w < uint(len(set)); w++ {
		word := set[w]
		if w == first {
			word &= ^uint64(0) << (uint(i) % 64)
		}
		if word != 0 {
			return int(w*64) + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// spanIn returns how many plan indices in [lo, hi) set holds, and the
// last of them (-1 if none).
func spanIn(set []uint64, lo, hi int) (count, last int) {
	last = -1
	first := uint(lo) / 64
	for w := first; int(w*64) < hi && w < uint(len(set)); w++ {
		word := set[w]
		if w == first {
			word &= ^uint64(0) << (uint(lo) % 64)
		}
		if end := uint(hi) - w*64; end < 64 {
			word &= 1<<end - 1
		}
		if word != 0 {
			count += bits.OnesCount64(word)
			last = int(w*64) + 63 - bits.LeadingZeros64(word)
		}
	}
	return count, last
}

// NewNetwork creates a TDMA network over the medium. The schedule may be
// replaced at runtime with SetSchedule.
func NewNetwork(med *radio.Medium, cfg Config, sched Schedule) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(cfg); err != nil {
		return nil, err
	}
	// A maximal fragment must fit on air inside one slot, or listeners
	// would sleep mid-frame and every full slot would be lost.
	airBytes := cfg.MaxPayload + fragHeaderLen + radio.Overhead
	airTime := time.Duration(float64(airBytes*8) / med.Config().BitrateBPS * float64(time.Second))
	if airTime > cfg.SlotDuration {
		return nil, fmt.Errorf("rtlink: max fragment air time %v exceeds slot %v", airTime, cfg.SlotDuration)
	}
	n := &Network{eng: med.Engine(), med: med, cfg: cfg}
	n.setSchedule(sched)
	n.frameFn = n.runFrame
	n.syncSleepFn = n.syncSleep
	n.openSlotFn = n.openSlot
	return n, nil
}

// slotAt returns when slot i of the current frame's plan opens.
func (n *Network) slotAt(i int) time.Duration {
	return n.frameStart + time.Duration(n.fp.slots[i])*n.cfg.SlotDuration
}

// opened reports whether the open of the frame's slot i has passed.
func (n *Network) opened(i int) bool {
	return n.eng.Passed(n.slotAt(i), 0, n.frameSeq+1+2*uint64(i))
}

// closedUpTo returns how many of the frame's slots have closed: slot i
// has iff i is below the result. A slot's close falls due no later than
// the next slot's open and, at prio -1, sorts first on a tie, so at most
// the slot at the result is open. The count only grows within a frame,
// so a call costs O(1) amortized.
func (n *Network) closedUpTo() int {
	for c := n.closedN; c < len(n.fp.slots); c++ {
		if !n.eng.Passed(n.slotAt(c)+n.cfg.SlotDuration, -1, n.frameSeq+2+2*uint64(c)) {
			break
		}
		n.closedN++
	}
	return n.closedN
}

// memoKey names a transmission: every receiver of one is handed the
// same packet, with the medium's per-transmission Seq and one payload
// that no receiver may change, so Seq with the payload's backing array
// and length tells one transmission from another.
type memoKey struct {
	seq uint32
	buf *byte
	n   int
}

// remember decodes b, the payload of the transmission k names, into the
// memo (see Link.onFrame). The medium numbers its transmissions from 1,
// so a packet with Seq 0 was built by hand: its fragment is kept under
// no key, and the next such packet is decoded again.
func (n *Network) remember(k memoKey, b []byte) {
	if k.seq == 0 {
		k = memoKey{}
	}
	n.last, _ = decodeFragment(b)
	n.lastKey = k
}

// Config returns the frame configuration.
func (n *Network) Config() Config { return n.cfg }

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Frame returns the number of frames started so far.
func (n *Network) Frame() uint64 { return n.frame }

// Schedule returns the current slot schedule.
func (n *Network) Schedule() Schedule { return n.sched }

// SetSchedule swaps the slot schedule; it takes effect at the next frame
// boundary (the EVM uses this for runtime slot reassignment). The network
// keeps s, so build a new schedule rather than editing one in place.
func (n *Network) SetSchedule(s Schedule) error {
	if err := s.Validate(n.cfg); err != nil {
		return err
	}
	n.setSchedule(s)
	return nil
}

func (n *Network) setSchedule(s Schedule) {
	n.sched = s
	n.plan = newPlan(s)
}

// Join creates the link layer for a node whose radio is already attached
// to the medium.
func (n *Network) Join(id radio.NodeID) (*Link, error) {
	r := n.med.Radio(id)
	if r == nil {
		return nil, fmt.Errorf("rtlink: node %v has no radio on the medium", id)
	}
	if n.Link(id) != nil {
		return nil, fmt.Errorf("rtlink: node %v already joined", id)
	}
	l := &Link{net: n, r: r}
	// A link joining mid-frame takes the transitions of this frame's
	// windows that are still to come: a window already open when it
	// joins still closes on it.
	if n.fp != nil {
		c := n.closedUpTo()
		l.sets, l.win = n.fp.sets3(id, 0, 2), int32(c)
		l.inWin = has(l.listen(), c) && n.opened(c)
	}
	r.SetHandler(l.onFrame)
	r.SetWindows(l)
	if int(id) >= len(n.byID) {
		n.byID = append(n.byID, make([]*Link, int(id)+1-len(n.byID))...)
	}
	n.byID[id] = l
	return l, nil
}

// Leave removes a node's link layer (the rollback of Join, used when a
// runtime admission fails partway). The node's radio stays attached, in
// the state the windows so far left it; the caller decides whether to
// detach it from the medium as well.
func (n *Network) Leave(id radio.NodeID) {
	l := n.Link(id)
	if l == nil {
		return
	}
	l.CatchUp()
	l.r.SetWindows(nil)
	l.r.SetHandler(nil)
	n.byID[id] = nil
}

// Link returns the link layer for id, or nil.
func (n *Network) Link(id radio.NodeID) *Link {
	if int(id) < len(n.byID) {
		return n.byID[id]
	}
	return nil
}

// Start begins the TDMA frame loop at the current virtual time.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	n.eng.Post(n.eng.Now(), 0, n.frameFn)
}

// Stop halts the frame loop after the current frame completes.
func (n *Network) Stop() { n.stopped = true }

func (n *Network) runFrame() {
	if n.stopped {
		return
	}
	frameStart := n.eng.Now()
	n.frame++
	active := (n.frame-1)%uint64(n.cfg.ActiveFrameEvery) == 0
	if t := n.eng.Tracer(); t != nil && active {
		t.Complete("frame", "rtlink", "rtlink", frameStart, frameStart+n.cfg.FrameDuration(),
			span.Arg{Key: "frame", Val: strconv.FormatUint(n.frame, 10)})
	}
	for _, l := range n.byID {
		if l == nil {
			continue
		}
		l.txThisFrame = 0 // replenish network reserves
		if active {
			// Apply the last frame's windows before its plan goes.
			l.CatchUp()
			l.sets, l.win, l.inWin = n.plan.sets3(l.r.ID(), 0, 2), 0, false
		}
	}
	if active {
		// Capture: SetSchedule applies next frame. The sequence numbers
		// are the sync-sleep callback's, then each slot's open and close
		// in turn, slots in ascending order, so engine insertion order
		// (the tie-break for same-time, same-priority events) never
		// depends on map order.
		n.fp, n.frameStart, n.closedN = n.plan, frameStart, 0
		n.frameSeq = n.eng.Reserve(1 + 2*len(n.fp.slots))
		n.eng.PostReserved(frameStart+n.cfg.SlotDuration, -1, n.frameSeq, n.syncSleepFn)
		// Sync slot: every live node wakes to catch the AM pulse.
		n.med.Sync()
		for _, l := range n.byID {
			if l != nil && !l.r.Failed() {
				l.r.SetState(radio.StateRX)
			}
		}
		if tracer := n.eng.Tracer(); tracer != nil {
			for i, slot := range n.fp.slots {
				at := frameStart + time.Duration(slot)*n.cfg.SlotDuration
				tracer.Complete("slot", "rtlink", "rtlink", at, at+n.cfg.SlotDuration,
					span.Arg{Key: "slot", Val: strconv.Itoa(slot)},
					span.Arg{Key: "owner", Val: strconv.Itoa(int(n.fp.assigns[i].Owner))})
			}
		}
		n.queued = slices.Grow(n.queued[:0], len(n.fp.slots))[:len(n.fp.slots)]
		clear(n.queued)
		n.queueFrom(0)
	}
	n.eng.Post(frameStart+n.cfg.FrameDuration(), 0, n.frameFn)
}

// syncSleep ends the sync slot: every live node returns to sleep.
func (n *Network) syncSleep() {
	for _, l := range n.byID {
		if l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
}

// queueFrom queues the open of the frame's first slot from i on whose
// owner has a fragment queued, unless a slot before it is queued
// already: that slot's open scans on from there when it fires.
func (n *Network) queueFrom(i int) {
	for ; i < len(n.fp.slots); i++ {
		if n.queued[i] {
			return
		}
		if o := n.Link(n.fp.assigns[i].Owner); o != nil && o.QueueLen() > 0 {
			n.queue(i)
			return
		}
	}
}

// queue posts the open of the frame's slot i at its reserved position.
func (n *Network) queue(i int) {
	n.queued[i] = true
	n.eng.PostReserved(n.slotAt(i), 0, n.frameSeq+1+2*uint64(i), n.openSlotFn)
}

// wake queues the open of l's next owned slot in this frame, if any, when
// l's queue has just become non-empty. Every other slot that must fire
// is queued by the frame start or the open before it.
func (n *Network) wake(l *Link) {
	if n.fp == nil {
		return
	}
	set := n.fp.owning(l.ID())
	for i := nextIn(set, 0); i >= 0; i = nextIn(set, i+1) {
		if !n.opened(i) {
			if !n.queued[i] {
				n.queue(i)
			}
			return
		}
	}
}

// openSlot fires the owner's transmission in the slot opening now, then
// queues the next slot that transmits. A live owner sends its
// head-of-line fragment, or counts a reserve deferral.
func (n *Network) openSlot() {
	i, _ := slices.BinarySearch(n.fp.slots, int((n.eng.Now()-n.frameStart)/n.cfg.SlotDuration))
	if owner := n.Link(n.fp.assigns[i].Owner); owner != nil && !owner.r.Failed() {
		owner.transmitNext()
	}
	n.queueFrom(i + 1)
}
