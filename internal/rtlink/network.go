package rtlink

import (
	"cmp"
	"fmt"
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
type Network struct {
	eng   *sim.Engine
	med   *radio.Medium
	cfg   Config
	sched Schedule
	// links holds the joined links sorted by node ID. Frame-loop state
	// changes (reserve replenish, sync wake/sleep) iterate it in that
	// order, so per-frame radio state transitions land in the same order
	// every run.
	links []*Link
	// byID indexes the joined links by node ID (nil where none joined),
	// so the per-slot listener lookups are reads, not searches. The cell
	// builders number nodes 1..N, so the table stays short.
	byID []*Link
	// slots caches the sorted slot indices of sched, so per-frame slot
	// scheduling is deterministic without re-sorting each frame; assigns
	// holds sched[slots[i]] at i, so slots open without a map lookup.
	slots   []int
	assigns []SlotAssign
	frame   uint64

	// The frame loop posts the same four callbacks every frame; they are
	// bound once in NewNetwork instead of allocated per frame and per
	// slot. An active frame reserves the engine sequence numbers its slot
	// callbacks would take if all were posted at frame start, and queues
	// them one slot at a time: each slot open queues its own close and
	// the next open. Firing order is unchanged and the engine queue holds
	// a few entries per network instead of two per slot.
	frameFn, syncSleepFn, openSlotFn, closeSlotFn func()
	frameSlots                                    []int
	frameAssigns                                  []SlotAssign
	frameStart                                    time.Duration
	frameSeq                                      uint64 // first reserved sequence number
	openNext                                      int    // index into frameSlots of the next slot to open

	started bool
	stopped bool
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
	n.openSlotFn = n.openNextSlot
	n.closeSlotFn = n.closeOpenSlot
	return n, nil
}

// slotAt returns when the i-th slot of the current frame opens.
func (n *Network) slotAt(i int) time.Duration {
	return n.frameStart + time.Duration(n.frameSlots[i])*n.cfg.SlotDuration
}

// openNextSlot opens the frame's next slot after queuing, under their
// reserved sequence numbers, that slot's close and the following open.
func (n *Network) openNextSlot() {
	i := n.openNext
	n.openNext++
	at := n.slotAt(i)
	n.eng.PostReserved(at+n.cfg.SlotDuration, -1, n.frameSeq+2+2*uint64(i), n.closeSlotFn)
	if i+1 < len(n.frameSlots) {
		n.eng.PostReserved(n.slotAt(i+1), 0, n.frameSeq+1+2*uint64(i+1), n.openSlotFn)
	}
	n.openSlot(n.frameAssigns[i])
}

// closeOpenSlot closes the slot openNextSlot opened last. A slot's close
// falls due no later than the next slot's open and, at prio -1, fires
// first on a tie, so it always runs between the two.
func (n *Network) closeOpenSlot() {
	n.closeSlot(n.frameAssigns[n.openNext-1])
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
	n.slots = sim.SortedKeys(s)
	n.assigns = make([]SlotAssign, len(n.slots))
	for i, slot := range n.slots {
		n.assigns[i] = s[slot]
	}
}

// Join creates the link layer for a node whose radio is already attached
// to the medium.
func (n *Network) Join(id radio.NodeID) (*Link, error) {
	r := n.med.Radio(id)
	if r == nil {
		return nil, fmt.Errorf("rtlink: node %v has no radio on the medium", id)
	}
	at, found := n.find(id)
	if found {
		return nil, fmt.Errorf("rtlink: node %v already joined", id)
	}
	l := &Link{
		net:    n,
		r:      r,
		reasm:  newReassembler(),
		routes: make(map[radio.NodeID]radio.NodeID),
	}
	r.SetHandler(l.onFrame)
	n.links = slices.Insert(n.links, at, l)
	if int(id) >= len(n.byID) {
		n.byID = append(n.byID, make([]*Link, int(id)+1-len(n.byID))...)
	}
	n.byID[id] = l
	return l, nil
}

// find returns where the link of id is, or would be inserted, in n.links,
// and whether it is there.
func (n *Network) find(id radio.NodeID) (int, bool) {
	return slices.BinarySearchFunc(n.links, id, func(l *Link, id radio.NodeID) int { return cmp.Compare(l.r.ID(), id) })
}

// Leave removes a node's link layer (the rollback of Join, used when a
// runtime admission fails partway). The node's radio stays attached; the
// caller decides whether to detach it from the medium as well.
func (n *Network) Leave(id radio.NodeID) {
	at, ok := n.find(id)
	if !ok {
		return
	}
	n.links[at].r.SetHandler(nil)
	n.links = slices.Delete(n.links, at, at+1)
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
	for _, l := range n.links {
		l.txThisFrame = 0 // replenish network reserves
	}
	if active {
		// Sync slot: every live node wakes to catch the AM pulse.
		n.med.Sync()
		for _, l := range n.links {
			if !l.r.Failed() {
				l.r.SetState(radio.StateRX)
			}
		}
		// Capture: SetSchedule applies next frame. Slots run in ascending
		// order so engine insertion order (the tie-break for same-time,
		// same-priority events) never depends on map order. The sequence
		// numbers are the sync-sleep callback's, then each slot's open and
		// close in turn.
		n.frameSlots, n.frameAssigns, n.frameStart, n.openNext = n.slots, n.assigns, frameStart, 0
		n.frameSeq = n.eng.Reserve(1 + 2*len(n.slots))
		n.eng.PostReserved(frameStart+n.cfg.SlotDuration, -1, n.frameSeq, n.syncSleepFn)
		if tracer := n.eng.Tracer(); tracer != nil {
			for i, slot := range n.slots {
				at := frameStart + time.Duration(slot)*n.cfg.SlotDuration
				tracer.Complete("slot", "rtlink", "rtlink", at, at+n.cfg.SlotDuration,
					span.Arg{Key: "slot", Val: strconv.Itoa(slot)},
					span.Arg{Key: "owner", Val: strconv.Itoa(int(n.assigns[i].Owner))})
			}
		}
		if len(n.slots) > 0 {
			n.eng.PostReserved(n.slotAt(0), 0, n.frameSeq+1, n.openSlotFn)
		}
	}
	n.eng.Post(frameStart+n.cfg.FrameDuration(), 0, n.frameFn)
}

// syncSleep ends the sync slot: every live node returns to sleep.
func (n *Network) syncSleep() {
	for _, l := range n.links {
		if !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
}

// openSlot wakes the listeners and fires the owner's transmission.
func (n *Network) openSlot(as SlotAssign) {
	for _, id := range as.Listeners {
		if l := n.Link(id); l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateRX)
		}
	}
	owner := n.Link(as.Owner)
	if owner == nil || owner.r.Failed() {
		return
	}
	owner.transmitNext()
}

// closeSlot returns all participants to sleep.
func (n *Network) closeSlot(as SlotAssign) {
	for _, id := range as.Listeners {
		if l := n.Link(id); l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
	if owner := n.Link(as.Owner); owner != nil && !owner.r.Failed() {
		owner.r.SetState(radio.StateSleep)
	}
}
