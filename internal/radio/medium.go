package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
)

// State is the radio power state.
type State int

// Radio power states. Sleep is the deepest state; Idle means the MCU is
// awake with the radio off; RX and TX are the active radio states.
const (
	StateSleep State = iota + 1
	StateIdle
	StateRX
	StateTX
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateIdle:
		return "idle"
	case StateRX:
		return "rx"
	case StateTX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DropReason classifies why a frame was not delivered to a receiver.
type DropReason int

// Drop reasons recorded in Stats.
const (
	DropLoss DropReason = iota + 1 // stochastic channel loss
	DropCollision
	DropNotListening
	DropOutOfRange
)

// Config parameterizes the medium.
type Config struct {
	// BitrateBPS is the air data rate (802.15.4: 250 kbit/s).
	BitrateBPS float64
	// RangeM is the maximum communication distance.
	RangeM float64
	// RefPER is the packet error rate at RangeM/2 used by the
	// distance-loss curve (PER grows with distance^2 up to RangeM).
	RefPER float64
	// Burst enables a Gilbert-Elliott two-state burst-loss overlay.
	Burst GilbertElliott
}

// DefaultConfig returns 802.15.4-like parameters.
func DefaultConfig() Config {
	return Config{
		BitrateBPS: 250_000,
		RangeM:     30,
		RefPER:     0.02,
		Burst:      DefaultGilbertElliott(),
	}
}

// GilbertElliott is a classical two-state burst-loss channel: in the Good
// state packets drop with PGood, in Bad with PBad; states flip with the
// given per-packet transition probabilities.
type GilbertElliott struct {
	PGood     float64 // loss probability in Good state
	PBad      float64 // loss probability in Bad state
	GoodToBad float64
	BadToGood float64
}

// DefaultGilbertElliott returns a mild burst-loss channel.
func DefaultGilbertElliott() GilbertElliott {
	return GilbertElliott{PGood: 0, PBad: 0.6, GoodToBad: 0.01, BadToGood: 0.25}
}

type linkState struct {
	bad bool
}

// outOfRange marks the pair-table entries of radios too far apart to hear
// each other. No loss is ever drawn on it.
var outOfRange = new(linkState)

type linkKey struct{ a, b NodeID }

// Position is a 2-D node location in meters.
type Position struct{ X, Y float64 }

// Distance returns the Euclidean distance to q.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Stats accumulates medium-wide counters.
type Stats struct {
	Sent         int
	Delivered    int
	DroppedLoss  int
	DroppedColl  int
	DroppedNoRX  int
	DroppedRange int
}

// Medium is the shared wireless channel. It owns all radios and performs
// propagation, loss and collision resolution on the simulation engine.
type Medium struct {
	eng *sim.Engine
	rng *sim.RNG
	cfg Config
	// radios lists the attached radios sorted by ID. Every loss/collision
	// draw iterates them in this order so the PRNG stream assignment is
	// the same on every run — same seed, byte-identical runs; lookups by
	// ID binary-search it.
	radios []*Radio
	// pairs holds, for each unordered pair of attached radios, its burst
	// state or outOfRange (see pair), so the per-receiver work of a
	// transmission reads the table instead of taking distances and
	// hashing link keys. An in-range entry is nil until the pair's first
	// loss draw fetches it from links. On a lossless medium a pair with
	// no state in links keeps a nil entry and gets no state made: it is
	// in the Good state, where lossDraw skips its draws, so a run that
	// cannot lose a frame builds no burst state. Attach and Detach drop
	// the table; the next transmission rebuilds it and renumbers
	// Radio.idx. They also replace radios rather than edit it in place,
	// so a frame whose receive handler attaches or detaches a radio
	// finishes delivery against the radios and table it started with.
	pairs []*linkState
	// links is the canonical burst state of each unordered pair; it
	// outlives pairs, so a pair's state survives Detach and re-Attach.
	// It is made with the first pair's state.
	links map[linkKey]*linkState
	stats Stats
	// forcedPER overrides the distance model when >= 0 (used by
	// experiments that sweep loss rates directly).
	forcedPER float64
	seq       uint32
	// lossless reports that no frame can be lost on a pair in the Good
	// burst state: it never turns Bad, loses nothing there, and the
	// pair's PER is exactly 0 (see lossDraw).
	lossless bool
	// free recycles transmissions whose completion has fired.
	free []*transmission
}

// NewMedium creates a medium on the given engine with its own PRNG stream.
func NewMedium(eng *sim.Engine, rng *sim.RNG, cfg Config) *Medium {
	m := &Medium{eng: eng, rng: rng, cfg: cfg}
	m.ForcePER(-1)
	return m
}

// Engine returns the simulation engine the medium runs on.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// Config returns the medium configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// ForcePER overrides the distance-based loss model with a fixed packet
// error rate on every link. Pass a negative value to restore the model.
func (m *Medium) ForcePER(per float64) {
	m.forcedPER = per
	ge := m.cfg.Burst
	m.lossless = ge.GoodToBad <= 0 && ge.PGood <= 0 && (per == 0 || per < 0 && m.cfg.RefPER == 0)
}

// ForcedPER returns the forced packet error rate, or a negative value
// when the distance model is active.
func (m *Medium) ForcedPER() float64 { return m.forcedPER }

// Attach creates and registers a radio for the node, whose battery (if
// any) it charges at model's currents. Attaching a duplicate ID returns
// an error. A radio attached from a receive handler is not reached by
// the frame being delivered.
func (m *Medium) Attach(id NodeID, pos Position, battery *Battery, model EnergyModel) (*Radio, error) {
	at, found := m.find(id)
	if found {
		return nil, fmt.Errorf("radio: node %v already attached", id)
	}
	r := &Radio{
		id:        id,
		med:       m,
		pos:       pos,
		state:     StateSleep,
		lastSince: m.eng.Now(),
		chargedTo: m.eng.Now(),
		battery:   battery,
	}
	if battery != nil {
		battery.model = model
	}
	m.radios = slices.Concat(m.radios[:at], []*Radio{r}, m.radios[at:])
	m.pairs = nil
	return r, nil
}

// find returns where the radio of id is, or would be inserted, in
// m.radios, and whether it is there.
func (m *Medium) find(id NodeID) (int, bool) {
	return slices.BinarySearchFunc(m.radios, id, func(r *Radio, id NodeID) int { return cmp.Compare(r.id, id) })
}

// Detach removes a node's radio from the medium (the rollback of Attach,
// used when a runtime admission fails partway). Frames still in flight
// toward or from the node are silently lost, and the detached radio can
// no longer send.
func (m *Medium) Detach(id NodeID) {
	if at, ok := m.find(id); ok {
		m.radios[at].idx = -1
		m.radios = slices.Concat(m.radios[:at], m.radios[at+1:])
		m.pairs = nil
	}
}

// Radio returns the radio attached for id, or nil.
func (m *Medium) Radio(id NodeID) *Radio {
	if at, ok := m.find(id); ok {
		return m.radios[at]
	}
	return nil
}

// Nodes returns the IDs of all attached radios in ascending order, so
// callers iterating the result stay deterministic without re-sorting.
func (m *Medium) Nodes() []NodeID {
	ids := make([]NodeID, len(m.radios))
	for i, r := range m.radios {
		ids[i] = r.id
	}
	return ids
}

// link returns the burst state of the pair a, b, making it on first use.
func (m *Medium) link(a, b NodeID) *linkState {
	k := pairKey(a, b)
	ls, ok := m.links[k]
	if !ok {
		if m.links == nil {
			m.links = make(map[linkKey]*linkState)
		}
		ls = &linkState{}
		m.links[k] = ls
	}
	return ls
}

// pairKey returns the links key of the unordered pair a, b.
func pairKey(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// index returns r's position in m.radios, rebuilding the pair table if
// it was dropped, and whether r is attached.
func (m *Medium) index(r *Radio) (int, bool) {
	if m.pairs == nil {
		n := len(m.radios)
		m.pairs = make([]*linkState, n*(n-1)/2)
		for i, a := range m.radios {
			a.idx = int32(i)
			for j, b := range m.radios[:i] {
				if a.pos.Distance(b.pos) >= m.cfg.RangeM {
					m.pairs[pairAt(i, j)] = outOfRange
				}
			}
		}
	}
	return int(r.idx), r.idx >= 0
}

// pairAt returns where the pair-table entry of radios[i] and radios[j],
// i != j, is.
func pairAt(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// perFor returns the packet error rate between two radios.
func (m *Medium) perFor(tx, rx *Radio) float64 {
	if m.forcedPER >= 0 {
		return m.forcedPER
	}
	d := tx.pos.Distance(rx.pos)
	if d >= m.cfg.RangeM {
		return 1
	}
	// Quadratic growth anchored so PER(Range/2) = RefPER.
	norm := d / (m.cfg.RangeM / 2)
	per := m.cfg.RefPER * norm * norm
	if per > 1 {
		per = 1
	}
	return per
}

// airTime returns the on-air duration for n bytes.
func (m *Medium) airTime(bytes int) time.Duration {
	secs := float64(bytes*8) / m.cfg.BitrateBPS
	return time.Duration(secs * float64(time.Second))
}

// transmission tracks one frame in flight. Transmissions are recycled
// once their completion has fired, so the bound callback and the payload
// buffer are built once per transmission object rather than once per
// frame.
type transmission struct {
	med   *Medium
	pkt   Packet
	from  *Radio
	start time.Duration
	end   time.Duration
	// buf holds the frame's copy of the payload; pkt.Payload is buf.
	buf []byte
	// collided marks receivers whose capture of this frame was
	// destroyed; nil until the first collision.
	collided map[NodeID]bool
	// prev is the sender's radio state before the transmission, restored
	// at the end of the air time.
	prev       State
	completeFn func()
}

func (m *Medium) newTransmission() *transmission {
	if n := len(m.free); n > 0 {
		tx := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return tx
	}
	tx := &transmission{med: m}
	tx.completeFn = tx.complete
	return tx
}

func (tx *transmission) markCollided(id NodeID) {
	if tx.collided == nil {
		tx.collided = make(map[NodeID]bool)
	}
	tx.collided[id] = true
}

// Transmit sends pkt from the radio. The caller must have put the radio in
// TX state; Transmit enforces this. Delivery callbacks fire at the end of
// the air time, after which the sender returns to state prev. The payload
// is copied once here into the transmission's buffer, so the caller may
// reuse its own as soon as Transmit returns; every receiver then borrows
// that copy read-only until its handler returns. The returned duration
// is the air time.
func (m *Medium) transmit(from *Radio, pkt Packet, prev State) (time.Duration, error) {
	if from.state != StateTX {
		return 0, fmt.Errorf("radio: node %v transmit in state %v", from.id, from.state)
	}
	i, ok := m.index(from)
	if !ok {
		return 0, fmt.Errorf("radio: node %v is not attached", from.id)
	}
	m.seq++
	pkt.Seq = m.seq
	m.stats.Sent++
	air := m.airTime(pkt.AirBytes())
	tx := m.newTransmission()
	if pkt.Payload != nil {
		tx.buf = append(tx.buf[:0], pkt.Payload...)
		pkt.Payload = tx.buf
	}
	tx.pkt = pkt
	tx.from = from
	tx.start = m.eng.Now()
	tx.end = m.eng.Now() + air
	tx.prev = prev
	if t := m.eng.Tracer(); t != nil {
		hop := "broadcast"
		if pkt.Hop != Broadcast {
			hop = strconv.Itoa(int(pkt.Hop))
		}
		t.Complete("tx", "radio", "radio", tx.start, tx.end,
			span.Arg{Key: "from", Val: strconv.Itoa(int(from.id))},
			span.Arg{Key: "hop", Val: hop},
			span.Arg{Key: "bytes", Val: strconv.Itoa(pkt.AirBytes())})
	}
	// Collision marking: any receiver already capturing another frame has
	// both frames destroyed.
	for j, r := range m.radios {
		if j == i || m.pairs[pairAt(i, j)] == outOfRange {
			continue
		}
		if r.capture != nil && m.eng.Now() < r.capture.end {
			r.capture.markCollided(r.id)
			tx.markCollided(r.id)
			continue
		}
		r.capture = tx
	}
	m.eng.Post(tx.end, 0, tx.completeFn)
	return air, nil
}

// complete ends the frame at the end of its air time: it resolves the
// frame at every receiver, then returns the sender to the state it left
// for the transmission, unless something else moved it out of TX
// meanwhile. Receive handlers therefore see the sender still in TX. The
// payload buffer is reused when the transmission is recycled, which is
// why a handler only borrows it.
func (tx *transmission) complete() {
	m := tx.med
	i, ok := m.index(tx.from)
	radios, pairs := m.radios, m.pairs
	for j, r := range radios {
		if r.capture == tx {
			r.capture = nil
		}
		// r.idx < 0: a receive handler detached r.
		if ok && j != i && r.idx >= 0 {
			m.deliverTo(tx, r, &pairs[pairAt(i, j)])
		}
	}
	from := tx.from
	from.applyWindows()
	if from.state == StateTX {
		from.enter(tx.prev, m.eng.Now())
	}
	*tx = transmission{med: m, buf: tx.buf, completeFn: tx.completeFn}
	m.free = append(m.free, tx)
}

// deliverTo resolves the frame at receiver r; pair is the sender's and
// r's entry in the pair table.
func (m *Medium) deliverTo(tx *transmission, r *Radio, pair **linkState) {
	if tx.pkt.Hop != Broadcast && tx.pkt.Hop != r.id {
		return
	}
	if *pair == outOfRange {
		m.stats.DroppedRange++
		r.drops[DropOutOfRange]++
		m.traceDrop(tx, r, "out-of-range")
		return
	}
	if tx.collided[r.id] {
		m.stats.DroppedColl++
		r.drops[DropCollision]++
		m.traceDrop(tx, r, "collision")
		return
	}
	// The receiver must have been in RX for the whole frame.
	if !r.listeningSince(tx.start) {
		m.stats.DroppedNoRX++
		r.drops[DropNotListening]++
		return
	}
	if m.lossDraw(tx.from, r, pair) {
		m.stats.DroppedLoss++
		r.drops[DropLoss]++
		m.traceDrop(tx, r, "loss")
		return
	}
	m.stats.Delivered++
	r.received++
	if r.handler != nil {
		r.handler(tx.pkt)
	}
}

// traceDrop records a drop instant for the attached tracer. Not-listening
// drops are deliberately untraced: most radios sleep through most slots,
// so tracing them would bury the channel losses the histograms care about.
func (m *Medium) traceDrop(tx *transmission, r *Radio, reason string) {
	t := m.eng.Tracer()
	if t == nil {
		return
	}
	t.Instant("drop", "radio", "radio", m.eng.Now(),
		span.Arg{Key: "from", Val: strconv.Itoa(int(tx.from.id))},
		span.Arg{Key: "at", Val: strconv.Itoa(int(r.id))},
		span.Arg{Key: "reason", Val: reason})
}

// lossDraw decides whether the channel destroys the frame, combining the
// distance PER with the Gilbert-Elliott burst overlay. It makes two
// draws from the medium's stream. On a lossless medium both outcomes
// are certain for a pair in the Good state, so it skips the two values
// instead of drawing them; a pair with no burst state yet is in the
// Good state, and gets none made.
func (m *Medium) lossDraw(tx, rx *Radio, pair **linkState) bool {
	if *pair == nil {
		if m.lossless {
			// links stays empty until a lossy channel makes burst state,
			// so a medium that was always lossless skips the probe too.
			if len(m.links) > 0 {
				*pair = m.links[pairKey(tx.id, rx.id)]
			}
			if *pair == nil {
				m.rng.Skip(2)
				return false
			}
		} else {
			*pair = m.link(tx.id, rx.id)
		}
	}
	ls := *pair
	if m.lossless && !ls.bad {
		m.rng.Skip(2)
		return false
	}
	ge := m.cfg.Burst
	// State transition per packet.
	if ls.bad {
		if m.rng.Bool(ge.BadToGood) {
			ls.bad = false
		}
	} else if m.rng.Bool(ge.GoodToBad) {
		ls.bad = true
	}
	p := m.perFor(tx, rx)
	if ls.bad {
		p = 1 - (1-p)*(1-ge.PBad)
	} else if ge.PGood > 0 {
		p = 1 - (1-p)*(1-ge.PGood)
	}
	return m.rng.Bool(p)
}
