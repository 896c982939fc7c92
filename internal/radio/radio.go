package radio

import (
	"fmt"
	"time"
)

// Radio is one node's transceiver. All methods must be called from the
// simulation goroutine (the engine is single-threaded by design).
type Radio struct {
	id        NodeID
	idx       int32 // position in the medium's radios when its pair table was built; -1 once detached
	med       *Medium
	pos       Position
	state     State
	lastSince time.Duration // when the current state was entered
	chargedTo time.Duration // how far the battery has been charged
	battery   *Battery
	// windows, when set, is the link layer's schedule of RX windows,
	// applied lazily (see SetWindows).
	windows  Windows
	handler  func(Packet)
	capture  *transmission // frame currently being captured, if any
	received int
	drops    [5]int // indexed by DropReason

	// Clock synchronization (AM carrier): offset of the local clock
	// relative to global time, refreshed by sync pulses.
	clockOffset time.Duration
	driftPPM    float64
	lastSync    time.Duration
	failed      bool
}

// ID returns the node ID.
func (r *Radio) ID() NodeID { return r.id }

// Position returns the node location.
func (r *Radio) Position() Position { return r.pos }

// State returns the current power state.
func (r *Radio) State() State {
	r.applyWindows()
	return r.state
}

// Battery returns the attached battery (may be nil for mains-powered
// nodes). A read of the battery itself reports the charge up to the
// radio's last state change; EnergyConsumedMAH and BatteryFraction
// report it up to now.
func (r *Radio) Battery() *Battery { return r.battery }

// Received returns the count of frames delivered to this radio.
func (r *Radio) Received() int { return r.received }

// Drops returns the count of frames dropped for the given reason.
func (r *Radio) Drops(reason DropReason) int {
	if reason < 1 || int(reason) >= len(r.drops) {
		return 0
	}
	return r.drops[reason]
}

// SetHandler installs the receive callback. The medium copies a payload
// once per transmission into a buffer of its own, so no receiver aliases
// the sender's buffer; every receiver of one transmission is handed that
// same copy and must treat it as read-only. The handler borrows the
// payload until it returns: the medium reuses the buffer for a later
// transmission, so a handler that keeps the bytes must copy them.
func (r *Radio) SetHandler(fn func(Packet)) { r.handler = fn }

// SetDriftPPM sets the local oscillator drift in parts per million.
func (r *Radio) SetDriftPPM(ppm float64) { r.driftPPM = ppm }

// Fail marks the radio as failed: it stops transmitting and receiving and
// drains no further energy. Models a node crash.
func (r *Radio) Fail() {
	r.applyWindows()
	r.chargeTo(r.med.eng.Now())
	r.failed = true
	r.state, r.lastSince = StateSleep, r.chargedTo
}

// Failed reports whether the node has crashed.
func (r *Radio) Failed() bool { return r.failed }

// Recover clears the failed flag, returning the radio to sleep state.
// The time spent failed is not charged.
func (r *Radio) Recover() {
	r.applyWindows()
	r.chargeTo(r.med.eng.Now())
	r.failed = false
	r.state, r.lastSince = StateSleep, r.chargedTo
}

// Windows is a link layer's schedule of RX windows, applied lazily: the
// schedule opens and closes windows without changing the radio's state at
// those instants, and the radio asks it to catch up, or whether it is
// listening, when that state matters.
type Windows interface {
	// CatchUp applies every transition due so far, in order, through
	// OpenWindow and CloseWindows.
	CatchUp()
	// PendingRX reports when the RX window that the schedule holds open
	// now opened, if CatchUp has not applied that window yet: CatchUp
	// would put the radio in RX at that time, with no transition
	// after it. ok is false when no such window is pending.
	PendingRX() (at time.Duration, ok bool)
}

// SetWindows installs w as the radio's schedule of RX windows (nil
// removes it). The radio calls w.CatchUp before anything reads or changes
// its power state or charges its battery, so every observer sees the
// state the schedule left. The one exception is whether a frame found
// the radio listening: w.PendingRX answers that when it can, without
// applying anything.
func (r *Radio) SetWindows(w Windows) { r.windows = w }

func (r *Radio) applyWindows() {
	if r.windows != nil {
		r.windows.CatchUp()
	}
}

// listeningSince reports whether the radio has been in RX since t or
// earlier. A window the schedule holds open, not yet applied, answers
// it without applying anything when the radio is live and has changed
// state no later than the window opened; otherwise the radio applies
// its windows and looks.
func (r *Radio) listeningSince(t time.Duration) bool {
	if w := r.windows; w != nil {
		if at, ok := w.PendingRX(); ok && at <= t && !r.failed && r.lastSince <= at {
			return true
		}
		w.CatchUp()
	}
	return r.state == StateRX && r.lastSince <= t
}

// OpenWindow applies an RX window that opened at virtual time at, no
// later than now: a live radio enters RX then.
func (r *Radio) OpenWindow(at time.Duration) { r.enter(StateRX, at) }

// CloseWindows puts a live radio to sleep at virtual time at, the close
// of a slot it took part in, then applies a run of RX windows that all
// opened and closed after at, the last at end, holding rx of RX time in
// all. The radio sleeps between and after them, so the run costs O(1)
// however many windows it holds.
func (r *Radio) CloseWindows(at, rx, end time.Duration) {
	r.enter(StateSleep, at)
	if rx == 0 || r.failed {
		return
	}
	if b := r.battery; b != nil {
		b.charge(StateRX, rx)
		b.charge(StateSleep, end-r.chargedTo-rx)
	}
	r.chargedTo, r.lastSince = end, end
}

// chargeTo charges the battery for the time in the current state up to
// virtual time t. A failed radio is not charged.
func (r *Radio) chargeTo(t time.Duration) {
	if r.battery != nil && !r.failed {
		r.battery.charge(r.state, t-r.chargedTo)
	}
	r.chargedTo = t
}

// enter moves a live radio into state s at virtual time at.
func (r *Radio) enter(s State, at time.Duration) {
	if r.failed || s == r.state {
		return
	}
	r.chargeTo(at)
	r.state, r.lastSince = s, at
}

// SetState transitions the power state, charging energy for the state
// being left.
func (r *Radio) SetState(s State) {
	r.applyWindows()
	r.enter(s, r.med.eng.Now())
}

// Send transmits a frame. The radio is put in TX for the air time and then
// returned to the state it was in before the call. Returns the air time.
// Send from a radio detached from its medium fails, and a frame whose
// sender is detached while it is on the air reaches no receiver.
func (r *Radio) Send(pkt Packet) (time.Duration, error) {
	r.applyWindows() // before prev is taken: a window may have closed
	if r.failed {
		return 0, fmt.Errorf("radio: node %v is failed", r.id)
	}
	pkt.Src = r.id
	if pkt.Hop == 0 {
		pkt.Hop = pkt.Dst
	}
	prev := r.state
	now := r.med.eng.Now()
	r.enter(StateTX, now)
	air, err := r.med.transmit(r, pkt, prev)
	if err != nil {
		r.enter(prev, now)
		return 0, err
	}
	return air, nil
}

// EnergyConsumedMAH returns battery charge consumed so far, up to now.
// Reading it changes nothing the radio does.
func (r *Radio) EnergyConsumedMAH() float64 {
	if r.battery == nil {
		return 0
	}
	r.applyWindows()
	r.chargeTo(r.med.eng.Now())
	return r.battery.ConsumedMAH()
}

// TimeIn returns how long the radio has spent in state s so far, up to
// now, as its battery booked it: a failed radio books nothing, and a
// mains-powered one (no battery) reports 0.
func (r *Radio) TimeIn(s State) time.Duration {
	if r.battery == nil {
		return 0
	}
	r.applyWindows()
	r.chargeTo(r.med.eng.Now())
	return time.Duration(r.battery.ns[s-1])
}

// BatteryFraction returns the remaining battery charge in [0,1], up to
// now; a mains-powered radio (no battery) reports 1.
func (r *Radio) BatteryFraction() float64 {
	if r.battery == nil {
		return 1
	}
	r.applyWindows()
	r.chargeTo(r.med.eng.Now())
	return r.battery.RemainingFraction()
}

// --- AM-carrier time synchronization -----------------------------------

// SyncJitterSigma is the standard deviation of the sync-pulse detection
// jitter. The paper reports sub-150us jitter on FireFly; a sigma of 40us
// puts the 3-sigma envelope near 120us.
const SyncJitterSigma = 40 * time.Microsecond

// ClockError returns the node's current clock error relative to global
// time: the residual sync jitter plus drift accumulated since last sync.
func (r *Radio) ClockError() time.Duration {
	drift := float64(r.med.eng.Now()-r.lastSync) * r.driftPPM / 1e6
	return r.clockOffset + time.Duration(drift)
}

// BroadcastSync delivers an out-of-band AM synchronization pulse to every
// non-failed radio. Each node's clock offset is reset to a fresh jitter
// sample. It returns the jitter applied to each node.
func (m *Medium) BroadcastSync() map[NodeID]time.Duration {
	out := make(map[NodeID]time.Duration, len(m.radios))
	m.sync(out)
	return out
}

// Sync delivers the same pulse as BroadcastSync, drawing the same jitter
// samples, without reporting them. The TDMA frame loop calls it every
// frame.
func (m *Medium) Sync() { m.sync(nil) }

func (m *Medium) sync(out map[NodeID]time.Duration) {
	for _, r := range m.radios {
		if r.failed {
			continue
		}
		j := time.Duration(m.rng.NormFloat64() * float64(SyncJitterSigma))
		if j < 0 {
			j = -j
		}
		r.clockOffset = j
		r.lastSync = m.eng.Now()
		if out != nil {
			out[r.id] = j
		}
	}
}
