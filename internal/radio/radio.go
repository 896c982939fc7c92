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
	battery   *Battery
	model     EnergyModel
	handler   func(Packet)
	capture   *transmission // frame currently being captured, if any
	received  int
	drops     [5]int // indexed by DropReason

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
func (r *Radio) State() State { return r.state }

// Battery returns the attached battery (may be nil for mains-powered nodes).
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
// once per transmission, so no receiver aliases the sender's buffer; every
// receiver of one transmission is handed that same copy, and must treat
// the payload as read-only. A handler may keep the payload.
func (r *Radio) SetHandler(fn func(Packet)) { r.handler = fn }

// SetDriftPPM sets the local oscillator drift in parts per million.
func (r *Radio) SetDriftPPM(ppm float64) { r.driftPPM = ppm }

// Fail marks the radio as failed: it stops transmitting and receiving and
// drains no further energy. Models a node crash.
func (r *Radio) Fail() {
	r.settle()
	r.failed = true
	r.state = StateSleep
}

// Failed reports whether the node has crashed.
func (r *Radio) Failed() bool { return r.failed }

// Recover clears the failed flag, returning the radio to sleep state.
// The time spent failed is not charged.
func (r *Radio) Recover() {
	r.settle()
	r.failed = false
	r.state = StateSleep
}

// settle charges the battery for the time spent in the current state and
// restarts the accounting window.
func (r *Radio) settle() {
	now := r.med.eng.Now()
	if r.battery != nil && !r.failed {
		r.battery.Drain(r.model.Current(r.state), now-r.lastSince)
	}
	r.lastSince = now
}

// SetState transitions the power state, charging energy for the state
// being left.
func (r *Radio) SetState(s State) {
	if r.failed {
		return
	}
	if s == r.state {
		return
	}
	r.settle()
	r.state = s
}

// Send transmits a frame. The radio is put in TX for the air time and then
// returned to the state it was in before the call. Returns the air time.
// Send from a radio detached from its medium fails, and a frame whose
// sender is detached while it is on the air reaches no receiver.
func (r *Radio) Send(pkt Packet) (time.Duration, error) {
	if r.failed {
		return 0, fmt.Errorf("radio: node %v is failed", r.id)
	}
	pkt.Src = r.id
	if pkt.Hop == 0 {
		pkt.Hop = pkt.Dst
	}
	prev := r.state
	r.SetState(StateTX)
	air, err := r.med.transmit(r, pkt, prev)
	if err != nil {
		r.SetState(prev)
		return 0, err
	}
	return air, nil
}

// EnergyConsumedMAH returns battery charge consumed so far including the
// current (unsettled) state interval.
func (r *Radio) EnergyConsumedMAH() float64 {
	if r.battery == nil {
		return 0
	}
	r.settle()
	return r.battery.ConsumedMAH()
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
