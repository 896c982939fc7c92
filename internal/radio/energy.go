package radio

import "time"

// EnergyModel holds per-state current draw. Defaults follow the FireFly
// platform (ATmega1281 + CC2420) numbers the paper builds on.
type EnergyModel struct {
	TXCurrentMA    float64 // radio transmitting
	RXCurrentMA    float64 // radio receiving / listening
	IdleCurrentMA  float64 // MCU active, radio off
	SleepCurrentMA float64 // deep sleep
	VoltageV       float64
}

// DefaultEnergyModel returns CC2420/FireFly-like current draws.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		TXCurrentMA:    17.4,
		RXCurrentMA:    19.7,
		IdleCurrentMA:  6.0,
		SleepCurrentMA: 0.021,
		VoltageV:       3.0,
	}
}

// Current returns the draw for a radio state in mA.
func (m EnergyModel) Current(s State) float64 {
	switch s {
	case StateTX:
		return m.TXCurrentMA
	case StateRX:
		return m.RXCurrentMA
	case StateIdle:
		return m.IdleCurrentMA
	case StateSleep:
		return m.SleepCurrentMA
	default:
		return 0
	}
}

// Battery integrates charge consumption over virtual time. Its radio
// books the time it spends in each power state as integer nanoseconds;
// a read converts that ledger to charge with the radio's energy model,
// so the total depends on how long each state lasted, not on the order
// or number of the intervals booked. Drain and ConsumeFraction add to a
// separate charge term.
type Battery struct {
	CapacityMAH float64
	model       EnergyModel    // the attached radio's currents
	ns          [StateTX]int64 // ns[s-1] is the time booked in state s
	drainedMAS  float64        // milliamp-seconds from Drain and ConsumeFraction
}

// NewBattery returns a battery with the given capacity in mAh. Two AA
// cells (~2600 mAh) are the FireFly reference supply.
func NewBattery(capacityMAH float64) *Battery {
	return &Battery{CapacityMAH: capacityMAH}
}

// charge books d of virtual time in radio state s.
func (b *Battery) charge(s State, d time.Duration) { b.ns[s-1] += int64(d) }

// consumedMAS returns the charge consumed so far in milliamp-seconds.
func (b *Battery) consumedMAS() float64 {
	mas := b.drainedMAS
	for i, ns := range b.ns {
		mas += b.model.Current(State(i+1)) * (float64(ns) / 1e9)
	}
	return mas
}

// Drain consumes currentMA for dur of virtual time.
func (b *Battery) Drain(currentMA float64, dur time.Duration) {
	b.drainedMAS += currentMA * dur.Seconds()
}

// ConsumeFraction instantly consumes the given fraction of the total
// capacity (fault injection: sudden energy loss from a shorted cell or a
// stuck transmitter). Negative fractions are ignored; draining past
// empty leaves the battery depleted.
func (b *Battery) ConsumeFraction(f float64) {
	if f <= 0 {
		return
	}
	b.drainedMAS += f * b.CapacityMAH * 3600
}

// ConsumedMAH returns the total charge consumed so far, as booked by the
// radio up to its last state change (Radio.EnergyConsumedMAH reads it up
// to now).
func (b *Battery) ConsumedMAH() float64 { return b.consumedMAS() / 3600 }

// RemainingFraction returns remaining charge in [0,1].
func (b *Battery) RemainingFraction() float64 {
	if b.CapacityMAH <= 0 {
		return 0
	}
	f := 1 - b.ConsumedMAH()/b.CapacityMAH
	if f < 0 {
		return 0
	}
	return f
}

// Depleted reports whether the battery is exhausted.
func (b *Battery) Depleted() bool { return b.RemainingFraction() <= 0 }

// LifetimeAt extrapolates total battery lifetime assuming the average
// current observed over elapsed continues indefinitely. Returns 0 if no
// charge has been consumed yet.
func (b *Battery) LifetimeAt(elapsed time.Duration) time.Duration {
	mas := b.consumedMAS()
	if mas <= 0 || elapsed <= 0 {
		return 0
	}
	avgMA := mas / elapsed.Seconds()
	hours := b.CapacityMAH / avgMA
	return time.Duration(hours * float64(time.Hour))
}
