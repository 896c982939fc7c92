package evm

import (
	"strconv"
	"time"
)

// Event is one structured observation from a cell, stamped with virtual
// time. All events are published synchronously on the cell's simulation
// engine, so subscription callbacks see them in deterministic order: two
// runs with equal seeds produce byte-identical event streams.
//
// The event bus is the only observation surface: the per-object callback
// fields it replaced (Head.OnFailover, Gateway.OnActuate,
// Node.OnMigrationIn) have been removed.
//
// A subscriber borrows each event for the length of its callback. Most
// kinds are values, but *ActuationEvent, published once per control
// cycle, points at a buffer the cell reuses for the next actuation:
// read its fields, or copy the struct, but do not keep the pointer (or
// a CellEvent wrapping it) after the callback returns. EventLog keeps
// copies (Keep), so a logged event stays valid.
type Event interface {
	// When returns the virtual time at which the event occurred.
	When() time.Duration
	// String renders a stable one-line form suitable for logging and
	// byte-comparison across runs.
	String() string
	// appendText, series and counters are the event kind's one
	// declaration of what it means to observers, written next to its
	// String method: its one-line rendering appended to a buffer (String
	// and AppendEvent), the telemetry series it lands on (SeriesName,
	// Sample rows) and the Runner counters it bumps. They are unexported,
	// so the set of kinds is closed and none can fall through to a
	// default.
	appendText(dst []byte) []byte
	series() string
	counters() counterSet
}

// AppendEvent appends ev's one-line rendering, the bytes of ev.String(),
// to dst and returns the extended buffer. It allocates only when dst
// must grow, so a caller rendering many events into one reused buffer
// allocates nothing per event.
func AppendEvent(dst []byte, ev Event) []byte { return ev.appendText(dst) }

// lineCap is the capacity of the buffer String renders into. It holds
// almost every line, and the compiler keeps it on the stack, so String
// allocates only the string it returns (a CellEvent, whose inner event
// appends through the interface, also the buffer).
const lineCap = 128

// appendStamp appends the event time as %v prints it, then a space and
// the event's name.
func appendStamp(dst []byte, at time.Duration, name string) []byte {
	dst = append(dst, at.String()...)
	dst = append(dst, ' ')
	return append(dst, name...)
}

// appendField appends " key=value".
func appendField(dst []byte, key, value string) []byte {
	dst = append(dst, ' ')
	dst = append(dst, key...)
	dst = append(dst, '=')
	return append(dst, value...)
}

// appendUint appends " key=n" in decimal, as %d prints n.
func appendUint(dst []byte, key string, n uint64) []byte {
	return strconv.AppendUint(appendField(dst, key, ""), n, 10)
}

// appendInt appends " key=n" in decimal, as %d prints n.
func appendInt(dst []byte, key string, n int) []byte {
	return strconv.AppendInt(appendField(dst, key, ""), int64(n), 10)
}

// appendFloat appends " key=v" in the shortest form that reads back
// exactly ('g', -1).
func appendFloat(dst []byte, key string, v float64) []byte {
	return strconv.AppendFloat(appendField(dst, key, ""), v, 'g', -1, 64)
}

// appendJoined appends " key=" and then parts separated by sep.
func appendJoined(dst []byte, key string, parts []string, sep byte) []byte {
	dst = appendField(dst, key, "")
	for i, p := range parts {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = append(dst, p...)
	}
	return dst
}

// counterSet is a set of Runner counters, one bit each; an event kind's
// counters method returns the ones it bumps.
type counterSet uint64

// runnerCounters lists every declared Runner counter key, bit i of a
// counterSet naming runnerCounters[i]. The Runner reports all of them,
// zero when no event bumped one.
var runnerCounters []string

// counter declares a Runner counter and returns its bit. Event kinds
// declare theirs at package level, next to the kind.
func counter(key string) counterSet {
	if len(runnerCounters) == 64 {
		panic("evm: more than 64 Runner counters")
	}
	runnerCounters = append(runnerCounters, key)
	return 1 << (len(runnerCounters) - 1)
}

// only returns set when cond holds, else the empty set.
func only(cond bool, set counterSet) counterSet {
	if cond {
		return set
	}
	return 0
}

// Metric keys the Runner counts from the cell event kinds in this file.
const (
	MetricFailovers      = "failovers"
	MetricActuations     = "actuations"
	MetricMigrations     = "migrations"
	MetricJoins          = "joins"
	MetricFaultsInjected = "faults_injected"
	// MetricModeChanges counts synchronized mode switches issued by
	// component heads.
	MetricModeChanges = "mode_changes"
)

// Runner counter bits the kinds below return from counters.
var (
	failoversCounter      = counter(MetricFailovers)
	actuationsCounter     = counter(MetricActuations)
	migrationsCounter     = counter(MetricMigrations)
	joinsCounter          = counter(MetricJoins)
	modeChangesCounter    = counter(MetricModeChanges)
	faultsInjectedCounter = counter(MetricFaultsInjected)
)

// FailoverEvent fires after the component head switches a task's master.
type FailoverEvent struct {
	At   time.Duration
	Task string
	From NodeID
	To   NodeID
}

// When implements Event.
func (e FailoverEvent) When() time.Duration { return e.At }

// String implements Event.
func (e FailoverEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e FailoverEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "failover"), "task", e.Task)
	return appendUint(appendUint(dst, "from", uint64(e.From)), "to", uint64(e.To))
}

func (FailoverEvent) series() string       { return "failovers" }
func (FailoverEvent) counters() counterSet { return failoversCounter }

// ActuationEvent fires when the gateway's operation switch accepts an
// actuation and writes it to the plant. It is published as a borrowed
// *ActuationEvent that the cell rewrites for every actuation, so the
// control loop allocates nothing per cycle; a subscriber that keeps one
// copies the struct.
type ActuationEvent struct {
	At    time.Duration
	Node  NodeID
	Task  string
	Port  uint8
	Value float64
}

// When implements Event.
func (e *ActuationEvent) When() time.Duration { return e.At }

// String implements Event.
func (e *ActuationEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e *ActuationEvent) appendText(dst []byte) []byte {
	dst = appendUint(appendStamp(dst, e.At, "actuation"), "node", uint64(e.Node))
	dst = appendUint(appendField(dst, "task", e.Task), "port", uint64(e.Port))
	return appendFloat(dst, "value", e.Value)
}

func (*ActuationEvent) series() string       { return "actuations" }
func (*ActuationEvent) counters() counterSet { return actuationsCounter }

// MigrationEvent fires when a migrated task's state becomes ready on the
// destination node.
type MigrationEvent struct {
	At   time.Duration
	Task string
	From NodeID
	To   NodeID
}

// When implements Event.
func (e MigrationEvent) When() time.Duration { return e.At }

// String implements Event.
func (e MigrationEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e MigrationEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "migration"), "task", e.Task)
	return appendUint(appendUint(dst, "from", uint64(e.From)), "to", uint64(e.To))
}

func (MigrationEvent) series() string       { return "migrations" }
func (MigrationEvent) counters() counterSet { return migrationsCounter }

// JoinEvent fires when the component head admits a member announcement.
type JoinEvent struct {
	At   time.Duration
	Node NodeID
}

// When implements Event.
func (e JoinEvent) When() time.Duration { return e.At }

// String implements Event.
func (e JoinEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e JoinEvent) appendText(dst []byte) []byte {
	return appendUint(appendStamp(dst, e.At, "join"), "node", uint64(e.Node))
}

func (JoinEvent) series() string       { return "joins" }
func (JoinEvent) counters() counterSet { return joinsCounter }

// ModeChangeEvent fires when the component head issues a synchronized
// task-set switch (planned reconfiguration, paper §1.1 item 4): the new
// mode activates at the named TDMA frame on every member that hears the
// broadcast.
type ModeChangeEvent struct {
	At   time.Duration
	Node NodeID // the issuing head
	Mode uint8
	// AtFrame is the TDMA frame at which the mode takes effect.
	AtFrame uint64
}

// When implements Event.
func (e ModeChangeEvent) When() time.Duration { return e.At }

// String implements Event.
func (e ModeChangeEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e ModeChangeEvent) appendText(dst []byte) []byte {
	dst = appendUint(appendStamp(dst, e.At, "mode-change"), "head", uint64(e.Node))
	return appendUint(appendUint(dst, "mode", uint64(e.Mode)), "frame", e.AtFrame)
}

func (ModeChangeEvent) series() string       { return "mode_changes" }
func (ModeChangeEvent) counters() counterSet { return modeChangesCounter }

// FaultKind classifies a FaultEvent.
type FaultKind string

// Fault kinds emitted by fault-plan execution.
const (
	FaultCrash        FaultKind = "crash"
	FaultRecover      FaultKind = "recover"
	FaultCompute      FaultKind = "compute"
	FaultComputeClear FaultKind = "compute-clear"
	FaultPERBurst     FaultKind = "per-burst"
	FaultPERRestore   FaultKind = "per-restore"
	FaultBatteryDrain FaultKind = "battery-drain"
	FaultClockDrift   FaultKind = "clock-drift"
)

// FaultEvent fires when a fault-plan step executes against the cell.
type FaultEvent struct {
	At   time.Duration
	Kind FaultKind
	// Node is the affected node (zero for cell-wide faults like a PER
	// burst).
	Node NodeID
	// Task is set for compute faults.
	Task string
	// Value carries the fault magnitude: the wrong output for compute
	// faults, the forced packet error rate for PER bursts.
	Value float64
}

// When implements Event.
func (e FaultEvent) When() time.Duration { return e.At }

// String implements Event.
func (e FaultEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e FaultEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "fault"), "kind", string(e.Kind))
	dst = appendField(appendUint(dst, "node", uint64(e.Node)), "task", e.Task)
	return appendFloat(dst, "value", e.Value)
}

func (FaultEvent) series() string { return "faults" }

// counters counts injections only: clears and restores are the tail end
// of a fault already counted.
func (e FaultEvent) counters() counterSet {
	switch e.Kind {
	case FaultCrash, FaultCompute, FaultPERBurst, FaultBatteryDrain, FaultClockDrift:
		return faultsInjectedCounter
	}
	return 0
}

// Bus is a cell's typed event stream. Subscribe registers a callback that
// runs synchronously, on the simulation engine's goroutine, for every
// published event. Callbacks run in subscription order, so event handling
// is as deterministic as the simulation itself.
type Bus struct {
	subs []*Subscription
	// publishing guards the subs slice: cancellations during delivery
	// only mark the entry and are compacted after the loop, so no
	// subscriber is skipped or double-invoked.
	publishing bool
	dirty      bool
}

// Subscription is a handle on one Subscribe registration.
type Subscription struct {
	bus *Bus
	fn  func(Event)
}

// Cancel removes the subscription; it is safe to call more than once,
// including from inside an event callback (the subscription stops
// receiving immediately, other subscribers are unaffected).
func (s *Subscription) Cancel() {
	if s.bus == nil {
		return
	}
	b := s.bus
	s.bus = nil
	if b.publishing {
		b.dirty = true
		return
	}
	for i, sub := range b.subs {
		if sub == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
}

// Subscribe registers fn for every subsequent event. fn borrows each
// event for the call only (see Event): to keep one, pass it through
// Keep, as EventLog does. Do not call Cell.Run from inside a callback.
func (b *Bus) Subscribe(fn func(Event)) *Subscription {
	sub := &Subscription{bus: b, fn: fn}
	b.subs = append(b.subs, sub)
	return sub
}

// publish delivers the event to every subscriber in subscription order.
// Subscriptions added during delivery start with the next event.
func (b *Bus) publish(ev Event) {
	b.publishing = true
	n := len(b.subs)
	for i := 0; i < n; i++ {
		sub := b.subs[i]
		if sub.bus != nil {
			sub.fn(ev)
		}
	}
	b.publishing = false
	if !b.dirty {
		return
	}
	b.dirty = false
	live := b.subs[:0]
	for _, sub := range b.subs {
		if sub.bus != nil {
			live = append(live, sub)
		}
	}
	for i := len(live); i < len(b.subs); i++ {
		b.subs[i] = nil
	}
	b.subs = live
}

// Log subscribes a recorder that accumulates every event; useful for
// experiment post-processing and determinism checks.
func (b *Bus) Log() *EventLog {
	l := &EventLog{}
	l.sub = b.Subscribe(func(ev Event) { l.events = append(l.events, Keep(ev)) })
	return l
}

// Keep returns ev in a form that outlives the callback it was delivered
// to: a borrowed *ActuationEvent, bare or wrapped in a CellEvent, is
// copied; every other kind is a value and is returned as is. A kept
// event renders (String, EventRow) exactly as it did at delivery, from
// any goroutine.
func Keep(ev Event) Event {
	switch e := ev.(type) {
	case *ActuationEvent:
		c := *e
		return &c
	case CellEvent:
		if act, ok := e.Inner.(*ActuationEvent); ok {
			e.Inner = Keep(act)
			return e
		}
	}
	return ev
}

// EventLog records every event published after Bus.Log was called. It
// keeps a copy of each borrowed event, so what it returns stays valid
// however many events the bus publishes later.
type EventLog struct {
	sub    *Subscription
	events []Event
}

// Events returns the recorded events in publication order.
func (l *EventLog) Events() []Event { return append([]Event(nil), l.events...) }

// Strings renders the recorded events one line each; equal seeds yield
// byte-identical slices.
func (l *EventLog) Strings() []string {
	out := make([]string, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.String()
	}
	return out
}

// Count returns how many recorded events satisfy pred (pred nil counts
// everything).
func (l *EventLog) Count(pred func(Event) bool) int {
	if pred == nil {
		return len(l.events)
	}
	n := 0
	for _, ev := range l.events {
		if pred(ev) {
			n++
		}
	}
	return n
}

// Close stops recording.
func (l *EventLog) Close() { l.sub.Cancel() }

// SeriesName maps an event to its stable telemetry series name, the
// series its kind declares. Campus streams are named by their inner
// event (CellEvent unwrapped).
func SeriesName(ev Event) string { return ev.series() }
