// Package sim provides a deterministic discrete-event simulation engine.
//
// All higher layers (radio medium, RT-Link TDMA, the nano-RK task model,
// the EVM runtime and the gas-plant dynamics) run on the virtual clock
// provided by Engine. Nothing in the repository sleeps on the wall clock;
// every experiment is reproducible bit-for-bit from a PRNG seed.
package sim

import (
	"errors"
	"math"
	"time"

	"evm/internal/span"
)

// ErrHorizon is returned by RunUntil when the event queue drains before the
// requested horizon is reached.
var ErrHorizon = errors.New("sim: event queue drained before horizon")

// Event is the cancellable handle of a scheduled callback on the virtual
// timeline. Handles are created through Engine.At / Engine.After and may be
// cancelled until they fire.
type Event struct {
	at       time.Duration
	index    int // queue index, -1 once fired or removed
	canceled bool
}

// At reports the virtual time at which the event is (or was) scheduled.
func (ev *Event) At() time.Duration { return ev.at }

// Canceled reports whether Cancel was called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// entry is one queued callback. Entries live by value in the queue, so
// scheduling allocates nothing beyond the queue's own growth; ev links an
// entry to its handle and is nil for callbacks scheduled with Post, which
// have none.
type entry struct {
	key
	fn func()
	ev *Event
}

// key is an entry's position in the queue order.
type key struct {
	at   time.Duration
	prio int
	seq  uint64
}

// before is the queue order: time, then priority, then scheduling
// sequence. seq is unique, so the order is total and any heap pops the
// same sequence.
func (a *key) before(b *key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of entries ordered by before. It is
// typed rather than built on container/heap, so pushes and pops neither
// box through interfaces nor dispatch through method tables, and
// comparisons read the entries in place.
type eventQueue []entry

// set stores x at index i and tells its handle where it now lives.
func (q eventQueue) set(i int, x entry) {
	q[i] = x
	if x.ev != nil {
		x.ev.index = i
	}
}

func (q *eventQueue) push(x entry) {
	*q = append(*q, x)
	q.up(len(*q)-1, x)
}

// remove takes the entry at index i out of the queue and returns it; its
// handle, if any, is marked removed.
func (q *eventQueue) remove(i int) entry {
	h := *q
	x := h[i]
	last := len(h) - 1
	moved := h[last]
	h[last] = entry{}
	*q = h[:last]
	if i != last {
		if !q.down(i, moved) {
			q.up(i, moved)
		}
	}
	if x.ev != nil {
		x.ev.index = -1
	}
	return x
}

// up places x, which belongs at index i, by sifting it toward the root.
func (q eventQueue) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&q[p].key) {
			break
		}
		q.set(i, q[p])
		i = p
	}
	q.set(i, x)
}

// down places x, which belongs at index i0, by sifting it toward the
// leaves, and reports whether it moved.
func (q eventQueue) down(i0 int, x entry) bool {
	n := len(q)
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c].key) {
			c = r
		}
		if !q[c].before(&x.key) {
			break
		}
		q.set(i, q[c])
		i = c
	}
	q.set(i, x)
	return i > i0
}

// Engine is a single-threaded discrete-event scheduler over virtual time.
// The zero value is not usable; construct with New.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	// pos is the key of the latest callback that fired, or, after
	// RunUntil, a key before every callback at the horizon. Passed
	// compares against it.
	pos key
	// tracer, when non-nil, records causal spans for this engine's run.
	// Every subsystem holding an engine reference reaches it through
	// Tracer(), so enabling tracing never changes constructor signatures.
	tracer *span.Tracer
}

// New returns an engine with the virtual clock at zero.
func New() *Engine {
	return &Engine{pos: key{prio: math.MinInt}}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// SetTracer attaches (or with nil detaches) a span tracer. Tracing is
// off by default; a nil tracer costs one pointer check per dispatch.
func (e *Engine) SetTracer(t *span.Tracer) { e.tracer = t }

// Tracer returns the attached span tracer, or nil when tracing is off.
func (e *Engine) Tracer() *span.Tracer { return e.tracer }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event fires on the next Step).
func (e *Engine) At(t time.Duration, fn func()) *Event {
	return e.atPrio(t, 0, fn)
}

// AtPrio schedules fn at time t with an explicit tie-break priority; among
// events at the same instant, lower prio fires first.
func (e *Engine) AtPrio(t time.Duration, prio int, fn func()) *Event {
	return e.atPrio(t, prio, fn)
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.atPrio(e.now+d, 0, fn)
}

// Post schedules fn at time t with tie-break priority prio, exactly like
// AtPrio, but returns no handle, so the callback cannot be cancelled and
// scheduling it allocates nothing. The TDMA loop's per-frame callbacks
// and the medium's per-transmission callbacks use Post.
func (e *Engine) Post(t time.Duration, prio int, fn func()) {
	e.push(t, prio, fn, nil)
}

// Reserve sets aside n consecutive sequence numbers, as n Post calls
// would consume them, and returns the first. Each reserved number, with
// a time and a priority, names a position in the firing order. A
// callback queued later with PostReserved at that position fires exactly
// where it would have had it been posted at reservation time, provided
// it is queued while Passed still reports false for it. A position may
// also stay empty: the TDMA loop reserves an open and a close position
// for each slot of a frame and queues only the opens of slots that
// transmit, and Passed tells its lazily applied per-slot state changes
// which of the empty positions the engine has gone past.
func (e *Engine) Reserve(n int) uint64 {
	first := e.seq + 1
	e.seq += uint64(n)
	return first
}

// PostReserved queues fn like Post, at the position (t, prio, seq); seq
// must come from Reserve, and each position may be queued at most once.
func (e *Engine) PostReserved(t time.Duration, prio int, seq uint64, fn func()) {
	e.queue.push(entry{key: key{max(t, e.now), prio, seq}, fn: fn})
}

// Passed reports whether a callback queued at (at, prio, seq) would
// already have fired, or be firing now: whether that position is at or
// before the latest callback that fired. After RunUntil(h) every
// position before h has passed and none at h has, just as callbacks at
// h have not fired.
func (e *Engine) Passed(at time.Duration, prio int, seq uint64) bool {
	return !e.pos.before(&key{at, prio, seq})
}

func (e *Engine) atPrio(t time.Duration, prio int, fn func()) *Event {
	ev := &Event{}
	e.push(t, prio, fn, ev)
	return ev
}

// push queues fn with a fresh sequence number, so a re-queued handle
// orders exactly like a newly created one.
func (e *Engine) push(t time.Duration, prio int, fn func(), ev *Event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	if ev != nil {
		ev.at, ev.canceled = t, false
	}
	e.queue.push(entry{key: key{t, prio, e.seq}, fn: fn, ev: ev})
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if !ev.canceled && ev.index >= 0 {
		e.queue.remove(ev.index)
	}
	ev.canceled = true
}

// Step fires the next event, advancing the clock to it. It returns false
// when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	x := e.queue.remove(0)
	e.now = x.at
	// A callback queued in the past fires at the current time, possibly
	// ordered before the last one; the position never moves back.
	if e.pos.before(&x.key) {
		e.pos = x.key
	}
	if t := e.tracer; t != nil && t.Dispatch() {
		// Dispatch spans are zero-width in virtual time (the clock
		// does not advance inside a callback) but give every span
		// recorded within the callback its causal parent.
		id := t.Enter("dispatch", "sim", "engine", e.now)
		x.fn()
		t.Exit(id, e.now)
	} else {
		x.fn()
	}
	return true
}

// RunUntil executes events until the virtual clock reaches horizon. Events
// scheduled exactly at the horizon do not fire. The clock is left at the
// horizon on success. If the queue drains early the clock is advanced to the
// horizon and ErrHorizon is returned.
func (e *Engine) RunUntil(horizon time.Duration) error {
	for len(e.queue) > 0 {
		if e.queue[0].at >= horizon {
			e.rest(horizon)
			return nil
		}
		e.Step()
	}
	e.rest(horizon)
	return ErrHorizon
}

// rest leaves the clock at horizon, positioned before every callback
// there.
func (e *Engine) rest(horizon time.Duration) {
	e.now = horizon
	if k := (key{horizon, math.MinInt, 0}); e.pos.before(&k) {
		e.pos = k
	}
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Ticker fires a callback at a fixed period until stopped. It re-queues
// its own handle after every fire, so a running ticker allocates nothing.
type Ticker struct {
	eng    *Engine
	period time.Duration
	fn     func()
	tickFn func() // t.tick, bound once
	ev     Event
	stop   bool
}

// Every schedules fn to fire every period, first at now+period.
// The returned Ticker must be stopped to release it.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	return e.EveryAt(e.now+period, period, fn)
}

// EveryAt is like Every but fires first at the absolute time first.
func (e *Engine) EveryAt(first, period time.Duration, fn func()) *Ticker {
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tickFn = t.tick
	e.push(first, 0, t.tickFn, &t.ev)
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.eng.push(t.eng.now+t.period, 0, t.tickFn, &t.ev)
	}
}

// Stop cancels the ticker; pending fires are removed.
func (t *Ticker) Stop() {
	t.stop = true
	t.eng.Cancel(&t.ev)
}
