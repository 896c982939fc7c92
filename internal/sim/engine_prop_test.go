package sim

import (
	"container/heap"
	"fmt"
	"testing"
	"time"
)

// refEngine is the engine as it was built on container/heap: one
// allocated event per schedule, tie-broken by (at, prio, seq). The typed
// queue must fire in exactly its order.
type refEngine struct {
	now   time.Duration
	queue refHeap
	seq   uint64
}

type refEvent struct {
	at       time.Duration
	prio     int
	seq      uint64
	fn       func()
	index    int
	canceled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

func (e *refEngine) at(t time.Duration, prio int, fn func()) *refEvent {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := &refEvent{at: t, prio: prio, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev.canceled || ev.index < 0 {
		ev.canceled = true
		return
	}
	ev.canceled = true
	heap.Remove(&e.queue, ev.index)
}

func (e *refEngine) step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

// refTicker re-schedules a fresh event after every fire, as Ticker did
// before it reused its own.
type refTicker struct {
	eng    *refEngine
	period time.Duration
	fn     func()
	ev     *refEvent
	stop   bool
}

func (t *refTicker) tick() {
	if t.stop {
		return
	}
	t.fn()
	if !t.stop {
		t.ev = t.eng.at(t.eng.now+t.period, 0, t.tick)
	}
}

// scheduler is the surface a random program drives; one implementation
// wraps Engine, the other refEngine.
type scheduler interface {
	now() time.Duration
	// at schedules fn; withHandle false posts it without a handle.
	at(t time.Duration, prio int, withHandle bool, fn func()) (cancel func())
	every(first, period time.Duration, fn func()) (stop func())
	// chain schedules fns[i] at times[i] (ascending) with prio 0, ordered
	// as if all were posted now.
	chain(times []time.Duration, fns []func())
	step() bool
}

type engineScheduler struct{ e *Engine }

func (s engineScheduler) now() time.Duration { return s.e.Now() }

func (s engineScheduler) at(t time.Duration, prio int, withHandle bool, fn func()) func() {
	if !withHandle {
		s.e.Post(t, prio, fn)
		return nil
	}
	ev := s.e.AtPrio(t, prio, fn)
	return func() { s.e.Cancel(ev) }
}

func (s engineScheduler) every(first, period time.Duration, fn func()) func() {
	return s.e.EveryAt(first, period, fn).Stop
}

// chain queues the links lazily, each from the one before, under sequence
// numbers reserved now: the pattern the TDMA frame loop uses.
func (s engineScheduler) chain(times []time.Duration, fns []func()) {
	base := s.e.Reserve(len(times))
	var link func(i int) func()
	link = func(i int) func() {
		return func() {
			if i+1 < len(times) {
				s.e.PostReserved(times[i+1], 0, base+uint64(i+1), link(i+1))
			}
			fns[i]()
		}
	}
	s.e.PostReserved(times[0], 0, base, link(0))
}

func (s engineScheduler) step() bool { return s.e.Step() }

type refScheduler struct{ e *refEngine }

func (s refScheduler) now() time.Duration { return s.e.now }

func (s refScheduler) at(t time.Duration, prio int, withHandle bool, fn func()) func() {
	ev := s.e.at(t, prio, fn)
	if !withHandle {
		return nil
	}
	return func() { s.e.cancel(ev) }
}

func (s refScheduler) every(first, period time.Duration, fn func()) func() {
	t := &refTicker{eng: s.e, period: period, fn: fn}
	t.ev = s.e.at(first, 0, t.tick)
	return func() {
		t.stop = true
		s.e.cancel(t.ev)
	}
}

func (s refScheduler) chain(times []time.Duration, fns []func()) {
	for i := range times {
		s.e.at(times[i], 0, fns[i])
	}
}

func (s refScheduler) step() bool { return s.e.step() }

// runProgram drives s with a random program derived from seed: schedules
// with and without handles, cancels of pending, fired and cancelled
// handles, tickers started and stopped, reserved chains, and more of all
// of these from inside callbacks. It returns the fire log.
func runProgram(s scheduler, seed uint64, steps int) []string {
	rng := NewRNG(seed)
	var log []string
	var cancels, stops []func()
	id := 0
	var act func()
	newFn := func(kind string) func() {
		id++
		label := fmt.Sprintf("%s%d", kind, id)
		return func() {
			log = append(log, fmt.Sprintf("%s@%d", label, s.now()))
			act()
		}
	}
	act = func() {
		for n := rng.Intn(3); n > 0; n-- {
			switch op := rng.Intn(10); {
			case op < 4:
				// Some land in the past and clamp to now.
				t := s.now() + time.Duration(rng.Intn(60)-10)*time.Microsecond
				if c := s.at(t, rng.Intn(3)-1, rng.Intn(2) == 0, newFn("e")); c != nil {
					cancels = append(cancels, c)
				}
			case op < 6:
				if len(cancels) > 0 {
					cancels[rng.Intn(len(cancels))]()
				}
			case op < 7:
				first := s.now() + time.Duration(rng.Intn(20))*time.Microsecond
				stops = append(stops, s.every(first, time.Duration(1+rng.Intn(15))*time.Microsecond, newFn("t")))
			case op < 8:
				if len(stops) > 0 {
					stops[rng.Intn(len(stops))]()
				}
			default:
				k := 1 + rng.Intn(4)
				times := make([]time.Duration, k)
				fns := make([]func(), k)
				t := s.now()
				for i := range times {
					t += time.Duration(rng.Intn(8)) * time.Microsecond
					times[i], fns[i] = t, newFn("c")
				}
				s.chain(times, fns)
			}
		}
	}
	for i := 0; i < 8; i++ {
		act()
	}
	for i := 0; i < steps && s.step(); i++ {
	}
	return log
}

// TestEngineMatchesReferenceHeap: random schedule / cancel / Every /
// Ticker.Stop / reserved-chain programs fire in exactly the order of the
// container/heap reference engine. Cancel on a fired or already cancelled
// handle is a no-op there, so any cancel that removed some other event
// would show up as a divergence.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got := runProgram(engineScheduler{New()}, seed, 2000)
		want := runProgram(refScheduler{&refEngine{}}, seed, 2000)
		if len(want) < 10 {
			continue
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("seed %d: fire %d is %v, reference fires %s", seed, i, got[i:min(i+1, len(got))], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d fires, reference %d", seed, len(got), len(want))
		}
	}
}

// TestCancelFiredHandleIsNoOp: cancelling a handle after it fired must not
// disturb the queue, even when the queue is busy with other events.
func TestCancelFiredHandleIsNoOp(t *testing.T) {
	e := New()
	var fired []int
	first := e.At(time.Millisecond, func() { fired = append(fired, 0) })
	e.Step()
	for i := 1; i <= 5; i++ {
		i := i
		e.At(time.Duration(i+1)*time.Millisecond, func() { fired = append(fired, i) })
	}
	e.Cancel(first)
	e.Cancel(first)
	e.Run()
	if len(fired) != 6 {
		t.Fatalf("fired %v, want all six", fired)
	}
	if !first.Canceled() {
		t.Fatal("Canceled() = false after Cancel on a fired handle")
	}
}
