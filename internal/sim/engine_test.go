package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(3*time.Millisecond, func() { got = append(got, 3) })
	e.At(1*time.Millisecond, func() { got = append(got, 1) })
	e.At(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineTieBreakPriority(t *testing.T) {
	e := New()
	var got []string
	e.AtPrio(time.Millisecond, 5, func() { got = append(got, "low") })
	e.AtPrio(time.Millisecond, 1, func() { got = append(got, "high") })
	e.Run()
	if got[0] != "high" || got[1] != "low" {
		t.Fatalf("priority tie-break failed: %v", got)
	}
}

func TestEngineAfterRelative(t *testing.T) {
	e := New()
	var at time.Duration
	e.At(10*time.Millisecond, func() {
		e.After(5*time.Millisecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 15*time.Millisecond {
		t.Fatalf("After fired at %v, want 15ms", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(time.Millisecond, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	// Double-cancel is a no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestEngineSchedulePastClamps(t *testing.T) {
	e := New()
	var firedAt time.Duration
	e.At(10*time.Millisecond, func() {
		e.At(time.Millisecond, func() { firedAt = e.Now() }) // in the past
	})
	e.Run()
	if firedAt != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want clamp to 10ms", firedAt)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	e := New()
	count := 0
	e.Every(time.Millisecond, func() { count++ })
	if err := e.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	// Ticks at 1..9 ms fire; the tick at exactly 10ms does not.
	if count != 9 {
		t.Fatalf("count = %d, want 9", count)
	}
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want horizon", e.Now())
	}
}

func TestRunUntilDrained(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	err := e.RunUntil(time.Second)
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v, want horizon even when drained", e.Now())
	}
}

func TestTickerStop(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEveryAt(t *testing.T) {
	e := New()
	var times []time.Duration
	tk := e.EveryAt(5*time.Millisecond, 2*time.Millisecond, func() {
		times = append(times, e.Now())
	})
	_ = e.RunUntil(10 * time.Millisecond)
	tk.Stop()
	want := []time.Duration{5 * time.Millisecond, 7 * time.Millisecond, 9 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.At(time.Millisecond, func() {})
	e.At(2*time.Millisecond, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// TestPassed: a position has passed once a callback at or after it in
// the queue order has fired. RunUntil(h) passes every position before h
// and none at h, as callbacks at h do not fire; a callback queued in the
// past fires late but does not move the position back.
func TestPassed(t *testing.T) {
	const ms = time.Millisecond
	e := New()
	if e.Passed(0, -1, 0) {
		t.Fatal("fresh engine reports a position at time 0 as passed")
	}
	first := e.Reserve(3)
	var inside []bool
	e.PostReserved(2*ms, 0, first+1, func() {
		inside = append(inside, e.Passed(2*ms, 0, first+1), e.Passed(2*ms, 0, first+2), e.Passed(2*ms, -1, first+2))
		// Queued in the past: fires now, after this callback.
		e.AtPrio(ms, -5, func() {})
	})
	if err := e.RunUntil(2 * ms); err != nil {
		t.Fatal(err)
	}
	if !e.Passed(2*ms-1, 7, first+2) || e.Passed(2*ms, -9, 0) {
		t.Fatal("RunUntil(2ms) must pass every position before 2ms and none at it")
	}
	e.Run()
	if want := []bool{true, false, true}; !slices.Equal(inside, want) {
		t.Fatalf("Passed inside the callback at (2ms, 0, first+1) = %v, want %v", inside, want)
	}
	if !e.Passed(2*ms, 0, first+1) {
		t.Fatal("position moved back after a callback queued in the past fired")
	}
	// Position first+2 was reserved and never queued: it passes once the
	// engine moves beyond it.
	if e.Passed(2*ms, 0, first+2) {
		t.Fatal("empty reserved position passed before the engine reached it")
	}
	_ = e.RunUntil(3 * ms)
	if !e.Passed(2*ms, 0, first+2) {
		t.Fatal("empty reserved position not passed after the engine moved beyond it")
	}
}
