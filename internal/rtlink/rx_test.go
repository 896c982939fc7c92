package rtlink

import (
	"fmt"
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/sim"
)

// lookOnly is a link's radio.Windows that never answers from the plan,
// so every delivery applies the windows and looks at the radio.
type lookOnly struct{ *Link }

func (lookOnly) PendingRX() (time.Duration, bool) { return 0, false }

// countAnswers is a link's radio.Windows that counts the deliveries its
// plan answered.
type countAnswers struct {
	*Link
	yes *int
}

func (c countAnswers) PendingRX() (time.Duration, bool) {
	at, ok := c.Link.PendingRX()
	if ok {
		*c.yes++
	}
	return at, ok
}

// newWrappedWorld is newWorld run by Network, with every link's hook,
// present and joined later, replaced by wrap(link).
func newWrappedWorld(t *testing.T, spec cellSpec, wrap func(*Link) radio.Windows) *world {
	t.Helper()
	w := newWorld(t, spec, false)
	for _, id := range w.med.Nodes() {
		if l := w.link(id); l != nil {
			l.Radio().SetWindows(wrap(l))
		}
	}
	join := w.join
	w.join = func(id radio.NodeID) *Link {
		l := join(id)
		l.Radio().SetWindows(wrap(l))
		return l
	}
	return w
}

// compareAnswers runs the script with the plan answering RX and with
// every delivery applying and looking, requires identical logs, and
// returns how many deliveries the plan answered.
func compareAnswers(t *testing.T, name string, spec cellSpec, script []step, horizons []time.Duration) int {
	t.Helper()
	yes := 0
	got := newWrappedWorld(t, spec, func(l *Link) radio.Windows { return countAnswers{l, &yes} }).run(script, horizons)
	want := newWrappedWorld(t, spec, func(l *Link) radio.Windows { return lookOnly{l} }).run(script, horizons)
	sameLog(t, name, "apply-and-look", got, want)
	return yes
}

func setState(id radio.NodeID, s radio.State) func(*world) {
	return func(w *world) { w.med.Radio(id).SetState(s); w.logf("set %d %v", id, s) }
}

// TestPlanRXMatchesApplyAndLook pins the link's RX answer against
// applying the windows and looking, for frames that reach node 3 while
// it listens in slot 2 ([10,15) ms of a 4-node mesh): after it left and
// rejoined, or first joined, inside the open slot; after it crashed and
// recovered; after an explicit state change inside the window; and
// around a raw mid-slot send of its own. Each script runs with its
// actions early and late at each instant, so they fall on both sides
// of the slot open when they share its time.
func TestPlanRXMatchesApplyAndLook(t *testing.T) {
	ms := time.Millisecond
	spec := meshSpec(t, 4)
	frame := spec.cfg.FrameDuration()
	cases := []struct {
		name   string
		script []step
	}{
		{"plain", nil},
		// A radio left by its link keeps its state; these put it to
		// sleep before the link rejoins, as a join does not wake it.
		{"rejoined-in-open-slot", []step{{11 * ms, false, leaveNode(3)}, {11 * ms, false, setState(3, radio.StateSleep)}, {11 * ms, true, rejoin(3)}}},
		{"joined-in-open-slot", []step{{2 * ms, false, leaveNode(3)}, {3 * ms, false, setState(3, radio.StateSleep)}, {11 * ms, true, rejoin(3)}}},
		{"joined-at-slot-open", []step{{2 * ms, false, leaveNode(3)}, {3 * ms, false, setState(3, radio.StateSleep)}, {10 * ms, false, rejoin(3)}}},
		{"joined-awake", []step{{2 * ms, false, leaveNode(3)}, {11 * ms, true, rejoin(3)}}},
		{"crashed", []step{{3 * ms, false, crash(3)}}},
		{"crashed-in-window", []step{{11 * ms, false, crash(3)}}},
		{"recovered-in-window", []step{{3 * ms, false, crash(3)}, {11 * ms, false, recoverNode(3)}}},
		{"recovered-at-slot-open", []step{{3 * ms, false, crash(3)}, {10 * ms, false, recoverNode(3)}}},
		{"slept-in-window", []step{{11 * ms, false, setState(3, radio.StateSleep)}}},
		{"slept-at-slot-open", []step{{10 * ms, false, setState(3, radio.StateSleep)}}},
		{"rx-in-window", []step{{10*ms + 100*time.Microsecond, false, setState(3, radio.StateRX)}}},
		{"rx-before-window", []step{{7 * ms, false, setState(3, radio.StateRX)}}},
		{"idle-before-window", []step{{7 * ms, false, setState(3, radio.StateIdle)}}},
		{"own-raw-send-in-window", []step{{11 * ms, false, rawSend(3)}}},
		{"own-raw-send-across-open", []step{{10*ms - 200*time.Microsecond, false, rawSend(3)}}},
	}
	yes := 0
	for _, c := range cases {
		for _, late := range []bool{false, true} {
			// Node 2 owns slot 2: a fragment queued before the frame
			// leaves at its open, and raw frames go out mid-slot.
			script := []step{
				{1 * ms, false, send(2, radio.Broadcast, 10)},
				{12 * ms, false, rawSend(2)},
				{14 * ms, false, rawSend(2)},
				{frame + 12*ms, false, rawSend(2)},
			}
			for _, s := range c.script {
				script = append(script, step{s.at, late, s.do})
			}
			yes += compareAnswers(t, fmt.Sprintf("%s late=%v", c.name, late), spec, script, []time.Duration{13 * ms, 2 * frame})
		}
	}
	if yes == 0 {
		t.Fatal("the plan never answered a delivery")
	}
}

// TestPlanRXMatchesApplyAndLookRandom compares the two answers over the
// sparse reference test's random cells and scripts.
func TestPlanRXMatchesApplyAndLookRandom(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 30
	}
	yes := 0
	for c := range cases {
		spec, script, horizons := randomCase(t, sim.NewRNG(uint64(5000+c)))
		yes += compareAnswers(t, fmt.Sprintf("case %d", c), spec, script, horizons)
	}
	if yes == 0 {
		t.Fatal("the plan never answered a delivery")
	}
}
