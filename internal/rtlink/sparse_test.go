package rtlink

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/sim"
)

// refNet is the frame loop as it was before idle slots went event-free,
// kept as the reference model: every slot of an active frame opens and
// closes by an engine event, which wakes the slot's listeners and puts
// them back to sleep at once. It posts its sync-sleep, open and close
// callbacks at frame start, in the order Network reserves their
// positions, so a world run by refNet and one run by Network give every
// callback the same position in the firing order. Its links are ordinary
// Links whose net has no frame plan, so they never queue a slot open and
// never install a catch-up hook.
type refNet struct {
	eng   *sim.Engine
	med   *radio.Medium
	cfg   Config
	sched Schedule
	stub  *Network
	byID  []*Link
	frame uint64
}

func (n *refNet) link(id radio.NodeID) *Link {
	if int(id) < len(n.byID) {
		return n.byID[id]
	}
	return nil
}

func (n *refNet) join(id radio.NodeID) *Link {
	l := &Link{net: n.stub, r: n.med.Radio(id)}
	l.r.SetHandler(l.onFrame)
	if int(id) >= len(n.byID) {
		n.byID = append(n.byID, make([]*Link, int(id)+1-len(n.byID))...)
	}
	n.byID[id] = l
	return l
}

func (n *refNet) leave(id radio.NodeID) {
	if l := n.link(id); l != nil {
		l.r.SetHandler(nil)
		n.byID[id] = nil
	}
}

func (n *refNet) setState(s radio.State) {
	for _, l := range n.byID {
		if l != nil && !l.r.Failed() {
			l.r.SetState(s)
		}
	}
}

func (n *refNet) runFrame() {
	start, slot := n.eng.Now(), n.cfg.SlotDuration
	n.frame++
	for _, l := range n.byID {
		if l != nil {
			l.txThisFrame = 0
		}
	}
	if (n.frame-1)%uint64(n.cfg.ActiveFrameEvery) == 0 {
		n.med.Sync()
		n.setState(radio.StateRX)
		n.eng.Post(start+slot, -1, func() { n.setState(radio.StateSleep) })
		for _, s := range sim.SortedKeys(n.sched) {
			as, at := n.sched[s], start+time.Duration(s)*slot
			n.eng.Post(at, 0, func() { n.open(as) })
			n.eng.Post(at+slot, -1, func() { n.close(as) })
		}
	}
	n.eng.Post(start+n.cfg.FrameDuration(), 0, n.runFrame)
}

func (n *refNet) open(as SlotAssign) {
	for _, id := range as.Listeners {
		if l := n.link(id); l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateRX)
		}
	}
	if o := n.link(as.Owner); o != nil && !o.r.Failed() {
		o.transmitNext()
	}
}

func (n *refNet) close(as SlotAssign) {
	for _, id := range append(slices.Clip(as.Listeners), as.Owner) {
		if l := n.link(id); l != nil && !l.r.Failed() {
			l.r.SetState(radio.StateSleep)
		}
	}
}

// world is one simulated cell, run either by Network or by refNet.
type world struct {
	eng         *sim.Engine
	med         *radio.Medium
	link        func(radio.NodeID) *Link
	join        func(radio.NodeID) *Link
	leave       func(radio.NodeID)
	setSchedule func(Schedule)
	routes      []route
	log         []string
}

func (w *world) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf("%v ", w.eng.Now())+fmt.Sprintf(format, args...))
}

// cellSpec describes a world: node positions (node i+1 at pos[i]), the
// frame, the initial schedule, the channel loss and the routes each
// node takes when it joins.
type cellSpec struct {
	pos    []radio.Position
	cfg    Config
	sched  Schedule
	per    float64
	routes []route
}

// route sends node's traffic for dst through hop.
type route struct{ node, dst, hop radio.NodeID }

func newWorld(t testing.TB, spec cellSpec, ref bool) *world {
	t.Helper()
	eng := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.RefPER = 0
	rcfg.Burst = radio.GilbertElliott{}
	if spec.per > 0 {
		rcfg.Burst = radio.DefaultGilbertElliott()
	}
	med := radio.NewMedium(eng, sim.NewRNG(5), rcfg)
	med.ForcePER(spec.per)
	for i, p := range spec.pos {
		if _, err := med.Attach(radio.NodeID(i+1), p, radio.NewBattery(2600), radio.DefaultEnergyModel()); err != nil {
			t.Fatal(err)
		}
	}
	w := &world{eng: eng, med: med}
	if ref {
		n := &refNet{eng: eng, med: med, cfg: spec.cfg, sched: spec.sched, stub: &Network{eng: eng, med: med, cfg: spec.cfg}}
		w.link, w.join, w.leave = n.link, n.join, n.leave
		w.setSchedule = func(s Schedule) { n.sched = s }
		eng.Post(0, 0, n.runFrame)
	} else {
		n, err := NewNetwork(med, spec.cfg, spec.sched)
		if err != nil {
			t.Fatal(err)
		}
		w.link, w.leave = n.Link, n.Leave
		w.join = func(id radio.NodeID) *Link {
			l, err := n.Join(id)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		w.setSchedule = func(s Schedule) {
			if err := n.SetSchedule(s); err != nil {
				t.Fatal(err)
			}
		}
		n.Start()
	}
	w.routes = spec.routes
	for i := range spec.pos {
		w.joinNode(radio.NodeID(i + 1))
	}
	return w
}

// joinNode joins id, installs its routes and logs every message it
// delivers.
func (w *world) joinNode(id radio.NodeID) {
	l := w.join(id)
	l.SetHandler(func(m Message) { w.logf("deliver %d<-%d %x", id, m.Src, m.Payload) })
	for _, r := range w.routes {
		if r.node == id {
			l.SetRoute(r.dst, r.hop)
		}
	}
}

// step is one scripted action at a virtual time. A late step is posted
// by a callback at the same instant, so it sorts after every callback the
// frame loop reserved by then, a slot open at that instant included; an
// early one is posted before the run and sorts before them.
type step struct {
	at   time.Duration
	late bool
	do   func(w *world)
}

// run plays the script into w and stops at each horizon in turn, reading
// every battery there, and returns w's log plus a final per-radio ledger.
func (w *world) run(script []step, horizons []time.Duration) []string {
	for _, s := range script {
		do := s.do
		if s.late {
			w.eng.At(s.at, func() { w.eng.At(s.at, func() { do(w) }) })
		} else {
			w.eng.At(s.at, func() { do(w) })
		}
	}
	for _, h := range horizons {
		_ = w.eng.RunUntil(h)
		for _, id := range w.med.Nodes() {
			w.logf("horizon energy %d %x", id, math.Float64bits(w.med.Radio(id).EnergyConsumedMAH()))
		}
	}
	for _, id := range w.med.Nodes() {
		r := w.med.Radio(id)
		w.logf("radio %d state %v received %d drops %d/%d/%d/%d time %v/%v/%v/%v", id, r.State(), r.Received(),
			r.Drops(radio.DropLoss), r.Drops(radio.DropCollision), r.Drops(radio.DropNotListening), r.Drops(radio.DropOutOfRange),
			r.TimeIn(radio.StateSleep), r.TimeIn(radio.StateIdle), r.TimeIn(radio.StateRX), r.TimeIn(radio.StateTX))
		if l := w.link(id); l != nil {
			w.logf("link %d %+v queued %d", id, l.Stats(), l.QueueLen())
		}
	}
	return w.log
}

// Script actions, each logging what it observed.

func send(id, dst radio.NodeID, size int) func(*world) {
	return func(w *world) {
		if l := w.link(id); l != nil {
			err := l.Send(Message{Dst: dst, Kind: 1, Payload: make([]byte, size)})
			w.logf("send %d->%d %d err=%v", id, dst, size, err)
		}
	}
}

// rawSend transmits a non-RT-Link frame straight from the radio, outside
// any owned slot: the receivers' links ignore its kind.
func rawSend(id radio.NodeID) func(*world) {
	return func(w *world) {
		air, err := w.med.Radio(id).Send(radio.Packet{Dst: radio.Broadcast, Kind: 9, Payload: make([]byte, 8)})
		w.logf("raw %d air=%v err=%v", id, air, err)
	}
}

func crash(id radio.NodeID) func(*world) {
	return func(w *world) { w.med.Radio(id).Fail(); w.logf("crash %d", id) }
}

func recoverNode(id radio.NodeID) func(*world) {
	return func(w *world) { w.med.Radio(id).Recover(); w.logf("recover %d", id) }
}

func leaveNode(id radio.NodeID) func(*world) {
	return func(w *world) { w.leave(id); w.logf("leave %d", id) }
}

func rejoin(id radio.NodeID) func(*world) {
	return func(w *world) {
		if w.link(id) == nil {
			w.joinNode(id)
			w.logf("join %d", id)
		}
	}
}

func readEnergy(id radio.NodeID) func(*world) {
	return func(w *world) {
		w.logf("energy %d %x", id, math.Float64bits(w.med.Radio(id).EnergyConsumedMAH()))
	}
}

func probe(id radio.NodeID) func(*world) {
	return func(w *world) { w.logf("state %d %v", id, w.med.Radio(id).State()) }
}

func reroute(id, dst, hop radio.NodeID) func(*world) {
	return func(w *world) {
		if l := w.link(id); l != nil {
			l.SetRoute(dst, hop)
		}
	}
}

func budget(id radio.NodeID, n int) func(*world) {
	return func(w *world) {
		if l := w.link(id); l != nil {
			l.SetNetworkReservation(n)
		}
	}
}

func reschedule(s Schedule) func(*world) {
	return func(w *world) { w.setSchedule(s); w.logf("reschedule") }
}

// compareWorlds runs the script in a Network world and a refNet world
// and fails on the first line where their logs differ.
func compareWorlds(t *testing.T, name string, spec cellSpec, script []step, horizons []time.Duration) []string {
	t.Helper()
	got := newWorld(t, spec, false).run(script, horizons)
	sameLog(t, name, "the eager reference", got, newWorld(t, spec, true).run(script, horizons))
	return got
}

// sameLog fails on the first line where got differs from want, the log
// of ref.
func sameLog(t *testing.T, name, ref string, got, want []string) {
	t.Helper()
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs from %s:\n got  %s\n want %s", name, i, ref, g, w)
		}
	}
}

// meshSpec is an n-node mesh on a 3 m line, one slot each, in a frame of
// 20 slots.
func meshSpec(t *testing.T, n int) cellSpec {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SlotsPerFrame = 20
	ids := make([]radio.NodeID, n)
	pos := make([]radio.Position, n)
	for i := range ids {
		ids[i], pos[i] = radio.NodeID(i+1), radio.Position{X: float64(3 * i)}
	}
	sched, err := BuildMeshSchedule(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cellSpec{pos: pos, cfg: cfg, sched: sched}
}

// TestSparseFrameAfterIdleSlots sends a frame after k slots in which
// nobody had anything to send, so no slot event fired: the listeners'
// windows all come from the schedule, and the delivery check must still
// see each live listener in RX since its window opened. Variants put a
// listener that joined, left or crashed in the idle stretch.
func TestSparseFrameAfterIdleSlots(t *testing.T) {
	const slot = 5 * time.Millisecond
	spec := meshSpec(t, 4)
	frame := spec.cfg.FrameDuration()
	for k := 0; k <= 2*spec.cfg.SlotsPerFrame; k++ {
		at := time.Duration(k) * slot
		for _, v := range []struct {
			name  string
			extra []step
		}{
			{"plain", nil},
			{"listener-left", []step{{at / 2, false, leaveNode(3)}}},
			{"listener-rejoined", []step{{at / 3, false, leaveNode(3)}, {at / 2, true, rejoin(3)}}},
			{"listener-crashed", []step{{at / 2, false, crash(2)}}},
			{"listener-recovered", []step{{at / 3, false, crash(2)}, {at/2 + 1, false, recoverNode(2)}}},
		} {
			script := append([]step{{at, k%2 == 1, send(1, radio.Broadcast, 10)}}, v.extra...)
			log := compareWorlds(t, fmt.Sprintf("k=%d %s", k, v.name), spec, script, []time.Duration{at + 2*frame})
			if v.name == "plain" && !slices.ContainsFunc(log, func(s string) bool { return strings.HasSuffix(s, " deliver 4<-1 00000000000000000000") }) {
				t.Fatalf("k=%d: node 4 never got the frame sent after %d idle slots", k, k)
			}
		}
	}
}

// TestSparseSendRestoresCaughtUpState: a radio that transmits outside
// its own slot returns, after the air time, to the state it was in when
// it started. With listener windows applied lazily, that state must be
// the one the windows left (asleep after a closed window, in RX inside
// an open one), not the stale one from the radio's last catch-up.
func TestSparseSendRestoresCaughtUpState(t *testing.T) {
	spec := meshSpec(t, 3)
	ms := time.Millisecond
	// Node 3 listens in slots 1 and 2 ([5,10) and [10,15) ms). Its last
	// catch-up is at the probe inside slot 1; the raw send at 17 ms comes
	// after both windows closed, and the one at 12 ms inside slot 2.
	for _, at := range []time.Duration{17 * ms, 12 * ms, 10 * ms, 15 * ms} {
		for _, late := range []bool{false, true} {
			script := []step{
				{7 * ms, false, probe(3)},
				{at, late, rawSend(3)},
				{at + 4*ms, false, probe(3)},
				{at + 4*ms, false, readEnergy(3)},
			}
			log := compareWorlds(t, fmt.Sprintf("raw send at %v late=%v", at, late), spec, script, []time.Duration{at + 10*ms, 100 * ms})
			if at == 17*ms {
				want := fmt.Sprintf("%v state 3 sleep", at+4*ms)
				if !slices.Contains(log, want) {
					t.Fatalf("raw send at %v: node 3 did not return to sleep; log:\n%v", at, log)
				}
			}
		}
	}
}

// TestSparseMatchesEagerReference runs random cells and random scripts
// through Network and through the eager refNet and requires identical
// logs: every delivery, send result, state probe and energy read, then
// per radio the drops by reason and the time in each state, and per link
// its counters. Scripts send at slot opens on both sides of the open's
// position, crash, recover, leave and rejoin nodes and read batteries
// inside windows, transmit raw frames, reroute, cap reservations and
// swap the schedule mid-frame; runs stop at horizons on slot boundaries
// and inside slots.
func TestSparseMatchesEagerReference(t *testing.T) {
	cases := 500
	if testing.Short() {
		cases = 40
	}
	for c := range cases {
		rng := sim.NewRNG(uint64(1000 + c))
		spec, script, horizons := randomCase(t, rng)
		compareWorlds(t, fmt.Sprintf("case %d", c), spec, script, horizons)
	}
}

func randomSchedule(rng *sim.RNG, n int, cfg Config) Schedule {
	s := make(Schedule)
	for slot := 1; slot < cfg.SlotsPerFrame; slot++ {
		if rng.Float64() < 0.35 {
			continue
		}
		as := SlotAssign{Owner: radio.NodeID(1 + rng.Intn(n))}
		for id := radio.NodeID(1); int(id) <= n; id++ {
			if id != as.Owner && rng.Float64() < 0.7 {
				as.Listeners = append(as.Listeners, id)
			}
		}
		s[slot] = as
	}
	return s
}

func randomCase(t *testing.T, rng *sim.RNG) (cellSpec, []step, []time.Duration) {
	t.Helper()
	n := 2 + rng.Intn(5)
	cfg := DefaultConfig()
	cfg.SlotsPerFrame = 4 + rng.Intn(13)
	cfg.ActiveFrameEvery = 1 + rng.Intn(2)
	spec := cellSpec{cfg: cfg, sched: randomSchedule(rng, n, cfg)}
	if rng.Float64() < 0.5 {
		spec.per = 0.2
	}
	for i := 0; i < n; i++ {
		// Up to 40 m apart, so some pairs are out of the 30 m range.
		spec.pos = append(spec.pos, radio.Position{X: 40 * rng.Float64()})
	}
	node := func() radio.NodeID { return radio.NodeID(1 + rng.Intn(n)) }
	// A node relays a fragment for dst only if it has a route there:
	// most nodes route most destinations directly, and some senders
	// route through a hop.
	for a := radio.NodeID(1); int(a) <= n; a++ {
		for d := radio.NodeID(1); int(d) <= n; d++ {
			switch x := rng.Float64(); {
			case a == d:
			case x < 0.3 && n > 2:
				h := node()
				for h == a || h == d {
					h = node()
				}
				spec.routes = append(spec.routes, route{a, d, h})
			case x < 0.8:
				spec.routes = append(spec.routes, route{a, d, d})
			}
		}
	}
	slot, frame := cfg.SlotDuration, cfg.FrameDuration()
	end := time.Duration(3+rng.Intn(4)) * frame
	// Times land on slot boundaries, a nanosecond either side, or
	// anywhere in a slot.
	when := func() time.Duration {
		at := time.Duration(rng.Intn(int(end/slot))) * slot
		switch rng.Intn(4) {
		case 0:
			return at
		case 1:
			return at + 1
		case 2:
			return max(at-1, 0)
		default:
			return at + time.Duration(rng.Intn(int(slot)))
		}
	}
	var script []step
	for range 10 + rng.Intn(30) {
		var do func(*world)
		switch k := rng.Intn(24); {
		case k < 10:
			dst := node()
			if rng.Float64() < 0.4 {
				dst = radio.Broadcast
			}
			do = send(node(), dst, rng.Intn(2*cfg.MaxPayload+1))
		case k < 12:
			do = readEnergy(node())
		case k < 13:
			do = probe(node())
		case k < 14:
			do = crash(node())
		case k < 16:
			do = recoverNode(node())
		case k < 17:
			do = leaveNode(node())
		case k < 19:
			do = rejoin(node())
		case k < 20:
			do = rawSend(node())
		case k < 21:
			do = reroute(node(), node(), node())
		case k < 23:
			do = budget(node(), 1+rng.Intn(2))
		default:
			do = reschedule(randomSchedule(rng, n, cfg))
		}
		script = append(script, step{when(), rng.Float64() < 0.5, do})
	}
	horizons := []time.Duration{when(), end / 2, when()}
	slices.Sort(horizons)
	return spec, script, append(horizons, end)
}
