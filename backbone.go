package evm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
)

// BackboneConfig parameterizes the campus backbone: the wired (or
// long-range) network bridging cell gateways. Unlike RT-Link slots the
// backbone is connection-less and always on; transfers pay a per-link
// one-way latency plus serialization time at every hop, and each hop
// loses the transfer independently with the link's PER (lost transfers
// retransmit end-to-end from the source after RetryAfter, up to
// MaxRetries attempts).
//
// The link fields describe the full-mesh link every cell pair gets when
// CampusConfig.Links is empty, and the default an explicit link's zero
// Latency inherits. Every link serializes at backboneBPS.
type BackboneConfig struct {
	// Latency is the one-way gateway-to-gateway propagation delay of a
	// default (mesh) link.
	Latency time.Duration
	// PER is the per-hop loss probability in [0, 1).
	PER float64
	// RetryAfter is the end-to-end retransmit delay after a lost hop.
	RetryAfter time.Duration
	// MaxRetries bounds retransmissions per transfer.
	MaxRetries int
}

// DefaultBackboneConfig returns a campus-Ethernet-like backbone: 20 ms
// one-way latency (plant backhaul, not a LAN switch), 10 Mbit/s, lossless.
func DefaultBackboneConfig() BackboneConfig {
	return BackboneConfig{
		Latency:    20 * time.Millisecond,
		PER:        0,
		RetryAfter: 100 * time.Millisecond,
		MaxRetries: 10,
	}
}

// backboneBPS is every backbone link's serialization rate, 10 Mbit/s.
const backboneBPS = 10_000_000

func (c BackboneConfig) withDefaults() BackboneConfig {
	d := DefaultBackboneConfig()
	if c.Latency <= 0 {
		c.Latency = d.Latency
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = d.MaxRetries
	}
	return c
}

func (c BackboneConfig) validate() error {
	if c.PER < 0 || c.PER >= 1 {
		return fmt.Errorf("evm: backbone PER %g outside [0,1)", c.PER)
	}
	return nil
}

// LinkConfig describes one explicit backbone link. A zero Latency
// inherits the backbone's; PER does not inherit the mesh default (an
// explicit link is lossless unless said otherwise).
type LinkConfig struct {
	// Latency is the link's one-way propagation delay.
	Latency time.Duration
	// PER is the per-hop loss probability in [0, 1).
	PER float64
}

// BackboneLink declares one explicit link between two named cells, an
// entry of CampusConfig.Links.
type BackboneLink struct {
	A, B   string
	Config LinkConfig
}

// BackboneStats counts backbone activity.
type BackboneStats struct {
	Sent      int
	Delivered int
	Dropped   int
	Failed    int
	// Forwarded counts hop traversals beyond the first — multi-hop
	// forwarding volume at intermediate cells.
	Forwarded int
}

// Backbone is the inter-cell network of a Campus. Its topology is fixed
// when the campus is built: the links of CampusConfig.Links, or a full
// mesh of identical links between every cell gateway when Links is
// empty. Transfers follow deterministic weighted shortest-path routes —
// links are priced by expected delay, latency / (1 - PER), so a clean
// multi-hop detour beats a lossy short-cut (equal-weight links reduce to
// min-hop with lowest-index tie-breaks; on the mesh every route is the
// direct hop) — with per-hop delay and loss. Links can be severed and
// restored (SetLinkDown, SetLinkUp) but never added. It runs on the
// shared simulation engine with its own PRNG fork so loss draws never
// perturb any cell's radio stream.
type Backbone struct {
	eng   *sim.Engine
	rng   *sim.RNG
	cfg   BackboneConfig
	names []string
	bus   *Bus
	stats BackboneStats

	// links[a][b] is the link between cells a and b (nil = none), kept
	// symmetric.
	links [][]*LinkConfig
	// down marks severed links (kept symmetric); a downed link is removed
	// from the route table and drops frames still in flight on it.
	down [][]bool
	// next[from][to] is the next-hop matrix (-1 = unreachable), recomputed
	// whenever a link goes down or comes back.
	next [][]int
}

// newBackbone builds the backbone over the named cells: the given links,
// or the full mesh of cfg's link when there are none.
func newBackbone(eng *sim.Engine, rng *sim.RNG, cfg BackboneConfig, names []string, links []BackboneLink, bus *Bus) (*Backbone, error) {
	n := len(names)
	b := &Backbone{
		eng: eng, rng: rng, cfg: cfg, names: names, bus: bus,
		links: make([][]*LinkConfig, n), down: make([][]bool, n), next: make([][]int, n),
	}
	for i := range n {
		b.links[i] = make([]*LinkConfig, n)
		b.down[i] = make([]bool, n)
		b.next[i] = make([]int, n)
	}
	if len(links) == 0 {
		mesh := &LinkConfig{Latency: cfg.Latency, PER: cfg.PER}
		for i := range n {
			for j := range n {
				if i != j {
					b.links[i][j] = mesh
				}
			}
		}
	}
	for _, l := range links {
		if err := b.addLink(l); err != nil {
			return nil, err
		}
	}
	b.computeRoutes()
	return b, nil
}

// Stats returns a copy of the backbone counters.
func (b *Backbone) Stats() BackboneStats { return b.stats }

// cellIndex resolves a cell name.
func (b *Backbone) cellIndex(name string) (int, bool) {
	for i, n := range b.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// addLink adds (or replaces) a bidirectional link between two named
// cells. A zero Latency inherits the backbone's.
func (b *Backbone) addLink(l BackboneLink) error {
	ai, ci, err := b.resolveLink(l.A, l.B)
	if err != nil {
		return err
	}
	cfg := l.Config
	if cfg.PER < 0 || cfg.PER >= 1 {
		return fmt.Errorf("evm: backbone link %s-%s PER %g outside [0,1)", l.A, l.B, cfg.PER)
	}
	if cfg.Latency <= 0 {
		cfg.Latency = b.cfg.Latency
	}
	b.links[ai][ci], b.links[ci][ai] = &cfg, &cfg
	return nil
}

// resolveLink validates a named cell pair and returns its indices.
func (b *Backbone) resolveLink(a, c string) (int, int, error) {
	ai, ok := b.cellIndex(a)
	if !ok {
		return 0, 0, fmt.Errorf("evm: backbone link names unknown cell %q", a)
	}
	ci, ok := b.cellIndex(c)
	if !ok {
		return 0, 0, fmt.Errorf("evm: backbone link names unknown cell %q", c)
	}
	if ai == ci {
		return 0, 0, fmt.Errorf("evm: backbone link from cell %q to itself", a)
	}
	return ai, ci, nil
}

// SetLinkDown severs the link between two named cells: the link leaves
// the route table (routes recompute deterministically), frames still in
// flight on it drop on arrival, and a BackboneLinkEvent records the
// change. Severing a severed link is a no-op.
func (b *Backbone) SetLinkDown(a, c string) error { return b.setLink(a, c, false) }

// SetLinkUp restores a previously severed link and publishes the
// matching BackboneLinkEvent. Restoring a live link is a no-op.
func (b *Backbone) SetLinkUp(a, c string) error { return b.setLink(a, c, true) }

// setLink moves an existing link to the given state, recomputing routes
// and publishing a BackboneLinkEvent when the state changes.
func (b *Backbone) setLink(a, c string, up bool) error {
	ai, ci, err := b.resolveLink(a, c)
	if err != nil {
		return err
	}
	if b.links[ai][ci] == nil {
		verb := "sever"
		if up {
			verb = "restore"
		}
		return fmt.Errorf("evm: no backbone link %s-%s to %s", a, c, verb)
	}
	if b.down[ai][ci] != up {
		return nil // already in that state
	}
	b.down[ai][ci], b.down[ci][ai] = !up, !up
	b.computeRoutes()
	b.bus.publish(BackboneLinkEvent{At: b.eng.Now(), A: b.names[ai], B: b.names[ci], Up: up})
	return nil
}

// LinkDown reports whether the link between two named cells is severed.
func (b *Backbone) LinkDown(a, c string) bool {
	ai, ci, err := b.resolveLink(a, c)
	return err == nil && b.down[ai][ci]
}

// linkWeight prices one traversal of a link: its expected one-way delay
// including end-to-end retransmits, latency / (1 - PER). A lossy link is
// as expensive as its retry amplification, so a clean three-hop detour
// can beat a 90%-loss direct hop (3x20 ms = 60 ms vs 20 ms / 0.1 =
// 200 ms) while uniform clean links still reduce to min-hop routing.
func linkWeight(link *LinkConfig) float64 {
	return link.Latency.Seconds() / (1 - link.PER)
}

// computeRoutes fills the next-hop matrix with weighted shortest paths
// (Dijkstra over linkWeight, neighbors visited in index order).
// Tie-breaks are deterministic: equal-cost routes prefer fewer hops, then
// the lowest-index predecessor — so uniform link weights reduce to
// min-hop routing with lowest-index detours, and recomputation after a
// link change is reproducible.
func (b *Backbone) computeRoutes() {
	n := len(b.names)
	dist := make([]float64, n)
	hops := make([]int, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for src := 0; src < n; src++ {
		for i := range n {
			dist[i], hops[i], prev[i], done[i] = -1, 0, -1, false // -1: unreached
		}
		dist[src], prev[src] = 0, src
		for {
			cur := -1
			for i := 0; i < n; i++ {
				if done[i] || dist[i] < 0 {
					continue
				}
				if cur < 0 || dist[i] < dist[cur] || //evm:allow-floatacc deliberate tie-break: both sides are the same deterministic sum of link weights, equal only when bit-identical
					(dist[i] == dist[cur] && hops[i] < hops[cur]) {
					cur = i
				}
			}
			if cur < 0 {
				break
			}
			done[cur] = true
			for nb, link := range b.links[cur] {
				if link == nil || b.down[cur][nb] || done[nb] {
					continue
				}
				nd := dist[cur] + linkWeight(link)
				nh := hops[cur] + 1
				better := dist[nb] < 0 || nd < dist[nb] ||
					(nd == dist[nb] && nh < hops[nb]) || //evm:allow-floatacc deliberate tie-break on exactly-equal path weights; the same weights sum in the same order on every run
					(nd == dist[nb] && nh == hops[nb] && cur < prev[nb])
				if better {
					dist[nb], hops[nb], prev[nb] = nd, nh, cur
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || prev[dst] < 0 {
				b.next[src][dst] = -1
				continue
			}
			// Walk back from dst to the first hop out of src.
			hop := dst
			for prev[hop] != src {
				hop = prev[hop]
			}
			b.next[src][dst] = hop
		}
	}
}

// Route returns the cell-index path of a transfer from one cell to
// another (inclusive of both endpoints), or nil when the backbone has
// no route.
func (b *Backbone) Route(from, to int) []int {
	h := b.Hops(from, to)
	if h <= 0 {
		return nil
	}
	path := make([]int, 1, h+1)
	path[0] = from
	for cur := from; cur != to; {
		cur = b.next[cur][to]
		path = append(path, cur)
	}
	return path
}

// Hops returns the backbone hop count between two cells, or -1 when no
// route exists.
func (b *Backbone) Hops(from, to int) int {
	if from == to {
		return 0
	}
	if from < 0 || to < 0 || from >= len(b.names) || to >= len(b.names) {
		return -1
	}
	h := 0
	for cur := from; cur != to; h++ {
		if cur = b.next[cur][to]; cur < 0 {
			return -1
		}
	}
	return h
}

// pathNames renders a route as cell names.
func (b *Backbone) pathNames(path []int) []string {
	out := make([]string, len(path))
	for i, idx := range path {
		out[i] = b.names[idx]
	}
	return out
}

// transferTime returns one hop's latency plus serialization for a payload.
func (b *Backbone) transferTime(link *LinkConfig, bytes int) time.Duration {
	ser := time.Duration(float64(bytes*8) / backboneBPS * float64(time.Second))
	return link.Latency + ser
}

// Send ships payload from one cell's gateway to another's along the
// shortest backbone route. onDeliver runs when the transfer arrives;
// onFail runs if no route exists or every retransmission is lost (both
// may be nil). Every transfer publishes a BackboneRouteEvent with the
// chosen path; a retransmission that finds the route table changed (a
// link severed or restored mid-transfer) publishes a fresh
// BackboneRouteEvent marked Reroute. Every attempt, delivery and loss
// publishes a BackboneEvent on the campus bus.
func (b *Backbone) Send(from, to int, payload []byte, onDeliver func([]byte), onFail func()) {
	path := b.Route(from, to)
	if path == nil {
		b.fail(from, to, len(payload), onFail)
		return
	}
	if t := b.eng.Tracer(); t != nil {
		// One span covers the whole end-to-end transfer including every
		// retransmission; per-hop child spans record the route legs.
		tid := t.Open("backbone-transfer", "backbone", "backbone", b.eng.Now(),
			span.Arg{Key: "from", Val: b.names[from]},
			span.Arg{Key: "to", Val: b.names[to]},
			span.Arg{Key: "bytes", Val: strconv.Itoa(len(payload))})
		inner, innerFail := onDeliver, onFail
		onDeliver = func(p []byte) {
			t.Close(tid, b.eng.Now(), span.Arg{Key: "outcome", Val: "deliver"})
			if inner != nil {
				inner(p)
			}
		}
		onFail = func() {
			t.Close(tid, b.eng.Now(), span.Arg{Key: "outcome", Val: "fail"})
			if innerFail != nil {
				innerFail()
			}
		}
	}
	b.bus.publish(BackboneRouteEvent{
		At: b.eng.Now(), From: b.names[from], To: b.names[to],
		Path: b.pathNames(path), Bytes: len(payload),
	})
	b.attempt(path, payload, 0, onDeliver, onFail)
}

// fail records a terminally failed transfer.
func (b *Backbone) fail(from, to, bytes int, onFail func()) {
	b.stats.Failed++
	b.bus.publish(BackboneEvent{
		At: b.eng.Now(), From: b.names[from], To: b.names[to], Kind: BackboneFail, Bytes: bytes,
	})
	if onFail != nil {
		onFail()
	}
}

// attempt starts one end-to-end transmission along the route.
func (b *Backbone) attempt(path []int, payload []byte, try int, onDeliver func([]byte), onFail func()) {
	from, to := path[0], path[len(path)-1]
	b.stats.Sent++
	b.bus.publish(BackboneEvent{
		At: b.eng.Now(), From: b.names[from], To: b.names[to], Kind: BackboneSend, Bytes: len(payload),
	})
	b.hop(path, 0, payload, try, onDeliver, onFail)
}

// retry schedules the next end-to-end retransmission after a loss. The
// route is re-resolved at retransmit time, so a transfer whose link was
// severed mid-flight reroutes around it (or fails if the destination is
// partitioned off); a changed path is recorded as a Reroute event.
func (b *Backbone) retry(prev []int, payload []byte, try int, onDeliver func([]byte), onFail func()) {
	from, to := prev[0], prev[len(prev)-1]
	if try+1 > b.cfg.MaxRetries {
		b.fail(from, to, len(payload), onFail)
		return
	}
	b.eng.After(b.cfg.RetryAfter, func() {
		path := b.Route(from, to)
		if path == nil {
			b.fail(from, to, len(payload), onFail)
			return
		}
		if !slices.Equal(path, prev) {
			b.eng.Tracer().Instant("backbone-reroute", "backbone", "backbone", b.eng.Now(),
				span.Arg{Key: "from", Val: b.names[from]},
				span.Arg{Key: "to", Val: b.names[to]},
				span.Arg{Key: "path", Val: strings.Join(b.pathNames(path), ">")})
			b.bus.publish(BackboneRouteEvent{
				At: b.eng.Now(), From: b.names[from], To: b.names[to],
				Path: b.pathNames(path), Bytes: len(payload), Reroute: true,
			})
		}
		b.attempt(path, payload, try+1, onDeliver, onFail)
	})
}

// hop traverses one link of the route: pay the link's delay, then drop
// the frame if the link was severed while it was in flight, draw the
// link's loss, and forward or deliver.
func (b *Backbone) hop(path []int, i int, payload []byte, try int, onDeliver func([]byte), onFail func()) {
	from, to := path[0], path[len(path)-1]
	link := b.links[path[i]][path[i+1]]
	if t := b.eng.Tracer(); t != nil {
		now := b.eng.Now()
		t.Complete("backbone-hop", "backbone", "backbone", now, now+b.transferTime(link, len(payload)),
			span.Arg{Key: "from", Val: b.names[path[i]]},
			span.Arg{Key: "to", Val: b.names[path[i+1]]},
			span.Arg{Key: "try", Val: strconv.Itoa(try)})
	}
	b.eng.After(b.transferTime(link, len(payload)), func() {
		lost := b.down[path[i]][path[i+1]]
		if !lost && link.PER > 0 && b.rng.Bool(link.PER) {
			lost = true
		}
		if lost {
			b.stats.Dropped++
			via := ""
			if path[i] != from {
				via = b.names[path[i]]
			}
			b.bus.publish(BackboneEvent{
				At: b.eng.Now(), From: b.names[from], To: b.names[to], Kind: BackboneDrop,
				Bytes: len(payload), Via: via,
			})
			b.retry(path, payload, try, onDeliver, onFail)
			return
		}
		if i+1 < len(path)-1 {
			b.stats.Forwarded++
			b.hop(path, i+1, payload, try, onDeliver, onFail)
			return
		}
		b.stats.Delivered++
		b.bus.publish(BackboneEvent{
			At: b.eng.Now(), From: b.names[from], To: b.names[to], Kind: BackboneDeliver, Bytes: len(payload),
		})
		if onDeliver != nil {
			onDeliver(payload)
		}
	})
}

// Metric keys the Runner counts from backbone events.
const (
	MetricBackboneDelivered = "backbone_delivered"
	// MetricBackboneDropped counts per-hop backbone losses.
	MetricBackboneDropped = "backbone_dropped"
	// MetricBackboneLinkFaults counts backbone link severs (LinkDown
	// steps taking effect; restores are the tail end of a fault already
	// counted).
	MetricBackboneLinkFaults = "backbone_link_faults"
	// MetricBackboneReroutes counts retransmissions that picked a new
	// path because the link set changed mid-transfer.
	MetricBackboneReroutes = "backbone_reroutes"
)

// Runner counter bits the kinds below return from counters.
var (
	backboneReroutesCounter   = counter(MetricBackboneReroutes)
	backboneLinkFaultsCounter = counter(MetricBackboneLinkFaults)
	backboneDeliveredCounter  = counter(MetricBackboneDelivered)
	backboneDroppedCounter    = counter(MetricBackboneDropped)
)

// BackboneEventKind classifies a BackboneEvent.
type BackboneEventKind string

// Backbone event kinds.
const (
	BackboneSend    BackboneEventKind = "send"
	BackboneDeliver BackboneEventKind = "deliver"
	BackboneDrop    BackboneEventKind = "drop"
	BackboneFail    BackboneEventKind = "fail"
)

// BackboneEvent fires for every backbone transfer attempt, delivery and
// loss. From/To are the end-to-end cell names; Via names the
// intermediate cell a multi-hop transfer was lost at ("" when the loss
// happened on the first hop or the route is single-hop).
type BackboneEvent struct {
	At    time.Duration
	From  string
	To    string
	Kind  BackboneEventKind
	Bytes int
	Via   string
}

// When implements Event.
func (e BackboneEvent) When() time.Duration { return e.At }

// String implements Event.
func (e BackboneEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e BackboneEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "backbone"), "kind", string(e.Kind))
	dst = appendField(appendField(dst, "from", e.From), "to", e.To)
	if e.Via != "" {
		dst = appendField(dst, "via", e.Via)
	}
	return appendInt(dst, "bytes", e.Bytes)
}

// backboneOutcomes declares each transfer outcome's series and counters.
var backboneOutcomes = map[BackboneEventKind]struct {
	series   string
	counters counterSet
}{
	BackboneSend:    {"backbone_sent", 0},
	BackboneDeliver: {"backbone_delivered", backboneDeliveredCounter},
	BackboneDrop:    {"backbone_dropped", backboneDroppedCounter},
	BackboneFail:    {"backbone_failed", 0},
}

func (e BackboneEvent) series() string       { return backboneOutcomes[e.Kind].series }
func (e BackboneEvent) counters() counterSet { return backboneOutcomes[e.Kind].counters }

// BackboneRouteEvent fires once per backbone transfer with the route the
// transfer will follow (inclusive of both endpoint cells), and again —
// marked Reroute — whenever a retransmission of the same transfer picks
// a different path because the link set changed mid-flight.
type BackboneRouteEvent struct {
	At      time.Duration
	From    string
	To      string
	Path    []string
	Bytes   int
	Reroute bool
}

// When implements Event.
func (e BackboneRouteEvent) When() time.Duration { return e.At }

// String implements Event.
func (e BackboneRouteEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e BackboneRouteEvent) appendText(dst []byte) []byte {
	kind := "backbone-route"
	if e.Reroute {
		kind = "backbone-reroute"
	}
	dst = appendField(appendField(appendStamp(dst, e.At, kind), "from", e.From), "to", e.To)
	return appendInt(appendJoined(dst, "path", e.Path, '>'), "bytes", e.Bytes)
}

func (BackboneRouteEvent) series() string         { return "backbone_routes" }
func (e BackboneRouteEvent) counters() counterSet { return only(e.Reroute, backboneReroutesCounter) }

// BackboneLinkEvent fires when a backbone link is severed or restored by
// link-level fault dynamics (FaultStep.LinkDown / FaultStep.LinkUp).
type BackboneLinkEvent struct {
	At time.Duration
	A  string
	B  string
	// Up is false when the link went down, true when it came back.
	Up bool
}

// When implements Event.
func (e BackboneLinkEvent) When() time.Duration { return e.At }

// String implements Event.
func (e BackboneLinkEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e BackboneLinkEvent) appendText(dst []byte) []byte {
	state := "down"
	if e.Up {
		state = "up"
	}
	dst = appendField(appendField(appendStamp(dst, e.At, "backbone-link"), "a", e.A), "b", e.B)
	return appendField(dst, "state", state)
}

func (BackboneLinkEvent) series() string         { return "backbone_links" }
func (e BackboneLinkEvent) counters() counterSet { return only(!e.Up, backboneLinkFaultsCounter) }
