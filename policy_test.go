package evm

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

// TestPlacementPolicyRegistry covers the built-in policy table: the
// three built-ins are listed and NewCampus refuses an unknown name.
func TestPlacementPolicyRegistry(t *testing.T) {
	want := []string{PolicyAffinity, PolicyCampusBQP, PolicyLeastLoaded}
	if names := PlacementPolicies(); !reflect.DeepEqual(names, want) {
		t.Fatalf("PlacementPolicies() = %v, want %v", names, want)
	}
	campus, err := NewCampus(CampusConfig{Seed: 1, Placement: "no-such-policy"}, refineryCells()...)
	if err == nil {
		campus.Stop()
		t.Fatal("unknown policy name accepted")
	}
	if !strings.Contains(err.Error(), `unknown placement policy "no-such-policy"`) {
		t.Fatalf("unknown policy error = %v", err)
	}
}

// TestLeastLoadedPolicyMatchesLegacyCoordinator: naming least-loaded
// explicitly produces a campus event stream byte-identical to leaving
// CampusConfig.Placement empty.
func TestLeastLoadedPolicyMatchesLegacyCoordinator(t *testing.T) {
	run := func(policy string) []string {
		campus, err := NewCampus(CampusConfig{Seed: 42, Placement: policy}, refineryCells()...)
		if err != nil {
			t.Fatal(err)
		}
		defer campus.Stop()
		if err := campus.ApplyFaultPlan("unit-a",
			KillCellPlan(10*time.Second, campus.Cell("unit-a"))); err != nil {
			t.Fatal(err)
		}
		log := campus.Events().Log()
		campus.Run(25 * time.Second)
		return log.Strings()
	}
	def := run("")
	explicit := run(PolicyLeastLoaded)
	if len(def) == 0 {
		t.Fatal("no campus events recorded")
	}
	if !reflect.DeepEqual(def, explicit) {
		t.Fatal("explicit least-loaded policy diverges from the default coordinator")
	}
}

// TestPlacementPicksAreViable is the contract every built-in placement
// policy keeps, checked over seeded random requests: a pick is a listed
// cell with eligible hosts and a backbone route, a policy declines only
// when no listed cell has both, and equal requests give equal picks.
// Campus.escalate relies on it: it ships the task to the pick unchecked.
func TestPlacementPicksAreViable(t *testing.T) {
	rng := sim.NewRNG(7)
	task := TaskSpec{ID: "t", Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond}
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(7)
		from, origin := rng.Intn(n), rng.Intn(n)
		req := placementRequest{Task: task}
		for c := 0; c < n; c++ {
			if c == from {
				continue
			}
			req.Cells = append(req.Cells, cellCondition{
				Index:         c,
				Placed:        rng.Intn(8),
				EligibleHosts: rng.Intn(3),
				Utilization:   rng.Float64() * 2,
				Capacity:      float64(rng.Intn(6)),
				Hops:          rng.Intn(4) - 1,
				Origin:        c == origin,
			})
		}
		for d := rng.Intn(5); d > 0; d-- {
			req.Displaced = append(req.Displaced, displacedTask{Cell: rng.Intn(n), Util: rng.Float64() * 0.5})
		}
		anyViable := false
		for _, cc := range req.Cells {
			anyViable = anyViable || cc.viable()
		}
		for _, name := range PlacementPolicies() {
			pick := placementPolicies[name]
			dst, ok := pick(req)
			if again, okAgain := pick(req); again != dst || okAgain != ok {
				t.Fatalf("request %d: %s picked (%d, %t) then (%d, %t)", i, name, dst, ok, again, okAgain)
			}
			if ok != anyViable {
				t.Fatalf("request %d: %s found=%t, but a viable cell exists=%t (%+v)", i, name, ok, anyViable, req.Cells)
			}
			if !ok {
				continue
			}
			listed := false
			for _, cc := range req.Cells {
				if cc.Index == dst {
					listed = true
					if !cc.viable() {
						t.Fatalf("request %d: %s picked cell %d without a host or route: %+v", i, name, dst, cc)
					}
				}
			}
			if !listed || dst == from {
				t.Fatalf("request %d: %s picked unlisted cell %d (from %d)", i, name, dst, from)
			}
		}
	}
}

// TestCampusBQPFewerOverloadsOnRing is the PR's acceptance comparison:
// on the refinery-ring scenario (explicit non-mesh backbone, lossy far
// side) with identical seeds and the same outage plan, the routing-aware
// campus-BQP policy strands unit-a's tasks for strictly fewer
// coordinator overload ticks than topology-blind least-loaded, and all
// of its transfers stay on one-hop routes.
func TestCampusBQPFewerOverloadsOnRing(t *testing.T) {
	plan := RefineryOutagePlan(10*time.Second, 22*time.Second)
	for _, seed := range []uint64{2, 3, 4, 5} {
		var overloads [2]float64
		for i, pol := range []string{PolicyLeastLoaded, PolicyCampusBQP} {
			res := (&Runner{Workers: 1}).Run([]RunSpec{{
				Scenario: ScenarioRefineryRing, Seed: seed, Horizon: 35 * time.Second,
				Faults: plan, FaultCell: "unit-a", Policy: pol,
			}})
			if res[0].Err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, pol, res[0].Err)
			}
			overloads[i] = res[0].Metrics[MetricCellOverloads]
			if pol == PolicyCampusBQP {
				if drops := res[0].Metrics[MetricBackboneDropped]; drops != 0 {
					t.Fatalf("seed %d: campus-bqp used lossy links (%v drops)", seed, drops)
				}
			}
			// The outage must actually resolve: every unit-a task leaves
			// and eventually rebalances home.
			if res[0].Metrics[MetricRebalances] != 4 {
				t.Fatalf("seed %d policy %s: rebalances = %v, want 4",
					seed, pol, res[0].Metrics[MetricRebalances])
			}
			if res[0].Metrics["tasks_foreign"] != 0 {
				t.Fatalf("seed %d policy %s: %v tasks still foreign at horizon",
					seed, pol, res[0].Metrics["tasks_foreign"])
			}
		}
		if overloads[1] >= overloads[0] {
			t.Fatalf("seed %d: campus-bqp overloads %v !< least-loaded %v",
				seed, overloads[1], overloads[0])
		}
	}
}

// TestCampusBQPAvoidsMultiHopRoutes inspects the route events directly:
// under campus-bqp every escalation out of unit-a rides a one-hop ring
// link, while least-loaded provably routes through the two-hop lossy
// path on the same seed.
func TestCampusBQPAvoidsMultiHopRoutes(t *testing.T) {
	run := func(policy string) (maxHops int) {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRing, Seed: 3, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		if err := exp.Campus.ApplyFaultPlan("unit-a",
			KillCellPlan(10*time.Second, exp.Campus.Cell("unit-a"))); err != nil {
			t.Fatal(err)
		}
		sub := exp.Campus.Events().Subscribe(func(ev Event) {
			if re, ok := ev.(BackboneRouteEvent); ok && re.From == "unit-a" {
				if h := len(re.Path) - 1; h > maxHops {
					maxHops = h
				}
			}
		})
		defer sub.Cancel()
		exp.Campus.Run(20 * time.Second)
		return maxHops
	}
	if hops := run(PolicyCampusBQP); hops != 1 {
		t.Fatalf("campus-bqp max route hops = %d, want 1", hops)
	}
	if hops := run(PolicyLeastLoaded); hops < 2 {
		t.Fatalf("least-loaded max route hops = %d, want >= 2 (the lossy path)", hops)
	}
}

// TestRingBackboneRouting covers the explicit-topology backbone: BFS
// shortest paths with deterministic tie-breaks, unreachable cells, and
// accumulated per-hop latency.
func TestRingBackboneRouting(t *testing.T) {
	unit := func(name string) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(4),
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: name + "-loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
			},
		}
	}
	campus, err := NewCampus(CampusConfig{
		Seed: 1,
		Links: []BackboneLink{
			{A: "a", B: "b"},
			{A: "b", B: "c"},
			{A: "c", B: "d"},
			{A: "d", B: "a"},
		},
	}, unit("a"), unit("b"), unit("c"), unit("d"), unit("e"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	bb := campus.Backbone()
	// a -> c has two 2-hop routes; BFS over ascending neighbors picks b.
	if got := bb.Route(0, 2); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("route a->c = %v, want [0 1 2]", got)
	}
	if got := bb.Hops(0, 2); got != 2 {
		t.Fatalf("hops a->c = %d, want 2", got)
	}
	if got := bb.Hops(0, 3); got != 1 {
		t.Fatalf("hops a->d = %d, want 1", got)
	}
	// Cell e is off the ring: unreachable.
	if got := bb.Hops(0, 4); got != -1 {
		t.Fatalf("hops a->e = %d, want -1 (unreachable)", got)
	}
	if got := bb.Route(0, 4); got != nil {
		t.Fatalf("route a->e = %v, want nil", got)
	}
	// An unreachable Send fails immediately via onFail.
	failed := false
	bb.Send(0, 4, []byte("x"), nil, func() { failed = true })
	campus.Run(time.Second)
	if !failed {
		t.Fatal("send to unreachable cell did not invoke onFail")
	}
	// A 2-hop transfer pays both links' latency (2 x 20ms default plus
	// serialization) — strictly more than a 1-hop transfer.
	var oneHop, twoHop time.Duration
	start := campus.Now()
	bb.Send(0, 3, []byte("x"), func([]byte) { oneHop = campus.Now() - start }, nil)
	bb.Send(0, 2, []byte("x"), func([]byte) { twoHop = campus.Now() - start }, nil)
	campus.Run(time.Second)
	if oneHop <= 0 || twoHop <= 0 {
		t.Fatalf("transfers not delivered (one=%v two=%v)", oneHop, twoHop)
	}
	if twoHop < 2*oneHop {
		t.Fatalf("two-hop delivery %v not >= 2x one-hop %v", twoHop, oneHop)
	}
}

// TestAddLinkValidation covers the error paths of CampusConfig.Links:
// every bad link fails NewCampus, and a valid one replaces the mesh.
func TestAddLinkValidation(t *testing.T) {
	unit := func(name string) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(4),
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: name + "-loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
			},
		}
	}
	build := func(links ...BackboneLink) (*Campus, error) {
		return NewCampus(CampusConfig{Seed: 1, Links: links}, unit("x"), unit("y"), unit("z"))
	}
	for _, tc := range []struct {
		name string
		link BackboneLink
	}{
		{"link to unknown cell", BackboneLink{A: "x", B: "nowhere"}},
		{"self-link", BackboneLink{A: "x", B: "x"}},
		{"PER outside [0,1)", BackboneLink{A: "x", B: "y", Config: LinkConfig{PER: 1.5}}},
	} {
		if campus, err := build(tc.link); err == nil {
			campus.Stop()
			t.Fatalf("%s accepted", tc.name)
		}
	}
	campus, err := build(BackboneLink{A: "x", B: "y"})
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	if got := campus.Backbone().Hops(0, 2); got != -1 {
		t.Fatalf("hops x->z = %d, want -1: explicit links replace the mesh", got)
	}
	if got := campus.Backbone().Hops(0, 1); got != 1 {
		t.Fatalf("hops x->y = %d, want 1", got)
	}
}

// TestRebalanceHomeAfterRecovery drives the whole-cell kill + recovery
// acceptance run: unit-a dies at 10s, its four loops escalate out, the
// cell recovers at 22s, CellRecoveredEvent fires, and Rebalance ships
// every task home over the backbone, where it resumes actuating.
func TestRebalanceHomeAfterRecovery(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRing, Seed: 2, Policy: PolicyCampusBQP})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	if err := exp.Campus.ApplyFaultPlan("unit-a",
		RefineryOutagePlan(10*time.Second, 22*time.Second)); err != nil {
		t.Fatal(err)
	}
	log := exp.Campus.Events().Log()
	exp.Campus.Run(35 * time.Second)

	recovered := false
	out, home := 0, 0
	var lastRebalanceAt time.Duration
	for _, ev := range log.Events() {
		switch e := ev.(type) {
		case CellRecoveredEvent:
			if e.Cell == "unit-a" {
				recovered = true
			}
		case InterCellMigrationEvent:
			if e.Rebalance {
				home++
				lastRebalanceAt = e.At
				if e.ToCell != "unit-a" {
					t.Fatalf("rebalance event to %s, want unit-a", e.ToCell)
				}
				if !recovered {
					t.Fatal("rebalance happened before the recovery event")
				}
			} else {
				out++
			}
		}
	}
	if !recovered {
		t.Fatal("no CellRecoveredEvent for unit-a")
	}
	if out != 4 || home != 4 {
		t.Fatalf("migrations out=%d home=%d, want 4 and 4", out, home)
	}
	for key, p := range exp.Campus.TaskPlacements() {
		if !strings.HasPrefix(key, "unit-a/") {
			continue
		}
		if p.Foreign || p.Cell != "unit-a" {
			t.Fatalf("placement %s = %+v, want home in unit-a", key, p)
		}
	}
	// The rebalanced loops actuate again inside unit-a after coming home.
	resumed := 0
	for _, ev := range log.Events() {
		ce, ok := ev.(CellEvent)
		if !ok || ce.Cell != "unit-a" || ce.When() <= lastRebalanceAt {
			continue
		}
		if act, isAct := ce.Inner.(*ActuationEvent); isAct && strings.HasPrefix(act.Task, "a-loop-") {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("rebalanced tasks never actuated in unit-a after coming home")
	}
	// Exactly one master survives campus-wide: no foreign replica of a
	// rebalanced task still actuates in a peer cell after homecoming.
	for _, ev := range log.Events() {
		ce, ok := ev.(CellEvent)
		if !ok || ce.Cell == "unit-a" || ce.When() <= lastRebalanceAt+time.Second {
			continue
		}
		if act, isAct := ce.Inner.(*ActuationEvent); isAct && strings.HasPrefix(act.Task, "a-loop-") {
			t.Fatalf("retired foreign replica of %s still actuating in %s at %v",
				act.Task, ce.Cell, ce.When())
		}
	}
}

// TestForeignTaskAdoptionLocalFailover covers the adoption satellite:
// after an inter-cell migration the hosting cell's head has registered
// the task with an in-cell backup, so when the hosting node dies the
// fail-over happens inside the cell — a FailoverEvent, no second
// backbone round-trip.
func TestForeignTaskAdoptionLocalFailover(t *testing.T) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioCampusFailover, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Cleanup()
	campus := exp.Campus
	log := campus.Events().Log()
	// West dies at 10s (scenario built-in); let the migration settle.
	campus.Run(15 * time.Second)
	p, ok := campus.TaskPlacements()["west/w-loop"]
	if !ok || !p.Foreign || p.Cell != "east" {
		t.Fatalf("placement after outage = %+v, want foreign in east", p)
	}
	hostNode := p.Node
	migsBefore := log.Count(func(ev Event) bool {
		_, isMig := ev.(InterCellMigrationEvent)
		return isMig
	})
	// Kill the hosting node inside east: adoption must resolve this
	// locally via east's head.
	if err := campus.ApplyFaultPlan("east", KillNodesPlan("kill-host", 0, hostNode)); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	localFailover := false
	for _, ev := range log.Events() {
		ce, ok := ev.(CellEvent)
		if !ok || ce.Cell != "east" {
			continue
		}
		if fo, isFO := ce.Inner.(FailoverEvent); isFO && fo.Task == "w-loop" && fo.From == hostNode {
			localFailover = true
		}
	}
	if !localFailover {
		t.Fatal("no in-cell FailoverEvent for the adopted foreign task")
	}
	migsAfter := log.Count(func(ev Event) bool {
		_, isMig := ev.(InterCellMigrationEvent)
		return isMig
	})
	if migsAfter != migsBefore {
		t.Fatalf("adoption did not keep fail-over local: migrations %d -> %d", migsBefore, migsAfter)
	}
	p2 := campus.TaskPlacements()["west/w-loop"]
	if p2.Cell != "east" || p2.Node == hostNode {
		t.Fatalf("placement after local fail-over = %+v, want a new east node", p2)
	}
	// The promoted backup keeps the loop actuating.
	resumed := 0
	for _, ev := range log.Events() {
		ce, ok := ev.(CellEvent)
		if !ok || ce.Cell != "east" || ce.When() <= 15*time.Second+time.Millisecond {
			continue
		}
		if act, isAct := ce.Inner.(*ActuationEvent); isAct && act.Task == "w-loop" {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("adopted task stopped actuating after the local fail-over")
	}
}

// TestEscalationBackToOriginIsHomecoming: a policy may escalate a
// stranded foreign task straight back to its recovered origin cell
// (affinity does, by design). The delivery must land it as a native
// placement again — not a "foreign" task in its own home, which would
// make the rebalancer issue origin-to-origin backbone sends forever.
func TestEscalationBackToOriginIsHomecoming(t *testing.T) {
	unit := func(name, prefix string, nodes int) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(nodes), SlotsPerNode: 3,
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: prefix + "-loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
				DormantAfter: 5 * time.Second,
			},
			Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond,
				Sample: func() []SensorReading { return []SensorReading{{Port: 0, Value: 50}} }},
		}
	}
	campus, err := NewCampus(CampusConfig{
		Seed:      1,
		Placement: PolicyAffinity,
		Rebalance: true,
	}, unit("west", "w", 6), unit("east", "e", 6))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	// West dies at 5s and recovers at 15s; the loop escalates into east.
	if err := campus.ApplyFaultPlan("west",
		OutageWindowPlan("west-outage", 5*time.Second, 15*time.Second, campus.Cell("west").Members()...)); err != nil {
		t.Fatal(err)
	}
	campus.Run(12 * time.Second)
	p := campus.TaskPlacements()["west/w-loop"]
	if !p.Foreign || p.Cell != "east" {
		t.Fatalf("placement before recovery = %+v, want foreign in east", p)
	}
	// Strand the foreign task in east (host, adopted backup and head all
	// die) right after west recovers: affinity escalates it back home.
	if err := campus.ApplyFaultPlan("east",
		KillNodesPlan("kill-east-hosts", 4*time.Second, 2, 3, 4, 5, 6)); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	p = campus.TaskPlacements()["west/w-loop"]
	if p.Foreign || p.Cell != "west" {
		t.Fatalf("placement after homecoming escalation = %+v, want native in west", p)
	}
	failedBefore := campus.Backbone().Stats().Failed
	campus.Run(10 * time.Second)
	if failed := campus.Backbone().Stats().Failed; failed != failedBefore {
		t.Fatalf("backbone failures grew %d -> %d after homecoming (origin-to-origin sends?)",
			failedBefore, failed)
	}
}

// TestEscalationOutOfHostRetiresStaleCopies: when an adopted foreign
// task is escalated OUT of its hosting cell (host master and head die
// while the adopted backup survives), the departed cell's replicas and
// head adoption must be retired — otherwise the cell would re-promote
// its stale backup on recovery and run a second master forever.
func TestEscalationOutOfHostRetiresStaleCopies(t *testing.T) {
	unit := func(name, prefix string) CellSpec {
		return CellSpec{
			Name:  name,
			Nodes: Members(6), SlotsPerNode: 3,
			VC: VCConfig{
				Name: name, Head: 2, Gateway: 1,
				Tasks: []TaskSpec{{
					ID: prefix + "-loop", SensorPort: 0, ActuatorPort: 10,
					Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
					Candidates:   []NodeID{3, 4},
					DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
					MakeLogic: campusPID,
				}},
				DormantAfter: 5 * time.Second,
			},
			Feed: &FeedSpec{Source: 1, Period: 250 * time.Millisecond,
				Sample: func() []SensorReading { return []SensorReading{{Port: 0, Value: 50}} }},
		}
	}
	campus, err := NewCampus(CampusConfig{Seed: 1},
		unit("a", "a"), unit("b", "b"), unit("c", "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	log := campus.Events().Log()
	// Cell a dies for good; its loop escalates into a peer (b, the
	// least-loaded tie-break) and is adopted there.
	if err := campus.ApplyFaultPlan("a", KillCellPlan(5*time.Second, campus.Cell("a"))); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	p := campus.TaskPlacements()["a/a-loop"]
	if !p.Foreign || p.Cell != "b" {
		t.Fatalf("placement after first escalation = %+v, want foreign in b", p)
	}
	// Kill b's head and the hosting master, but not the adopted backup:
	// head-down strands the task and it escalates again (to c). Recover
	// b afterward — its stale backup copy must stay retired.
	if err := campus.ApplyFaultPlan("b",
		OutageWindowPlan("b-head-and-host", 0, 10*time.Second, 2, p.Node)); err != nil {
		t.Fatal(err)
	}
	campus.Run(10 * time.Second)
	p = campus.TaskPlacements()["a/a-loop"]
	if !p.Foreign || p.Cell != "c" {
		t.Fatalf("placement after second escalation = %+v, want foreign in c", p)
	}
	reEscalatedAt := campus.Now()
	campus.Run(15 * time.Second)
	// After b recovered, no b-hosted copy of the task may actuate or be
	// promoted: cell c's master is the only one.
	for _, ev := range log.Events() {
		ce, ok := ev.(CellEvent)
		if !ok || ce.Cell != "b" || ce.When() <= reEscalatedAt {
			continue
		}
		switch e := ce.Inner.(type) {
		case *ActuationEvent:
			if e.Task == "a-loop" {
				t.Fatalf("stale copy of a-loop actuated in recovered cell b at %v", e.At)
			}
		case FailoverEvent:
			if e.Task == "a-loop" {
				t.Fatalf("recovered cell b re-promoted retired task a-loop at %v", e.At)
			}
		}
	}
}

// TestPolicyDeterminism is the determinism satellite: same seed + same
// policy reproduces byte-identical campus event streams under CampusBQP
// with multi-hop routing (including lossy retransmissions), and the
// parallel Runner matches serial execution bit for bit.
func TestPolicyDeterminism(t *testing.T) {
	run := func() []string {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRing, Seed: 5, Policy: PolicyCampusBQP})
		if err != nil {
			t.Fatal(err)
		}
		defer exp.Cleanup()
		if err := exp.Campus.ApplyFaultPlan("unit-a",
			RefineryOutagePlan(10*time.Second, 22*time.Second)); err != nil {
			t.Fatal(err)
		}
		log := exp.Campus.Events().Log()
		exp.Campus.Run(30 * time.Second)
		return log.Strings()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no campus events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("same-seed streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("campus event %d differs:\n  run1: %s\n  run2: %s", i, a[i], b[i])
		}
	}

	plan := RefineryOutagePlan(10*time.Second, 22*time.Second)
	var specs []RunSpec
	for _, pol := range []string{PolicyLeastLoaded, PolicyCampusBQP, PolicyAffinity} {
		for _, seed := range []uint64{2, 3} {
			specs = append(specs, RunSpec{
				Scenario: ScenarioRefineryRing, Seed: seed, Horizon: 30 * time.Second,
				Faults: plan, FaultCell: "unit-a", Policy: pol,
			})
		}
	}
	serial := (&Runner{Workers: 1}).Run(specs)
	parallel := (&Runner{Workers: 4}).Run(specs)
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("%s: serial err=%v parallel err=%v",
				specs[i].Label(), serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("%s: metrics diverge:\n  serial:   %v\n  parallel: %v",
				specs[i].Label(), serial[i].Metrics, parallel[i].Metrics)
		}
	}
}
