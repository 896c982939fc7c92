package evm

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Violation is one invariant breach found in a recorded event stream.
type Violation struct {
	At      time.Duration
	Checker string
	Detail  string
}

// String renders the violation one line.
func (v Violation) String() string {
	return fmt.Sprintf("%v %s: %s", v.At, v.Checker, v.Detail)
}

// InvariantChecker replays a recorded event stream and accumulates
// violations of one safety property. Checkers are pure observers: feed
// them every event of an EventLog in publication order (cell streams and
// merged campus streams both work — CellEvent wrappers are unwrapped)
// and read Violations at the end. A fresh checker per replay; they keep
// state.
//
// To write a custom checker, implement the three methods and derive your
// property's state machine from the typed events: FailoverEvent and
// InterCellMigrationEvent are the only ways mastership moves,
// ActuationEvent records which node's output reached a gateway, and
// BackboneLinkEvent brackets the epochs between link-set changes.
type InvariantChecker interface {
	// Name labels the checker in violations.
	Name() string
	// Observe feeds one event, in stream order.
	Observe(Event)
	// Violations returns every breach found so far.
	Violations() []Violation
}

// DefaultInvariantGrace is the settling window the built-in checkers
// allow around a legitimate transition: actuations already in TDMA
// flight when a master was demoted, and the demotion round-trip after a
// stale replica's radio recovers, are not violations within it. Four
// default 250 ms frames cover both.
const DefaultInvariantGrace = time.Second

// CheckEvents replays a recorded stream through the checkers and returns
// every violation found (nil when all invariants hold).
func CheckEvents(events []Event, checkers ...InvariantChecker) []Violation {
	for _, ev := range events {
		for _, c := range checkers {
			c.Observe(ev)
		}
	}
	var out []Violation
	for _, c := range checkers {
		out = append(out, c.Violations()...)
	}
	return out
}

// DefaultInvariants returns fresh instances of every built-in checker:
// single-master-per-task, no-actuation-from-demoted-replica and
// route-monotonicity.
func DefaultInvariants() []InvariantChecker {
	return []InvariantChecker{
		NewSingleMasterInvariant(DefaultInvariantGrace),
		NewDemotedSilenceInvariant(DefaultInvariantGrace),
		NewRouteMonotonicityInvariant(),
	}
}

// splitEvent unwraps a campus CellEvent into its cell name and inner
// event; bare cell-stream events carry the empty cell name.
func splitEvent(ev Event) (string, Event) {
	if ce, ok := ev.(CellEvent); ok {
		return ce.Cell, ce.Inner
	}
	return "", ev
}

// masterRef names one node in one cell ("" for single-cell streams).
type masterRef struct {
	cell string
	node NodeID
}

func (r masterRef) String() string {
	if r.cell == "" {
		return fmt.Sprintf("node %d", r.node)
	}
	return fmt.Sprintf("%s/%d", r.cell, r.node)
}

// masterTracker is the shared state machine of the actuation checkers:
// it derives, per task, the current master and the set of demoted
// ex-masters with their demotion times, from the only two events that
// move mastership. A FaultRecover refreshes a demoted node's timestamp —
// a recovered stale replica is granted one demotion round-trip before
// its silence is enforced.
type masterTracker struct {
	masters map[string]masterRef
	demoted map[string]map[masterRef]time.Duration
}

func newMasterTracker() masterTracker {
	return masterTracker{
		masters: make(map[string]masterRef),
		demoted: make(map[string]map[masterRef]time.Duration),
	}
}

func (t *masterTracker) promote(task string, next, old masterRef, at time.Duration) {
	t.masters[task] = next
	m := t.demoted[task]
	if m == nil {
		m = make(map[masterRef]time.Duration)
		t.demoted[task] = m
	}
	delete(m, next)
	if old.node != 0 {
		m[old] = at
	}
}

func (t *masterTracker) refresh(ref masterRef, at time.Duration) {
	for _, m := range t.demoted {
		if _, ok := m[ref]; ok {
			m[ref] = at
		}
	}
}

// observe updates the tracker from one event and reports whether it was
// consumed as a mastership/recovery transition.
func (t *masterTracker) observe(cell string, inner Event) {
	switch e := inner.(type) {
	case FailoverEvent:
		t.promote(e.Task, masterRef{cell, e.To}, masterRef{cell, e.From}, e.At)
	case InterCellMigrationEvent:
		t.promote(e.Task, masterRef{e.ToCell, e.To}, masterRef{e.FromCell, e.From}, e.At)
	case FaultEvent:
		if e.Kind == FaultRecover {
			t.refresh(masterRef{cell, e.Node}, e.At)
		}
	}
}

// singleMasterInvariant checks that every actuation comes from the
// task's current master (the first actuator seen is adopted as the
// initial master; a just-demoted master may drain in-flight actuations
// within the grace window).
type singleMasterInvariant struct {
	grace      time.Duration
	tracker    masterTracker
	violations []Violation
}

// NewSingleMasterInvariant builds the single-master-per-task checker.
// grace <= 0 uses DefaultInvariantGrace.
func NewSingleMasterInvariant(grace time.Duration) InvariantChecker {
	if grace <= 0 {
		grace = DefaultInvariantGrace
	}
	return &singleMasterInvariant{grace: grace, tracker: newMasterTracker()}
}

// Name implements InvariantChecker.
func (c *singleMasterInvariant) Name() string { return "single-master-per-task" }

// Observe implements InvariantChecker.
func (c *singleMasterInvariant) Observe(ev Event) {
	cell, inner := splitEvent(ev)
	c.tracker.observe(cell, inner)
	act, ok := inner.(*ActuationEvent)
	if !ok {
		return
	}
	src := masterRef{cell, act.Node}
	master, known := c.tracker.masters[act.Task]
	if !known {
		c.tracker.masters[act.Task] = src
		return
	}
	if master == src {
		return
	}
	if at, was := c.tracker.demoted[act.Task][src]; was && act.At-at <= c.grace {
		return
	}
	c.violations = append(c.violations, Violation{
		At: act.At, Checker: c.Name(),
		Detail: fmt.Sprintf("task %s actuated from %s while master is %s", act.Task, src, master),
	})
}

// Violations implements InvariantChecker.
func (c *singleMasterInvariant) Violations() []Violation { return c.violations }

// demotedSilenceInvariant checks that a demoted replica never actuates
// again (outside the grace window) until re-promoted — the complementary
// view of single-master: even a node the stream never crowned master
// must stay silent once demoted.
type demotedSilenceInvariant struct {
	grace      time.Duration
	tracker    masterTracker
	violations []Violation
}

// NewDemotedSilenceInvariant builds the no-actuation-from-demoted-replica
// checker. grace <= 0 uses DefaultInvariantGrace.
func NewDemotedSilenceInvariant(grace time.Duration) InvariantChecker {
	if grace <= 0 {
		grace = DefaultInvariantGrace
	}
	return &demotedSilenceInvariant{grace: grace, tracker: newMasterTracker()}
}

// Name implements InvariantChecker.
func (c *demotedSilenceInvariant) Name() string { return "no-actuation-from-demoted-replica" }

// Observe implements InvariantChecker.
func (c *demotedSilenceInvariant) Observe(ev Event) {
	cell, inner := splitEvent(ev)
	c.tracker.observe(cell, inner)
	act, ok := inner.(*ActuationEvent)
	if !ok {
		return
	}
	src := masterRef{cell, act.Node}
	if at, was := c.tracker.demoted[act.Task][src]; was && act.At-at > c.grace {
		c.violations = append(c.violations, Violation{
			At: act.At, Checker: c.Name(),
			Detail: fmt.Sprintf("task %s actuated from %s, demoted at %v", act.Task, src, at),
		})
	}
}

// Violations implements InvariantChecker.
func (c *demotedSilenceInvariant) Violations() []Violation { return c.violations }

// routeMonotonicityInvariant checks that backbone routing is
// deterministic between link faults: within one link epoch (the stretch
// of stream between BackboneLinkEvents) every transfer for a cell pair
// must follow the same path. Routes may only change when the link set
// does.
type routeMonotonicityInvariant struct {
	epoch      int
	seen       map[string]routeSeen
	violations []Violation
}

type routeSeen struct {
	epoch int
	path  string
}

// NewRouteMonotonicityInvariant builds the route-monotonicity checker.
func NewRouteMonotonicityInvariant() InvariantChecker {
	return &routeMonotonicityInvariant{seen: make(map[string]routeSeen)}
}

// Name implements InvariantChecker.
func (c *routeMonotonicityInvariant) Name() string { return "route-monotonicity" }

// Observe implements InvariantChecker.
func (c *routeMonotonicityInvariant) Observe(ev Event) {
	_, inner := splitEvent(ev)
	switch e := inner.(type) {
	case BackboneLinkEvent:
		c.epoch++
	case BackboneRouteEvent:
		key := e.From + ">" + e.To
		path := strings.Join(e.Path, ">")
		prev, ok := c.seen[key]
		if ok && prev.epoch == c.epoch && prev.path != path {
			c.violations = append(c.violations, Violation{
				At: e.At, Checker: c.Name(),
				Detail: fmt.Sprintf("route %s changed from %s to %s with no link fault in between",
					key, prev.path, path),
			})
		}
		c.seen[key] = routeSeen{epoch: c.epoch, path: path}
	}
}

// Violations implements InvariantChecker.
func (c *routeMonotonicityInvariant) Violations() []Violation { return c.violations }

// --- timing invariants --------------------------------------------------------

// DefaultActuationBound is the actuation-deadline checker's default gap
// bound: generous enough for every built-in scenario's slowest loop
// (1 s period x 8-cycle silence window, doubled).
const DefaultActuationBound = 16 * time.Second

// DefaultFailoverLatencyBound is the failover-latency checker's default
// detection bound: a crashed master must be replaced well within it
// (silence-window detection plus arbitration or one cross-cell
// escalation round-trip).
const DefaultFailoverLatencyBound = 10 * time.Second

// actuationDeadlineInvariant checks that a task's actuation stream never
// gaps longer than the bound without an explaining transition: once a
// task is actuating, consecutive actuations must stay within bound of
// each other unless a fault, fail-over, migration, mode change, rollout
// or rollback occurred in between (any of those resets every task's gap
// clock — they legitimately pause loops). A task that falls silent and
// never resumes is the failover-latency checker's domain; this one
// catches loops that resume late with no cause on record.
type actuationDeadlineInvariant struct {
	bound      time.Duration
	lastAct    map[string]time.Duration // task -> last actuation (or reset point)
	violations []Violation
}

// NewActuationDeadlineInvariant builds the actuation-deadline timing
// checker. bound <= 0 uses DefaultActuationBound; set it to a small
// multiple of the scenario's longest task period to tighten it.
func NewActuationDeadlineInvariant(bound time.Duration) InvariantChecker {
	if bound <= 0 {
		bound = DefaultActuationBound
	}
	return &actuationDeadlineInvariant{bound: bound, lastAct: make(map[string]time.Duration)}
}

// Name implements InvariantChecker.
func (c *actuationDeadlineInvariant) Name() string { return "actuation-deadline" }

// Observe implements InvariantChecker.
func (c *actuationDeadlineInvariant) Observe(ev Event) {
	_, inner := splitEvent(ev)
	switch act := inner.(type) {
	case *ActuationEvent:
		if last, ok := c.lastAct[act.Task]; ok && act.At-last > c.bound {
			c.violations = append(c.violations, Violation{
				At: act.At, Checker: c.Name(),
				Detail: fmt.Sprintf("task %s actuation gap %v exceeds bound %v with no transition in between",
					act.Task, act.At-last, c.bound),
			})
		}
		c.lastAct[act.Task] = act.At
	case FaultEvent, FailoverEvent, MigrationEvent, InterCellMigrationEvent,
		CellOverloadEvent, CellRecoveredEvent, ModeChangeEvent,
		RolloutEvent, RollbackEvent, RebalanceAbortEvent, BackboneLinkEvent:
		// A recorded transition excuses the pause it causes: restart
		// every gap clock from here. (When() is hoisted out of the loop
		// so the map range stays a pure keyed write — order-insensitive.)
		at := inner.When()
		for task := range c.lastAct {
			c.lastAct[task] = at
		}
	}
}

// Violations implements InvariantChecker.
func (c *actuationDeadlineInvariant) Violations() []Violation { return c.violations }

// failoverLatencyInvariant checks the silence-window detection bound:
// when a task's current master crashes (FaultEvent{Crash} on its node),
// a replacement — an in-cell FailoverEvent or a cross-cell migration —
// must appear within the bound. The deadline disarms if the crashed
// radio recovers first (no fail-over was needed) or the task actuates
// again. Violations are flagged at the first event past the deadline, so
// a stream that ends with the deadline still pending flags nothing —
// checkers only judge what the stream can prove.
type failoverLatencyInvariant struct {
	bound      time.Duration
	tracker    masterTracker
	armed      map[string]armedFailover // task -> pending detection deadline
	violations []Violation
}

type armedFailover struct {
	at   time.Duration
	node masterRef
}

// NewFailoverLatencyInvariant builds the failover-latency timing
// checker. bound <= 0 uses DefaultFailoverLatencyBound.
func NewFailoverLatencyInvariant(bound time.Duration) InvariantChecker {
	if bound <= 0 {
		bound = DefaultFailoverLatencyBound
	}
	return &failoverLatencyInvariant{
		bound:   bound,
		tracker: newMasterTracker(),
		armed:   make(map[string]armedFailover),
	}
}

// Name implements InvariantChecker.
func (c *failoverLatencyInvariant) Name() string { return "failover-latency" }

// Observe implements InvariantChecker.
func (c *failoverLatencyInvariant) Observe(ev Event) {
	cell, inner := splitEvent(ev)
	c.expire(inner.When())
	switch e := inner.(type) {
	case *ActuationEvent:
		src := masterRef{cell, e.Node}
		if _, known := c.tracker.masters[e.Task]; !known {
			c.tracker.masters[e.Task] = src
		}
		delete(c.armed, e.Task) // the loop is alive again
	case FailoverEvent:
		delete(c.armed, e.Task)
	case InterCellMigrationEvent:
		delete(c.armed, e.Task)
	case FaultEvent:
		switch e.Kind {
		case FaultCrash:
			crashed := masterRef{cell, e.Node}
			for task, master := range c.tracker.masters {
				if master == crashed {
					if _, pending := c.armed[task]; !pending {
						c.armed[task] = armedFailover{at: e.At, node: crashed}
					}
				}
			}
		case FaultRecover:
			back := masterRef{cell, e.Node}
			for task, arm := range c.armed {
				if arm.node == back {
					delete(c.armed, task) // the master returned; no fail-over due
				}
			}
		}
	}
	c.tracker.observe(cell, inner)
}

// expire flags every armed deadline the stream has provably blown, in
// task order for reproducible violation lists.
func (c *failoverLatencyInvariant) expire(now time.Duration) {
	var due []string
	for task, arm := range c.armed {
		if now-arm.at > c.bound {
			due = append(due, task)
		}
	}
	sort.Strings(due)
	for _, task := range due {
		arm := c.armed[task]
		delete(c.armed, task)
		c.violations = append(c.violations, Violation{
			At: arm.at + c.bound, Checker: c.Name(),
			Detail: fmt.Sprintf("task %s master %s crashed at %v with no fail-over within %v",
				task, arm.node, arm.at, c.bound),
		})
	}
}

// Violations implements InvariantChecker.
func (c *failoverLatencyInvariant) Violations() []Violation { return c.violations }

// TimingInvariants returns fresh instances of the timing checkers —
// actuation-deadline and failover-latency — at the given bounds (<= 0
// picks the defaults). They complement DefaultInvariants: safety
// checkers prove nothing wrong happened, timing checkers prove the right
// things happened soon enough.
func TimingInvariants(actuationBound, failoverBound time.Duration) []InvariantChecker {
	return []InvariantChecker{
		NewActuationDeadlineInvariant(actuationBound),
		NewFailoverLatencyInvariant(failoverBound),
	}
}
