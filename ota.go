package evm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"evm/internal/core"
	"evm/internal/sim"
	"evm/internal/span"
	"evm/internal/wire"
)

// Over-the-air reprogramming subsystem: a versioned CapsuleStore holds
// attested code capsules per task; Campus.StartRollout disseminates a
// registered version campus-wide over the backbone (wire.CapsuleMsg
// prepare/commit legs) and in-cell to every replica of the task, staged
// by a built-in strategy; each stage activates atomically per cell
// and is followed by a health window — an invariant violation or a
// missed-actuation signal during the window rolls every upgraded replica
// back to the prior version and publishes a RollbackEvent.

// --- capsule store ------------------------------------------------------------

// CapsuleStore is the versioned capsule registry of a campus: every
// version of every task's control law, keyed (task, version), with the
// attestation checksum the receiving nodes verify on delivery.
// Registration validates the capsule encodes; the stored copy is
// immutable. Stores are safe for concurrent use.
type CapsuleStore struct {
	mu     sync.RWMutex
	byTask map[string]map[uint8]Capsule
}

// NewCapsuleStore builds an empty store.
func NewCapsuleStore() *CapsuleStore {
	return &CapsuleStore{byTask: make(map[string]map[uint8]Capsule)}
}

// Register adds a capsule version. Duplicate (task, version) pairs and
// capsules that do not encode are rejected.
func (s *CapsuleStore) Register(c Capsule) error {
	if c.TaskID == "" {
		return fmt.Errorf("evm: capsule with empty task ID")
	}
	if c.Version == 0 {
		return fmt.Errorf("evm: capsule %s needs a nonzero version", c.TaskID)
	}
	if _, err := c.Encode(); err != nil {
		return err
	}
	c.Code = append([]byte(nil), c.Code...)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.byTask[c.TaskID]
	if m == nil {
		m = make(map[uint8]Capsule)
		s.byTask[c.TaskID] = m
	}
	if _, dup := m[c.Version]; dup {
		return fmt.Errorf("evm: capsule %s v%d already registered", c.TaskID, c.Version)
	}
	m[c.Version] = c
	return nil
}

// Get returns the capsule registered for (task, version).
func (s *CapsuleStore) Get(taskID string, version uint8) (Capsule, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.byTask[taskID][version]
	if ok {
		c.Code = append([]byte(nil), c.Code...)
	}
	return c, ok
}

// --- rollout strategies -------------------------------------------------------

// Built-in rollout strategy names for RolloutSpec.Strategy.
const (
	RolloutCanaryCell = "canary-cell"
	RolloutCellByCell = "cell-by-cell"
	RolloutAllAtOnce  = "all-at-once"
)

// rolloutCell is one hosting cell as a rollout strategy sees it: how
// many replicas of the rollout's tasks it hosts and how many of them are
// masters (the blast radius of upgrading the cell).
type rolloutCell struct {
	// Index is the cell's position in campus declaration order.
	Index int
	// Replicas counts the replicas of the rollout's tasks in the cell.
	Replicas int
	// Masters counts the rollout tasks whose master runs in the cell.
	Masters int
}

// allAtOnceStages upgrades every hosting cell in a single stage.
func allAtOnceStages(cells []rolloutCell) [][]int {
	batch := make([]int, len(cells))
	for i, cc := range cells {
		batch[i] = cc.Index
	}
	return [][]int{batch}
}

// cellByCellStages upgrades one cell per stage, in declaration order.
func cellByCellStages(cells []rolloutCell) [][]int {
	out := make([][]int, len(cells))
	for i, cc := range cells {
		out[i] = []int{cc.Index}
	}
	return out
}

// canaryCellStages upgrades the cell with the smallest blast radius
// first — fewest master replicas, then fewest replicas, then lowest
// index — and, once the canary survives its health window, the rest in
// one batch.
func canaryCellStages(cells []rolloutCell) [][]int {
	if len(cells) <= 1 {
		return allAtOnceStages(cells)
	}
	canary := cells[0]
	for _, cc := range cells[1:] {
		better := cc.Masters < canary.Masters ||
			(cc.Masters == canary.Masters && cc.Replicas < canary.Replicas)
		if better {
			canary = cc
		}
	}
	rest := make([]int, 0, len(cells)-1)
	for _, cc := range cells {
		if cc.Index != canary.Index {
			rest = append(rest, cc.Index)
		}
	}
	return [][]int{{canary.Index}, rest}
}

// rolloutStrategies is the fixed table of rollout strategies, the names
// RolloutSpec.Strategy resolves through. Each partitions the hosting
// cells (given in declaration order) into ordered batches of cell
// indices, listing every cell exactly once; each batch prepares, commits
// and passes its health window before the next begins.
var rolloutStrategies = map[string]func([]rolloutCell) [][]int{
	RolloutCanaryCell: canaryCellStages,
	RolloutCellByCell: cellByCellStages,
	RolloutAllAtOnce:  allAtOnceStages,
}

// --- rollout coordinator ------------------------------------------------------

// RolloutSpec parameterizes one campus rollout.
type RolloutSpec struct {
	// Tasks are the task IDs to upgrade. Every task must have a capsule
	// of the target Version registered in the campus CapsuleStore.
	Tasks []string
	// Version is the capsule version to roll out.
	Version uint8
	// Strategy names the staging: RolloutCanaryCell (the default when
	// empty), RolloutCellByCell or RolloutAllAtOnce.
	Strategy string
	// HealthWindow is how long each stage is observed after activation
	// before the next stage starts (default 3 s). A violation from the
	// health checkers or a missed-actuation signal during the window
	// rolls the whole rollout back. A window no longer than
	// ActuationBound could never observe a bound-length silence, so it
	// is extended to ActuationBound plus one task period when needed.
	HealthWindow time.Duration
	// ActuationBound is the missed-actuation threshold inside the health
	// window: a target task silent for longer trips the rollback.
	// Default: 8x the longest target task period (at least 2 s).
	ActuationBound time.Duration
}

// rolloutSource is the cell whose gateway disseminates every rollout's
// capsules: the first cell.
const rolloutSource = 0

// stageTimeout bounds one stage's prepare/commit exchange: a stage not
// fully activated by then aborts the rollout.
const stageTimeout = 10 * time.Second

// RolloutState is a rollout's lifecycle position.
type RolloutState string

// Rollout states.
const (
	RolloutRunning    RolloutState = "running"
	RolloutComplete   RolloutState = "complete"
	RolloutRolledBack RolloutState = "rolled-back"
	RolloutAborted    RolloutState = "aborted"
)

// Rollout is one in-flight (or finished) campus rollout. All methods are
// driven by the campus engine; inspect State after the campus has run.
type Rollout struct {
	c    *Campus
	spec RolloutSpec // Strategy resolved: never empty

	capsules map[string][]byte           // task -> encoded capsule at target version
	targets  map[int]map[string][]NodeID // cell -> task -> replica holders
	cellIdxs []int                       // targeted cells, ascending
	stages   [][]int

	stageIdx       int
	pendingPrepare map[stageLeg]bool
	pendingCommit  map[stageLeg]bool
	activated      []rolloutActivation
	prevVersion    map[string]uint8 // task -> version before first activation
	catchUps       int              // post-plan rescan rounds consumed

	state  RolloutState
	reason string

	stageTimer  *sim.Event
	healthTimer *sim.Event
	healthSub   *Subscription
	checkers    []InvariantChecker
	lastAct     map[string]time.Duration
	healthStart time.Duration

	// spanID/stageSpan/healthSpan are the open trace spans for the whole
	// rollout, the current stage (prepare through activation) and the
	// current health window; zero when tracing is off. finish closes any
	// still open with the terminal state, so aborts never leak open spans.
	spanID     span.ID
	stageSpan  span.ID
	healthSpan span.ID
}

type rolloutActivation struct {
	cell int
	node NodeID
	task string
}

// State returns the rollout's lifecycle position.
func (r *Rollout) State() RolloutState { return r.state }

// Reason explains a rolled-back or aborted rollout ("" otherwise).
func (r *Rollout) Reason() string { return r.reason }

// Stages returns the stage plan as cell names.
func (r *Rollout) Stages() [][]string {
	out := make([][]string, len(r.stages))
	for i, batch := range r.stages {
		out[i] = make([]string, len(batch))
		for j, cell := range batch {
			out[i][j] = r.c.cellName(cell)
		}
	}
	return out
}

// Capsules returns the campus capsule store, creating it on first use.
// Pre-populate it through CampusConfig.Capsules or register versions
// directly before starting a rollout.
func (c *Campus) Capsules() *CapsuleStore {
	if c.capsules == nil {
		c.capsules = NewCapsuleStore()
	}
	return c.capsules
}

// StartRollout begins disseminating a registered capsule version to
// every replica of the spec's tasks, staged by the spec's strategy. The
// returned Rollout reports progress; the rollout itself advances on the
// campus engine. Tasks already part of an active rollout are rejected.
func (c *Campus) StartRollout(spec RolloutSpec) (*Rollout, error) {
	if len(spec.Tasks) == 0 {
		return nil, fmt.Errorf("evm: rollout needs at least one task")
	}
	if spec.HealthWindow <= 0 {
		spec.HealthWindow = 3 * time.Second
	}
	if spec.Strategy == "" {
		spec.Strategy = RolloutCanaryCell
	}
	stages, err := lookup("rollout policy", rolloutStrategies, spec.Strategy)
	if err != nil {
		return nil, err
	}
	tasks := append([]string(nil), spec.Tasks...)
	sort.Strings(tasks)
	spec.Tasks = tasks
	var maxPeriod time.Duration
	capsules := make(map[string][]byte, len(tasks))
	for _, task := range tasks {
		p, known := c.byTask[task]
		if !known {
			return nil, fmt.Errorf("evm: rollout names unknown task %q", task)
		}
		if p.ota {
			return nil, fmt.Errorf("evm: task %q already has a rollout in flight", task)
		}
		cap, ok := c.Capsules().Get(task, spec.Version)
		if !ok {
			return nil, fmt.Errorf("evm: no capsule registered for task %q v%d", task, spec.Version)
		}
		enc, err := cap.Encode()
		if err != nil {
			return nil, err
		}
		capsules[task] = enc
		maxPeriod = max(maxPeriod, p.spec.Period)
	}
	if spec.ActuationBound <= 0 {
		spec.ActuationBound = 8 * maxPeriod
		if spec.ActuationBound < 2*time.Second {
			spec.ActuationBound = 2 * time.Second
		}
	}
	// A health window that ends before ActuationBound elapses could
	// never witness a bound-length silence: a capsule that attests
	// cleanly but never actuates would sail through. Stretch the window
	// past the bound so missed-actuation stays detectable.
	if spec.HealthWindow <= spec.ActuationBound {
		slack := maxPeriod
		if slack <= 0 {
			slack = 500 * time.Millisecond
		}
		spec.HealthWindow = spec.ActuationBound + slack
	}
	r := &Rollout{
		c: c, spec: spec,
		capsules:    capsules,
		state:       RolloutRunning,
		prevVersion: make(map[string]uint8),
		lastAct:     make(map[string]time.Duration),
	}
	r.collectTargets()
	if len(r.cellIdxs) == 0 {
		return nil, fmt.Errorf("evm: no replica of %v found in any cell", spec.Tasks)
	}
	r.stages = stages(r.rolloutCells())
	for _, task := range tasks {
		c.byTask[task].ota = true
	}
	c.events.publish(RolloutEvent{
		At: c.eng.Now(), Tasks: tasks, Version: spec.Version, Strategy: spec.Strategy,
		Phase: RolloutPhaseStart, Stage: -1, Cells: r.cellNames(r.cellIdxs),
	})
	r.spanID = c.eng.Tracer().Open("rollout", "ota", "ota", c.eng.Now(),
		span.Arg{Key: "tasks", Val: strings.Join(tasks, "+")},
		span.Arg{Key: "version", Val: strconv.Itoa(int(spec.Version))},
		span.Arg{Key: "strategy", Val: spec.Strategy})
	r.runStage()
	return r, nil
}

// collectTargets scans every cell for replicas of the rollout's tasks,
// in member order so the plan is deterministic.
func (r *Rollout) collectTargets() {
	r.targets = make(map[int]map[string][]NodeID)
	for i, cell := range r.c.cells {
		byTask := make(map[string][]NodeID)
		for _, task := range r.spec.Tasks {
			for _, id := range cell.spec.Nodes {
				if n := cell.nodes[id]; n != nil && n.HasReplica(task) {
					byTask[task] = append(byTask[task], id)
				}
			}
		}
		if len(byTask) > 0 {
			r.targets[i] = byTask
			r.cellIdxs = append(r.cellIdxs, i)
		}
	}
}

// rolloutCells snapshots the targeted cells for the strategy.
func (r *Rollout) rolloutCells() []rolloutCell {
	out := make([]rolloutCell, 0, len(r.cellIdxs))
	for _, i := range r.cellIdxs {
		cc := rolloutCell{Index: i}
		for _, nodes := range r.targets[i] {
			cc.Replicas += len(nodes)
		}
		for _, task := range r.spec.Tasks {
			if r.c.byTask[task].cell == i {
				cc.Masters++
			}
		}
		out = append(out, cc)
	}
	return out
}

func (r *Rollout) cellNames(idxs []int) []string {
	out := make([]string, len(idxs))
	for i, idx := range idxs {
		out[i] = r.c.cellName(idx)
	}
	return out
}

// runStage opens the current stage: prepare legs to every cell of the
// batch (local cells stage directly; remote cells over the backbone).
// Once the planned stages are exhausted, the campus is re-scanned for
// replicas that appeared mid-rollout before the complete verdict.
func (r *Rollout) runStage() {
	if r.stageIdx >= len(r.stages) {
		if !r.addCatchUpStage() {
			if r.state != RolloutRunning {
				return // the catch-up cap tripped; fail() closed the rollout
			}
			r.finish(RolloutComplete, "")
			r.c.events.publish(RolloutEvent{
				At: r.c.eng.Now(), Tasks: r.spec.Tasks, Version: r.spec.Version,
				Strategy: r.spec.Strategy, Phase: RolloutPhaseComplete, Stage: -1,
				Cells: r.cellNames(r.cellIdxs),
			})
			return
		}
	}
	batch := r.stages[r.stageIdx]
	r.stageSpan = r.c.eng.Tracer().Open("rollout-stage", "ota", "ota", r.c.eng.Now(),
		span.Arg{Key: "stage", Val: strconv.Itoa(r.stageIdx)},
		span.Arg{Key: "cells", Val: strings.Join(r.cellNames(batch), "+")})
	r.pendingPrepare = make(map[stageLeg]bool)
	r.pendingCommit = make(map[stageLeg]bool)
	for _, cell := range batch {
		for _, task := range r.stageTasks(cell) {
			r.pendingPrepare[stageLeg{cell, task}] = true
		}
	}
	r.stageTimer = r.c.eng.After(stageTimeout, func() { r.fail("stage-timeout") })
	for _, cell := range batch {
		for _, task := range r.stageTasks(cell) {
			if r.state != RolloutRunning {
				return // a synchronous local leg already failed the stage
			}
			payload, err := (wire.CapsuleMsg{
				Phase: wire.CapsulePrepare, TaskID: task,
				Version: r.spec.Version, Capsule: r.capsules[task],
			}).Encode()
			if err != nil {
				r.fail("encode")
				return
			}
			if cell == rolloutSource {
				r.onPrepare(cell, payload)
				continue
			}
			cell := cell
			r.c.backbone.Send(rolloutSource, cell, payload,
				func(b []byte) { r.onPrepare(cell, b) },
				func() { r.fail("prepare-lost") })
		}
	}
}

// stageTasks lists the rollout tasks hosted in a cell, sorted.
func (r *Rollout) stageTasks(cell int) []string {
	var out []string
	for _, task := range r.spec.Tasks {
		if len(r.targets[cell][task]) > 0 {
			out = append(out, task)
		}
	}
	return out
}

// stageLeg is one task's prepare or commit leg to one cell of a stage.
type stageLeg struct {
	cell int
	task string
}

// catchUpRounds bounds how many post-plan rescans a rollout runs before
// concluding the placement is diverging faster than it can upgrade.
const catchUpRounds = 3

// addCatchUpStage re-scans every cell after the planned stages finish:
// a replica of a target task created mid-rollout — cross-cell
// escalation, homeward rebalance, in-cell migration to a spare — was
// not in the start-of-rollout snapshot and would otherwise keep running
// the old version past a "complete" verdict. Each straggler joins one
// more stage (its own prepare/commit and health window); replicas that
// already carry the target version (a post-upgrade migration ships code
// with state) are skipped, so a later rollback can never "revert" one
// onto the new version. If stragglers keep appearing past
// catchUpRounds, the rollout fails — activated stages roll back —
// rather than completing with mixed versions.
func (r *Rollout) addCatchUpStage() bool {
	upgraded := make(map[rolloutActivation]bool, len(r.activated))
	for _, a := range r.activated {
		upgraded[a] = true
	}
	extra := make(map[int]map[string][]NodeID)
	for i, cell := range r.c.cells {
		for _, task := range r.spec.Tasks {
			for _, id := range cell.spec.Nodes {
				n := cell.nodes[id]
				if n == nil || !n.HasReplica(task) || upgraded[rolloutActivation{cell: i, node: id, task: task}] {
					continue
				}
				if v, ok := n.CapsuleVersion(task); ok && v == r.spec.Version {
					continue
				}
				if extra[i] == nil {
					extra[i] = make(map[string][]NodeID)
				}
				extra[i][task] = append(extra[i][task], id)
			}
		}
	}
	if len(extra) == 0 {
		return false
	}
	if r.catchUps >= catchUpRounds {
		r.fail("targets-diverged")
		return false
	}
	r.catchUps++
	batch := make([]int, 0, len(extra))
	for i := range extra {
		batch = append(batch, i)
	}
	sort.Ints(batch)
	known := make(map[int]bool, len(r.cellIdxs))
	for _, i := range r.cellIdxs {
		known[i] = true
	}
	for _, i := range batch {
		// The catch-up stage targets only the stragglers; the cell's
		// original holders are already activated (rollback tracks them
		// through r.activated, not r.targets).
		r.targets[i] = extra[i]
		if !known[i] {
			r.cellIdxs = append(r.cellIdxs, i)
		}
	}
	sort.Ints(r.cellIdxs)
	r.stages = append(r.stages, batch)
	return true
}

// onPrepare lands one prepare leg in a hosting cell: attest the capsule
// (core.VerifyCapsule checks the checksum) and stage it on every replica
// holder. Holders retired since the start-of-rollout snapshot (a
// rebalance or migration moved the replica away) are dropped from the
// target list — the catch-up rescan finds wherever the replica went —
// but an attestation or staging failure on a live holder aborts the
// rollout: a cell must never commit with only part of its replicas
// staged.
func (r *Rollout) onPrepare(cell int, payload []byte) {
	if r.state != RolloutRunning {
		return // stale leg of an aborted rollout
	}
	msg, err := wire.DecodeCapsuleMsg(payload)
	if err != nil || msg.Phase != wire.CapsulePrepare {
		r.fail("decode")
		return
	}
	// msg.Capsule is the decoder's copy: one verified capsule per leg.
	capsule, err := core.VerifyCapsule(msg.Capsule)
	if err != nil {
		r.fail("attestation")
		return
	}
	var live []NodeID
	for _, id := range r.targets[cell][msg.TaskID] {
		node := r.c.cells[cell].nodes[id]
		if node == nil || !node.HasReplica(msg.TaskID) {
			continue // retired mid-rollout; not this cell's to upgrade
		}
		err := node.StageCapsule(capsule)
		r.c.events.publish(CapsuleDeliveryEvent{
			At: r.c.eng.Now(), Cell: r.c.cellName(cell), Node: id,
			Task: msg.TaskID, Version: msg.Version, OK: err == nil,
		})
		if err != nil {
			r.fail("admit")
			return
		}
		live = append(live, id)
	}
	r.targets[cell][msg.TaskID] = live
	delete(r.pendingPrepare, stageLeg{cell, msg.TaskID})
	if len(r.pendingPrepare) == 0 {
		r.commitStage()
	}
}

// commitStage sends the commit legs once every cell of the stage is
// fully staged.
func (r *Rollout) commitStage() {
	batch := r.stages[r.stageIdx]
	r.c.events.publish(RolloutEvent{
		At: r.c.eng.Now(), Tasks: r.spec.Tasks, Version: r.spec.Version,
		Strategy: r.spec.Strategy, Phase: RolloutPhaseStaged,
		Stage: r.stageIdx, Cells: r.cellNames(batch),
	})
	for _, cell := range batch {
		for _, task := range r.stageTasks(cell) {
			r.pendingCommit[stageLeg{cell, task}] = true
		}
	}
	if len(r.pendingCommit) == 0 {
		// Every holder in the batch vanished mid-rollout (rebalanced or
		// migrated away): nothing to activate here — the catch-up rescan
		// finds wherever the replicas went.
		r.c.eng.Cancel(r.stageTimer)
		r.c.eng.Tracer().Close(r.stageSpan, r.c.eng.Now(), span.Arg{Key: "outcome", Val: "no-holders"})
		r.stageIdx++
		r.runStage()
		return
	}
	for _, cell := range batch {
		for _, task := range r.stageTasks(cell) {
			if r.state != RolloutRunning {
				return // a synchronous local leg already failed the stage
			}
			payload, err := (wire.CapsuleMsg{
				Phase: wire.CapsuleCommit, TaskID: task, Version: r.spec.Version,
			}).Encode()
			if err != nil {
				r.fail("encode")
				return
			}
			if cell == rolloutSource {
				r.onCommit(cell, payload)
				continue
			}
			cell := cell
			r.c.backbone.Send(rolloutSource, cell, payload,
				func(b []byte) { r.onCommit(cell, b) },
				func() { r.fail("commit-lost") })
		}
	}
}

// onCommit lands one commit leg: every staged replica in the cell swaps
// to the new version at this instant, so the task's master and backups
// never run mixed versions past the commit point.
func (r *Rollout) onCommit(cell int, payload []byte) {
	if r.state != RolloutRunning {
		return
	}
	msg, err := wire.DecodeCapsuleMsg(payload)
	if err != nil || msg.Phase != wire.CapsuleCommit {
		r.fail("decode")
		return
	}
	for _, id := range r.targets[cell][msg.TaskID] {
		node := r.c.cells[cell].nodes[id]
		if node == nil || !node.HasReplica(msg.TaskID) {
			continue // retired between prepare and commit
		}
		if _, recorded := r.prevVersion[msg.TaskID]; !recorded {
			v, _ := node.CapsuleVersion(msg.TaskID)
			r.prevVersion[msg.TaskID] = v
		}
		if err := node.ActivateStaged(msg.TaskID); err != nil {
			r.fail("activate")
			return
		}
		r.activated = append(r.activated, rolloutActivation{cell: cell, node: id, task: msg.TaskID})
	}
	delete(r.pendingCommit, stageLeg{cell, msg.TaskID})
	if len(r.pendingCommit) == 0 {
		r.c.eng.Cancel(r.stageTimer)
		r.c.eng.Tracer().Close(r.stageSpan, r.c.eng.Now(), span.Arg{Key: "outcome", Val: "activated"})
		r.c.events.publish(RolloutEvent{
			At: r.c.eng.Now(), Tasks: r.spec.Tasks, Version: r.spec.Version,
			Strategy: r.spec.Strategy, Phase: RolloutPhaseActivated,
			Stage: r.stageIdx, Cells: r.cellNames(r.stages[r.stageIdx]),
		})
		r.startHealthWindow()
	}
}

// startHealthWindow observes the campus for HealthWindow after a stage
// activates: the single-master, demoted-silence and actuation-deadline
// (at ActuationBound) checkers replay the live stream and every target
// task's actuations are timestamped.
func (r *Rollout) startHealthWindow() {
	r.checkers = []InvariantChecker{
		NewSingleMasterInvariant(0),
		NewDemotedSilenceInvariant(0),
		NewActuationDeadlineInvariant(r.spec.ActuationBound),
	}
	r.healthStart = r.c.eng.Now()
	r.healthSpan = r.c.eng.Tracer().Open("health-window", "ota", "ota", r.c.eng.Now(),
		span.Arg{Key: "stage", Val: strconv.Itoa(r.stageIdx)})
	r.lastAct = make(map[string]time.Duration)
	watched := make(map[string]bool, len(r.spec.Tasks))
	for _, task := range r.spec.Tasks {
		watched[task] = true
	}
	r.healthSub = r.c.events.Subscribe(func(ev Event) {
		for _, ch := range r.checkers {
			ch.Observe(ev)
		}
		_, inner := splitEvent(ev)
		if act, ok := inner.(*ActuationEvent); ok && watched[act.Task] {
			r.lastAct[act.Task] = act.At
		}
	})
	r.healthTimer = r.c.eng.After(r.spec.HealthWindow, r.evaluateHealth)
}

// evaluateHealth closes a stage's health window: an invariant violation
// or a target task silent past ActuationBound rolls the whole rollout
// back; otherwise the next stage begins.
func (r *Rollout) evaluateHealth() {
	r.healthSub.Cancel()
	r.healthSub = nil
	now := r.c.eng.Now()
	for _, ch := range r.checkers {
		if vs := ch.Violations(); len(vs) > 0 {
			r.c.eng.Tracer().Close(r.healthSpan, now, span.Arg{Key: "outcome", Val: "violation"})
			r.rollback(fmt.Sprintf("invariant:%s", vs[0].Checker))
			return
		}
	}
	for _, task := range r.spec.Tasks {
		ref := r.healthStart
		if at, ok := r.lastAct[task]; ok && at > ref {
			ref = at
		}
		if now-ref > r.spec.ActuationBound {
			r.c.eng.Tracer().Close(r.healthSpan, now, span.Arg{Key: "outcome", Val: "missed-actuation"})
			r.rollback("missed-actuation:" + task)
			return
		}
	}
	r.c.eng.Tracer().Close(r.healthSpan, now, span.Arg{Key: "outcome", Val: "ok"})
	r.stageIdx++
	r.runStage()
}

// fail aborts the rollout mid-handshake. Stages already activated are
// rolled back so the campus never settles on a mix of versions; a
// failure before any activation just clears the staged capsules.
func (r *Rollout) fail(reason string) {
	if r.state != RolloutRunning {
		return
	}
	if len(r.activated) > 0 {
		r.rollback(reason)
		return
	}
	r.finish(RolloutAborted, reason)
	r.c.events.publish(RolloutEvent{
		At: r.c.eng.Now(), Tasks: r.spec.Tasks, Version: r.spec.Version,
		Strategy: r.spec.Strategy, Phase: RolloutPhaseAborted, Stage: r.stageIdx,
		Cells: r.cellNames(r.cellIdxs), Reason: reason,
	})
}

// rollback reverts every activated replica to its prior version and
// publishes one RollbackEvent per task, then closes the rollout.
func (r *Rollout) rollback(reason string) {
	cellsByTask := make(map[string][]string)
	for _, a := range r.activated {
		_ = r.c.cells[a.cell].nodes[a.node].RevertCapsule(a.task)
		name := r.c.cellName(a.cell)
		cells := cellsByTask[a.task]
		if len(cells) == 0 || cells[len(cells)-1] != name {
			cellsByTask[a.task] = append(cells, name)
		}
	}
	r.finish(RolloutRolledBack, reason)
	for _, task := range r.spec.Tasks {
		cells, was := cellsByTask[task]
		if !was {
			continue
		}
		r.c.events.publish(RollbackEvent{
			At: r.c.eng.Now(), Task: task, FromVersion: r.spec.Version,
			ToVersion: r.prevVersion[task], Reason: reason, Cells: cells,
		})
	}
	r.c.events.publish(RolloutEvent{
		At: r.c.eng.Now(), Tasks: r.spec.Tasks, Version: r.spec.Version,
		Strategy: r.spec.Strategy, Phase: RolloutPhaseRolledBack, Stage: r.stageIdx,
		Cells: r.cellNames(r.cellIdxs), Reason: reason,
	})
}

// finish releases the rollout's timers, subscriptions, staged capsules
// and task locks.
func (r *Rollout) finish(state RolloutState, reason string) {
	r.state = state
	r.reason = reason
	// Close whatever spans are still open (stage/health spans already
	// closed with a specific outcome are untouched — Close is a no-op on
	// closed spans), then the rollout span with the terminal state.
	now := r.c.eng.Now()
	tr := r.c.eng.Tracer()
	tr.Close(r.healthSpan, now, span.Arg{Key: "outcome", Val: string(state)})
	tr.Close(r.stageSpan, now, span.Arg{Key: "outcome", Val: string(state)})
	args := []span.Arg{{Key: "outcome", Val: string(state)}}
	if reason != "" {
		args = append(args, span.Arg{Key: "reason", Val: reason})
	}
	tr.Close(r.spanID, now, args...)
	if r.stageTimer != nil {
		r.c.eng.Cancel(r.stageTimer)
	}
	if r.healthTimer != nil {
		r.c.eng.Cancel(r.healthTimer)
	}
	if r.healthSub != nil {
		r.healthSub.Cancel()
		r.healthSub = nil
	}
	for _, cell := range r.cellIdxs {
		//evm:allow-maporder teardown clears staged state per (task, node); entries are disjoint, so clear order is unobservable
		for task, nodes := range r.targets[cell] {
			for _, id := range nodes {
				r.c.cells[cell].nodes[id].ClearStaged(task)
			}
		}
	}
	for _, task := range r.spec.Tasks {
		r.c.byTask[task].ota = false
	}
}

// --- OTA events ---------------------------------------------------------------

// Metric keys the Runner counts from OTA events.
const (
	// MetricRollouts counts OTA rollouts started (RolloutEvent start
	// phases).
	MetricRollouts = "rollouts"
	// MetricRollbacks counts per-task OTA rollbacks (health-window trips
	// and mid-rollout failures reverting to the prior capsule version).
	MetricRollbacks = "rollbacks"
	// MetricCapsuleFrames counts per-replica capsule deliveries staged by
	// rollout prepare legs.
	MetricCapsuleFrames = "capsule_frames"
)

// Runner counter bits the kinds below return from counters.
var (
	rolloutsCounter      = counter(MetricRollouts)
	capsuleFramesCounter = counter(MetricCapsuleFrames)
	rollbacksCounter     = counter(MetricRollbacks)
)

// RolloutPhase classifies a RolloutEvent.
type RolloutPhase string

// Rollout phases.
const (
	RolloutPhaseStart      RolloutPhase = "start"
	RolloutPhaseStaged     RolloutPhase = "staged"
	RolloutPhaseActivated  RolloutPhase = "activated"
	RolloutPhaseComplete   RolloutPhase = "complete"
	RolloutPhaseAborted    RolloutPhase = "aborted"
	RolloutPhaseRolledBack RolloutPhase = "rolled-back"
)

// RolloutEvent traces one campus rollout: start, each stage's staged and
// activated transitions, and the terminal phase — complete, aborted
// (nothing had activated) or rolled-back (activated replicas reverted;
// the per-task detail rides the accompanying RollbackEvents). Stage is
// -1 for rollout-scoped phases.
type RolloutEvent struct {
	At       time.Duration
	Tasks    []string
	Version  uint8
	Strategy string
	Phase    RolloutPhase
	Stage    int
	Cells    []string
	Reason   string
}

// When implements Event.
func (e RolloutEvent) When() time.Duration { return e.At }

// String implements Event.
func (e RolloutEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e RolloutEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "rollout"), "phase", string(e.Phase))
	dst = appendUint(appendJoined(dst, "tasks", e.Tasks, '+'), "v", uint64(e.Version))
	dst = appendInt(appendField(dst, "strategy", e.Strategy), "stage", e.Stage)
	dst = appendJoined(dst, "cells", e.Cells, '+')
	if e.Reason != "" {
		dst = appendField(dst, "reason", e.Reason)
	}
	return dst
}

// series is rollout_phase.<phase>, so a dashboard plots rollout progress
// directly.
func (e RolloutEvent) series() string { return "rollout_phase." + string(e.Phase) }
func (e RolloutEvent) counters() counterSet {
	return only(e.Phase == RolloutPhaseStart, rolloutsCounter)
}

// CapsuleDeliveryEvent fires once per replica holder when a rollout's
// prepare leg stages a capsule on it (OK=false when attested code failed
// to instantiate or the node refused it).
type CapsuleDeliveryEvent struct {
	At      time.Duration
	Cell    string
	Node    NodeID
	Task    string
	Version uint8
	OK      bool
}

// When implements Event.
func (e CapsuleDeliveryEvent) When() time.Duration { return e.At }

// String implements Event.
func (e CapsuleDeliveryEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e CapsuleDeliveryEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "capsule-delivery"), "cell", e.Cell)
	dst = appendField(appendUint(dst, "node", uint64(e.Node)), "task", e.Task)
	return strconv.AppendBool(appendField(appendUint(dst, "v", uint64(e.Version)), "ok", ""), e.OK)
}

func (CapsuleDeliveryEvent) series() string       { return "capsule_deliveries" }
func (CapsuleDeliveryEvent) counters() counterSet { return capsuleFramesCounter }

// RollbackEvent fires when a rollout's health window trips (or a later
// stage fails) and a task's replicas revert to the prior version.
type RollbackEvent struct {
	At          time.Duration
	Task        string
	FromVersion uint8
	ToVersion   uint8
	Reason      string
	Cells       []string
}

// When implements Event.
func (e RollbackEvent) When() time.Duration { return e.At }

// String implements Event.
func (e RollbackEvent) String() string { return string(e.appendText(make([]byte, 0, lineCap))) }

func (e RollbackEvent) appendText(dst []byte) []byte {
	dst = appendField(appendStamp(dst, e.At, "rollback"), "task", e.Task)
	dst = strconv.AppendUint(appendField(dst, "from", "v"), uint64(e.FromVersion), 10)
	dst = strconv.AppendUint(appendField(dst, "to", "v"), uint64(e.ToVersion), 10)
	return appendField(appendJoined(dst, "cells", e.Cells, '+'), "reason", e.Reason)
}

func (RollbackEvent) series() string       { return "rollbacks" }
func (RollbackEvent) counters() counterSet { return rollbacksCounter }
