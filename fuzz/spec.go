// Package fuzz turns the invariant harness into a fuzzing oracle: it
// generates random campus scenarios — topology, cell composition, node
// placement, placement policy, fault plan and optional OTA rollout — as
// plain serializable data derived deterministically from one uint64
// seed, sweeps them through the parallel Runner under the complete
// checker set, and on any violation delta-debugs the generating spec
// down to a minimal still-failing reproduction.
//
// The pipeline is seed → Spec → Experiment → violations → Shrink →
// repro. Every stage is deterministic: the same generator seed yields
// byte-identical specs, and the same spec + run seed yields
// byte-identical campus event streams, so any failure a sweep finds is
// exactly replayable from two integers.
package fuzz

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"evm"
)

// Fault kinds understood by FaultGen.
const (
	// KindCrash fails one node's radio.
	KindCrash = "crash"
	// KindRecover restores a crashed node's radio.
	KindRecover = "recover"
	// KindOutage crashes every node of a cell at AtMS and recovers them
	// all at AtMS+ForMS — the whole-cell escalation exercise.
	KindOutage = "cell-outage"
	// KindPERBurst forces cell-wide packet loss of PER for ForMS.
	KindPERBurst = "per-burst"
	// KindBattery instantly drains Fraction of a node's battery.
	KindBattery = "battery-drain"
	// KindDrift sets a node's oscillator drift to PPM.
	KindDrift = "clock-drift"
	// KindLinkDown severs the backbone link A—B; KindLinkUp restores it.
	KindLinkDown = "link-down"
	KindLinkUp   = "link-up"
)

// Cell placements understood by CellGen.
const (
	// PlacementGrid lays members on a 4-column 3 m lattice.
	PlacementGrid = "grid"
	// PlacementLine lays members on the X axis with 3 m spacing.
	PlacementLine = "line"
	// PlacementScatter places members at the explicit Positions — the
	// serialized form of a RandomUniform draw, fixed at generation time
	// so the field survives spec round-trips byte-for-byte.
	PlacementScatter = "scatter"
)

// Topology names for Spec.Topology (documentation only — the built
// campus follows Links; an empty Links slice is the full mesh).
const (
	TopologyMesh   = "mesh"
	TopologyRing   = "ring"
	TopologyLine   = "line"
	TopologyRandom = "random"
	// TopologySingle marks a standalone one-cell spec (no backbone).
	TopologySingle = "single"
)

// Point is one node position in meters.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// CellGen describes one generated cell. Node IDs follow the repo-wide
// convention: gateway 1, head 2, task i's candidates 3+2i (primary) and
// 4+2i (backup), spares above. For multi-hop cells the physical station
// order along the line is role-derived (see LineOrder) and Positions
// holds one point per station in that order.
type CellGen struct {
	Name string `json:"name"`
	// Tasks is the number of control loops (candidate pairs).
	Tasks int `json:"tasks"`
	// Spares is the number of idle members available for escalated
	// tasks (and, on multi-hop cells, as relay stations).
	Spares int `json:"spares"`
	// PeriodMS is the loop period and feed cadence.
	PeriodMS int64 `json:"period_ms"`
	// PER forces a fixed packet error rate on every in-range link
	// (0 = perfect channel).
	PER float64 `json:"per"`
	// Placement is grid, line or scatter.
	Placement string `json:"placement"`
	// Positions pins every member's location for PlacementScatter
	// (member-order for mesh cells, line-order for multi-hop cells).
	Positions []Point `json:"positions,omitempty"`
	// Multihop replaces the full-mesh TDMA schedule with a line
	// schedule plus per-hop routes: slots are heard only by line
	// neighbors, so traffic between distant stations must be relayed.
	// Only valid on single-cell specs.
	Multihop bool `json:"multihop,omitempty"`
	// VM runs every loop on the v1 VM control law instead of native
	// PID — required for cells targeted by an OTA rollout.
	VM bool `json:"vm,omitempty"`
}

// Nodes returns the cell's member count.
func (c CellGen) Nodes() int { return 2 + 2*c.Tasks + c.Spares }

// LinkGen describes one explicit backbone link.
type LinkGen struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	LatencyMS int64   `json:"latency_ms,omitempty"`
	PER       float64 `json:"per,omitempty"`
}

// FaultGen is one declarative fault step of a generated spec. Kind
// selects the action; the remaining fields parameterize it.
type FaultGen struct {
	AtMS int64  `json:"at_ms"`
	Kind string `json:"kind"`
	// Cell targets a cell by name (crash/recover/outage/per-burst/
	// battery/drift).
	Cell string `json:"cell,omitempty"`
	// Node targets one member inside Cell.
	Node int `json:"node,omitempty"`
	// PER is the burst loss rate for per-burst.
	PER float64 `json:"per,omitempty"`
	// ForMS is the burst window (per-burst) or outage length (cell-outage).
	ForMS int64 `json:"for_ms,omitempty"`
	// Fraction is the battery fraction to drain, in (0,1].
	Fraction float64 `json:"fraction,omitempty"`
	// PPM is the oscillator drift for clock-drift.
	PPM float64 `json:"ppm,omitempty"`
	// A and B name the backbone link for link-down / link-up.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
}

// RolloutGen schedules an OTA rollout against the generated campus.
type RolloutGen struct {
	AtMS int64 `json:"at_ms"`
	// Version is the capsule version rolled out: 2 is the retuned good
	// law, 3 the seeded never-actuating law (health window must trip
	// and roll back).
	Version uint8 `json:"version"`
	// Strategy names the rollout strategy ("" = canary-cell).
	Strategy string `json:"strategy,omitempty"`
}

// Spec is one generated scenario, fully described as plain data: it
// marshals to JSON, registers as an ordinary scenario, and rebuilds the
// identical campus on every run. GenSeed records the generator seed the
// spec was derived from (informational once the spec exists — shrinking
// edits the spec directly and never re-generates).
type Spec struct {
	Name     string    `json:"name"`
	GenSeed  uint64    `json:"gen_seed"`
	Topology string    `json:"topology"`
	Cells    []CellGen `json:"cells"`
	// Links is the explicit backbone topology (empty = full mesh).
	Links []LinkGen `json:"links,omitempty"`
	// Policy names the placement policy ("" = least-loaded).
	Policy string `json:"policy,omitempty"`
	// Rebalance enables homeward rebalancing of escalated tasks.
	Rebalance bool `json:"rebalance,omitempty"`
	// HorizonMS is the run length in virtual milliseconds.
	HorizonMS int64       `json:"horizon_ms"`
	Faults    []FaultGen  `json:"faults,omitempty"`
	Rollout   *RolloutGen `json:"rollout,omitempty"`
}

// Horizon returns the spec's run length.
func (s Spec) Horizon() time.Duration { return time.Duration(s.HorizonMS) * time.Millisecond }

// MarshalIndent renders the spec as stable, human-diffable JSON.
func (s Spec) MarshalIndent() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// cell returns the named cell's index, or -1.
func (s Spec) cell(name string) int {
	for i, c := range s.Cells {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the spec's internal consistency — every reference
// resolves, every parameter is in range, and multi-hop constraints hold.
// Builders call it before constructing anything, and the shrinker uses
// it to discard ill-formed reduction candidates without running them.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("fuzz: spec needs a name")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("fuzz: spec %s has no cells", s.Name)
	}
	if s.HorizonMS <= 0 {
		return fmt.Errorf("fuzz: spec %s horizon %d ms", s.Name, s.HorizonMS)
	}
	seen := make(map[string]bool, len(s.Cells))
	for i, c := range s.Cells {
		if c.Name == "" {
			return fmt.Errorf("fuzz: cell %d unnamed", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("fuzz: duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		if c.Tasks < 1 {
			return fmt.Errorf("fuzz: cell %s has %d tasks", c.Name, c.Tasks)
		}
		if c.Spares < 0 {
			return fmt.Errorf("fuzz: cell %s has %d spares", c.Name, c.Spares)
		}
		if c.PeriodMS <= 0 {
			return fmt.Errorf("fuzz: cell %s period %d ms", c.Name, c.PeriodMS)
		}
		if c.PER < 0 || c.PER > 1 {
			return fmt.Errorf("fuzz: cell %s PER %g outside [0,1]", c.Name, c.PER)
		}
		switch c.Placement {
		case PlacementGrid, PlacementLine:
			if len(c.Positions) != 0 {
				return fmt.Errorf("fuzz: cell %s: positions only valid with scatter placement", c.Name)
			}
		case PlacementScatter:
			if len(c.Positions) != c.Nodes() {
				return fmt.Errorf("fuzz: cell %s: %d positions for %d nodes", c.Name, len(c.Positions), c.Nodes())
			}
		default:
			return fmt.Errorf("fuzz: cell %s: unknown placement %q", c.Name, c.Placement)
		}
		if c.Multihop {
			if len(s.Cells) != 1 {
				return fmt.Errorf("fuzz: multi-hop cell %s in a %d-cell campus (single-cell only)", c.Name, len(s.Cells))
			}
			if c.Tasks > 2 {
				return fmt.Errorf("fuzz: multi-hop cell %s with %d tasks (max 2)", c.Name, c.Tasks)
			}
			if c.Placement != PlacementScatter {
				return fmt.Errorf("fuzz: multi-hop cell %s needs scatter placement", c.Name)
			}
		}
	}
	links := make(map[[2]string]bool, len(s.Links))
	for i, l := range s.Links {
		if s.cell(l.A) < 0 || s.cell(l.B) < 0 || l.A == l.B {
			return fmt.Errorf("fuzz: link %d (%s—%s) does not join two distinct cells", i, l.A, l.B)
		}
		key := linkKey(l.A, l.B)
		if links[key] {
			return fmt.Errorf("fuzz: duplicate link %s—%s", l.A, l.B)
		}
		links[key] = true
		if l.PER < 0 || l.PER >= 1 {
			return fmt.Errorf("fuzz: link %s—%s PER %g outside [0,1)", l.A, l.B, l.PER)
		}
		if l.LatencyMS < 0 {
			return fmt.Errorf("fuzz: link %s—%s latency %d ms", l.A, l.B, l.LatencyMS)
		}
	}
	if s.Policy != "" && !slices.Contains(evm.PlacementPolicies(), s.Policy) {
		return fmt.Errorf("fuzz: spec %s: unknown placement policy %q", s.Name, s.Policy)
	}
	if len(s.Links) > 0 && !s.connected() {
		return fmt.Errorf("fuzz: spec %s backbone does not connect all %d cells", s.Name, len(s.Cells))
	}
	for i, f := range s.Faults {
		if err := s.validateFault(i, f, links); err != nil {
			return err
		}
	}
	if r := s.Rollout; r != nil {
		if len(s.Cells) < 2 {
			return fmt.Errorf("fuzz: rollout needs a campus (%d cells)", len(s.Cells))
		}
		if r.AtMS <= 0 || r.AtMS >= s.HorizonMS {
			return fmt.Errorf("fuzz: rollout at %d ms outside horizon", r.AtMS)
		}
		if r.Version != 2 && r.Version != 3 {
			return fmt.Errorf("fuzz: rollout version %d (2 = good law, 3 = seeded bad law)", r.Version)
		}
		switch r.Strategy {
		case "", evm.RolloutCanaryCell, evm.RolloutCellByCell, evm.RolloutAllAtOnce:
		default:
			return fmt.Errorf("fuzz: unknown rollout strategy %q", r.Strategy)
		}
		for _, c := range s.Cells {
			if !c.VM {
				return fmt.Errorf("fuzz: rollout over non-VM cell %s", c.Name)
			}
		}
	}
	return nil
}

func (s Spec) validateFault(i int, f FaultGen, links map[[2]string]bool) error {
	if f.AtMS < 0 || f.AtMS > s.HorizonMS {
		return fmt.Errorf("fuzz: fault %d at %d ms outside horizon %d ms", i, f.AtMS, s.HorizonMS)
	}
	needCell := func() (CellGen, error) {
		ci := s.cell(f.Cell)
		if ci < 0 {
			return CellGen{}, fmt.Errorf("fuzz: fault %d (%s) targets unknown cell %q", i, f.Kind, f.Cell)
		}
		return s.Cells[ci], nil
	}
	needNode := func(c CellGen) error {
		if f.Node < 1 || f.Node > c.Nodes() {
			return fmt.Errorf("fuzz: fault %d (%s) node %d outside cell %s (1..%d)", i, f.Kind, f.Node, c.Name, c.Nodes())
		}
		return nil
	}
	switch f.Kind {
	case KindCrash, KindRecover, KindBattery, KindDrift:
		c, err := needCell()
		if err != nil {
			return err
		}
		if err := needNode(c); err != nil {
			return err
		}
		if f.Kind == KindBattery && (f.Fraction <= 0 || f.Fraction > 1) {
			return fmt.Errorf("fuzz: fault %d drain fraction %g outside (0,1]", i, f.Fraction)
		}
	case KindOutage:
		if _, err := needCell(); err != nil {
			return err
		}
		if f.ForMS <= 0 {
			return fmt.Errorf("fuzz: fault %d outage needs a positive window", i)
		}
		if len(s.Cells) < 2 {
			return fmt.Errorf("fuzz: fault %d cell-outage needs a campus peer to escalate into", i)
		}
	case KindPERBurst:
		if _, err := needCell(); err != nil {
			return err
		}
		if f.PER < 0 || f.PER > 1 {
			return fmt.Errorf("fuzz: fault %d burst PER %g outside [0,1]", i, f.PER)
		}
		if f.ForMS <= 0 {
			return fmt.Errorf("fuzz: fault %d burst needs a positive window", i)
		}
	case KindLinkDown, KindLinkUp:
		if len(s.Links) == 0 {
			return fmt.Errorf("fuzz: fault %d (%s) with no explicit links", i, f.Kind)
		}
		if !links[linkKey(f.A, f.B)] {
			return fmt.Errorf("fuzz: fault %d (%s) targets unknown link %s—%s", i, f.Kind, f.A, f.B)
		}
	default:
		return fmt.Errorf("fuzz: fault %d unknown kind %q", i, f.Kind)
	}
	return nil
}

// linkKey normalizes an undirected link name pair.
func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// connected reports whether Links joins every cell into one component.
func (s Spec) connected() bool {
	adj := make(map[string][]string, len(s.Cells))
	for _, l := range s.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[string]bool{s.Cells[0].Name: true}
	frontier := []string{s.Cells[0].Name}
	for len(frontier) > 0 {
		next := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, peer := range adj[next] {
			if !seen[peer] {
				seen[peer] = true
				frontier = append(frontier, peer)
			}
		}
	}
	return len(seen) == len(s.Cells)
}

// connectedWithout reports whether the backbone stays connected with one
// link removed — the generator's guard before severing it.
func (s Spec) connectedWithout(a, b string) bool {
	drop := linkKey(a, b)
	kept := s
	kept.Links = nil
	for _, l := range s.Links {
		if linkKey(l.A, l.B) != drop {
			kept.Links = append(kept.Links, l)
		}
	}
	return kept.connected()
}
