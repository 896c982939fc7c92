package evm

import (
	"fmt"

	"evm/internal/radio"
	"evm/internal/sim"
)

// Position is a 2-D node location in meters on the radio medium.
type Position = radio.Position

// Placement decides where cell members sit on the medium. Use Line, Grid,
// RandomUniform or Fixed; placements that draw randomness consume a
// dedicated fork of the cell's seeded stream, so cells remain reproducible
// bit-for-bit.
type Placement struct {
	name string
	// random placements get a forked RNG; deterministic ones get nil.
	random bool
	// capacity caps the number of placeable nodes (0 = unlimited).
	capacity int
	at       func(i int, rng *sim.RNG) Position
}

// Name returns a short description of the placement.
func (p Placement) Name() string { return p.name }

// Line places nodes on the X axis with the given spacing in meters.
// Line(3) is the classic seed topology: every node well inside radio
// range of every other.
func Line(spacingM float64) Placement {
	return Placement{
		name: fmt.Sprintf("line(%g)", spacingM),
		at:   func(i int, _ *sim.RNG) Position { return Position{X: float64(i) * spacingM} },
	}
}

// Grid places nodes row-major on a cols x rows lattice with 3 m pitch.
// The cell may hold at most cols*rows members.
func Grid(cols, rows int) Placement {
	const pitchM = 3
	return Placement{
		name:     fmt.Sprintf("grid(%dx%d)", cols, rows),
		capacity: cols * rows,
		at: func(i int, _ *sim.RNG) Position {
			return Position{X: float64(i%cols) * pitchM, Y: float64(i/cols) * pitchM}
		},
	}
}

// RandomUniform scatters nodes uniformly over a sideM x sideM square.
// Nodes can land out of radio range of each other (radio.DefaultConfig's
// RangeM, 30 m): keep the square small enough, or accept the resulting
// loss as part of the experiment.
func RandomUniform(sideM float64) Placement {
	return Placement{
		name:   fmt.Sprintf("uniform(%g)", sideM),
		random: true,
		at: func(_ int, rng *sim.RNG) Position {
			return Position{X: rng.Float64() * sideM, Y: rng.Float64() * sideM}
		},
	}
}

// Fixed places node i at pos[i]; the cell may hold at most len(pos)
// members.
func Fixed(pos ...Position) Placement {
	own := append([]Position(nil), pos...)
	return Placement{
		name:     fmt.Sprintf("fixed(%d)", len(own)),
		capacity: len(own),
		at:       func(i int, _ *sim.RNG) Position { return own[i] },
	}
}

// cellSpec accumulates the functional options of NewCellWith.
type cellSpec struct {
	ids          []NodeID
	placement    Placement
	per          float64
	hasPER       bool
	slotsPerNode int
	line         bool
	lineOrder    []NodeID
}

// CellOption configures NewCellWith.
type CellOption func(*cellSpec)

// WithNodes sets the cell members explicitly.
func WithNodes(ids ...NodeID) CellOption {
	return func(s *cellSpec) { s.ids = append([]NodeID(nil), ids...) }
}

// WithNodeCount populates the cell with members 1..n — the convenient
// form for large synthetic cells.
func WithNodeCount(n int) CellOption {
	return func(s *cellSpec) {
		s.ids = make([]NodeID, n)
		for i := range s.ids {
			s.ids[i] = NodeID(i + 1)
		}
	}
}

// WithPlacement sets the node placement (default: Line(3)).
func WithPlacement(p Placement) CellOption {
	return func(s *cellSpec) { s.placement = p }
}

// WithPER forces a fixed packet error rate on every in-range link,
// overriding the distance-loss curve (radio range remains a hard cutoff,
// and the Gilbert-Elliott burst overlay stays active for rates > 0).
// WithPER(0) yields a fully perfect channel — loss curve and burst
// overlay disabled.
func WithPER(per float64) CellOption {
	return func(s *cellSpec) {
		s.per = per
		s.hasPER = true
	}
}

// WithSlotsPerNode sets the TX slots each member owns per TDMA frame
// (default 2: a controller sends an actuation and a health record every
// cycle). Runtimes admitted later with AddNodeRuntime get the same budget.
func WithSlotsPerNode(k int) CellOption {
	return func(s *cellSpec) { s.slotsPerNode = k }
}

// WithLineSchedule replaces the default full-mesh TDMA schedule with a
// multi-hop line schedule (rtlink.BuildLineSchedule): each node's slots
// are heard only by its immediate line neighbors, so messages between
// distant stations are relayed hop by hop along static line routes the
// cell installs at construction. order gives the station sequence along
// the line; empty means member order. The cell's slot budget
// (WithSlotsPerNode) becomes the number of line rounds per frame.
func WithLineSchedule(order ...NodeID) CellOption {
	return func(s *cellSpec) {
		s.line = true
		s.lineOrder = append([]NodeID(nil), order...)
	}
}

// lineOrderOrIDs is the station sequence of a line cell: the
// WithLineSchedule order, or member order when it names none.
func (s *cellSpec) lineOrderOrIDs() []NodeID {
	if len(s.lineOrder) == 0 {
		return s.ids
	}
	return s.lineOrder
}

func (s *cellSpec) validate() error {
	if len(s.ids) == 0 {
		return fmt.Errorf("evm: cell needs at least one node (WithNodes / WithNodeCount)")
	}
	if s.placement.capacity > 0 && len(s.ids) > s.placement.capacity {
		return fmt.Errorf("evm: placement %s holds at most %d nodes, got %d",
			s.placement.name, s.placement.capacity, len(s.ids))
	}
	if s.hasPER && !(s.per >= 0 && s.per <= 1) { // NaN fails both
		return fmt.Errorf("evm: packet error rate %g outside [0,1]", s.per)
	}
	if s.slotsPerNode < 0 {
		return fmt.Errorf("evm: %d slots per node", s.slotsPerNode)
	}
	if s.line && len(s.lineOrder) > 0 {
		if len(s.lineOrder) != len(s.ids) {
			return fmt.Errorf("evm: line order names %d nodes, cell has %d", len(s.lineOrder), len(s.ids))
		}
		member := make(map[NodeID]bool, len(s.ids))
		for _, id := range s.ids {
			member[id] = true
		}
		seen := make(map[NodeID]bool, len(s.lineOrder))
		for _, id := range s.lineOrder {
			if !member[id] || seen[id] {
				return fmt.Errorf("evm: line order must be a permutation of the cell members")
			}
			seen[id] = true
		}
	}
	return nil
}
