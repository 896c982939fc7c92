package evm

import (
	"fmt"

	"evm/internal/radio"
	"evm/internal/sim"
)

// Position is a 2-D node location in meters on the radio medium.
type Position = radio.Position

// Placement decides where cell members sit on the medium
// (CellSpec.Placement). Use Line, Grid, RandomUniform or Fixed;
// placements that draw randomness consume a dedicated fork of the cell's
// seeded stream, so cells remain reproducible bit-for-bit.
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
