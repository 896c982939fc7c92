package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"evm"
)

// ShrinkResult is the outcome of delta-debugging one failing run.
type ShrinkResult struct {
	// Spec is the minimized still-failing spec.
	Spec Spec
	// Seed is the run seed the failure reproduces under.
	Seed uint64
	// Violations are the violations the minimized spec still trips.
	Violations []evm.Violation
	// Attempts counts candidate runs, Accepted the reductions that kept
	// the failure alive.
	Attempts, Accepted int
}

// checkerSet extracts the set of checker names behind a failure — the
// shrinking oracle's identity: a reduction is only accepted if at least
// one of the *original* checkers still fires, so the shrinker cannot
// wander off to a different (possibly self-inflicted) failure mode.
func checkerSet(viols []evm.Violation) map[string]bool {
	set := make(map[string]bool, len(viols))
	for _, v := range viols {
		set[v.Checker] = true
	}
	return set
}

func matchesChecker(viols []evm.Violation, want map[string]bool) bool {
	for _, v := range viols {
		if want[v.Checker] {
			return true
		}
	}
	return false
}

// Shrink delta-debugs a failing (spec, seed) run down to a minimal spec
// that still trips at least one of the original failure's checkers. It
// greedily applies reduction passes — drop fault steps, drop the
// rollout, drop whole cells, shave tasks and spares, halve the horizon,
// simplify topology and knobs — re-running the oracle after each
// candidate, and loops to a fixed point. Everything is deterministic:
// the same failing run shrinks to the same minimal spec.
func Shrink(s Spec, seed uint64, orig []evm.Violation) ShrinkResult {
	want := checkerSet(orig)
	res := ShrinkResult{Spec: s, Seed: seed, Violations: orig}
	try := func(cand Spec) bool {
		if cand.Validate() != nil {
			return false
		}
		res.Attempts++
		viols, err := RunOnce(cand, seed)
		if err != nil || !matchesChecker(viols, want) {
			return false
		}
		res.Accepted++
		res.Spec = cand
		res.Violations = viols
		return true
	}
	for changed := true; changed; {
		changed = false
		changed = shrinkFaults(&res.Spec, try) || changed
		changed = shrinkRollout(&res.Spec, try) || changed
		changed = shrinkCells(&res.Spec, try) || changed
		changed = shrinkTasks(&res.Spec, try) || changed
		changed = shrinkSpares(&res.Spec, try) || changed
		changed = shrinkHorizon(&res.Spec, try) || changed
		changed = shrinkKnobs(&res.Spec, try) || changed
	}
	res.Spec.Name = s.Name + "-min"
	return res
}

// shrinkFaults drops fault steps one-minimally, last first.
func shrinkFaults(s *Spec, try func(Spec) bool) bool {
	changed := false
	for i := len(s.Faults) - 1; i >= 0; i-- {
		cand := *s
		cand.Faults = append(append([]FaultGen(nil), s.Faults[:i]...), s.Faults[i+1:]...)
		if try(cand) {
			*s = cand
			changed = true
		}
	}
	return changed
}

func shrinkRollout(s *Spec, try func(Spec) bool) bool {
	if s.Rollout == nil {
		return false
	}
	cand := *s
	cand.Rollout = nil
	if try(cand) {
		*s = cand
		return true
	}
	return false
}

// shrinkCells drops whole cells (last first), cascading away the links
// and faults that referenced them. Validate rejects candidates the drop
// disconnects, so only structurally sound reductions reach the oracle.
func shrinkCells(s *Spec, try func(Spec) bool) bool {
	changed := false
	for i := len(s.Cells) - 1; i >= 0 && len(s.Cells) > 1; i-- {
		name := s.Cells[i].Name
		cand := *s
		cand.Cells = append(append([]CellGen(nil), s.Cells[:i]...), s.Cells[i+1:]...)
		cand.Links = nil
		for _, l := range s.Links {
			if l.A != name && l.B != name {
				cand.Links = append(cand.Links, l)
			}
		}
		cand.Faults = nil
		for _, f := range s.Faults {
			if f.Cell == name || f.A == name || f.B == name {
				continue
			}
			cand.Faults = append(cand.Faults, f)
		}
		if try(cand) {
			*s = cand
			changed = true
		}
	}
	return changed
}

// shrinkTasks shaves the highest-numbered task off each cell, dropping
// faults aimed at its candidates and renumbering spare references down.
// Multi-hop cells are skipped — their station order and positions are
// bound to the task layout.
func shrinkTasks(s *Spec, try func(Spec) bool) bool {
	changed := false
	for i := range s.Cells {
		for s.Cells[i].Tasks > 1 && !s.Cells[i].Multihop {
			c := s.Cells[i]
			prim, back := 2*c.Tasks+1, 2*c.Tasks+2
			cand := *s
			cand.Cells = append([]CellGen(nil), s.Cells...)
			cand.Cells[i].Tasks--
			if c.Placement == PlacementScatter {
				cand.Cells[i].Positions = append([]Point(nil), c.Positions[:len(c.Positions)-2]...)
			}
			cand.Faults = remapFaults(s.Faults, c.Name, func(node int) (int, bool) {
				switch {
				case node == prim || node == back:
					return 0, false
				case node > back:
					return node - 2, true
				default:
					return node, true
				}
			})
			if try(cand) {
				*s = cand
				changed = true
			} else {
				break
			}
		}
	}
	return changed
}

// shrinkSpares removes each cell's highest-numbered spare.
func shrinkSpares(s *Spec, try func(Spec) bool) bool {
	changed := false
	for i := range s.Cells {
		for s.Cells[i].Spares > 0 && !s.Cells[i].Multihop {
			c := s.Cells[i]
			top := c.Nodes()
			cand := *s
			cand.Cells = append([]CellGen(nil), s.Cells...)
			cand.Cells[i].Spares--
			if c.Placement == PlacementScatter {
				cand.Cells[i].Positions = append([]Point(nil), c.Positions[:len(c.Positions)-1]...)
			}
			cand.Faults = remapFaults(s.Faults, c.Name, func(node int) (int, bool) {
				if node == top {
					return 0, false
				}
				return node, true
			})
			if try(cand) {
				*s = cand
				changed = true
			} else {
				break
			}
		}
	}
	return changed
}

// remapFaults rewrites node references of faults targeting one cell;
// remap returns the new node ID or false to drop the fault.
func remapFaults(faults []FaultGen, cell string, remap func(int) (int, bool)) []FaultGen {
	out := make([]FaultGen, 0, len(faults))
	for _, f := range faults {
		if f.Cell == cell && f.Node != 0 {
			node, keep := remap(f.Node)
			if !keep {
				continue
			}
			f.Node = node
		}
		out = append(out, f)
	}
	return out
}

// shrinkHorizon tries half, then three-quarters, of the current horizon.
func shrinkHorizon(s *Spec, try func(Spec) bool) bool {
	changed := false
	for _, num := range []int64{1, 3} {
		den := int64(2)
		if num == 3 {
			den = 4
		}
		cand := *s
		cand.HorizonMS = s.HorizonMS * num / den / 500 * 500
		if cand.HorizonMS < 1000 || cand.HorizonMS >= s.HorizonMS {
			continue
		}
		if try(cand) {
			*s = cand
			changed = true
		}
	}
	return changed
}

// shrinkKnobs zeroes the remaining incidental complexity: explicit
// links (back to the full mesh), link and cell loss, the placement
// policy, rebalancing, and — last — the seeded-bug switch itself (the
// oracle rejects that one whenever the switch is what makes it fail).
func shrinkKnobs(s *Spec, try func(Spec) bool) bool {
	changed := false
	cands := []func(Spec) Spec{
		func(c Spec) Spec { c.Links = nil; c.Topology = TopologyMesh; return c },
		func(c Spec) Spec {
			c.Links = append([]LinkGen(nil), c.Links...)
			for i := range c.Links {
				c.Links[i].PER = 0
				c.Links[i].LatencyMS = 0
			}
			return c
		},
		func(c Spec) Spec {
			c.Cells = append([]CellGen(nil), c.Cells...)
			for i := range c.Cells {
				c.Cells[i].PER = 0
			}
			return c
		},
		func(c Spec) Spec { c.Policy = ""; return c },
		func(c Spec) Spec { c.Rebalance = false; return c },
	}
	for _, mk := range cands {
		cand := mk(*s)
		js1, _ := json.Marshal(cand)
		js2, _ := json.Marshal(*s)
		if string(js1) == string(js2) {
			continue
		}
		if try(cand) {
			*s = cand
			changed = true
		}
	}
	return changed
}

// Repro is a self-contained reproduction of one invariant violation:
// the minimized spec, the run seed, and the checkers it trips. It
// round-trips through JSON (`evmfuzz -repro file.json` replays it).
type Repro struct {
	Seed       uint64   `json:"seed"`
	Checkers   []string `json:"checkers"`
	Violations []string `json:"violations"`
	Spec       Spec     `json:"spec"`
}

// NewRepro records a failing run as a portable reproduction.
func NewRepro(s Spec, seed uint64, viols []evm.Violation) Repro {
	r := Repro{Seed: seed, Spec: s}
	for name := range checkerSet(viols) {
		r.Checkers = append(r.Checkers, name)
	}
	sort.Strings(r.Checkers)
	for _, v := range viols {
		r.Violations = append(r.Violations, v.String())
	}
	return r
}

// Replay re-runs the repro's spec under the full checker set.
func (r Repro) Replay() ([]evm.Violation, error) { return RunOnce(r.Spec, r.Seed) }

// Verify replays the repro and errors unless at least one of its
// recorded checkers fires again.
func (r Repro) Verify() error {
	viols, err := r.Replay()
	if err != nil {
		return fmt.Errorf("fuzz: repro %s failed to run: %w", r.Spec.Name, err)
	}
	want := make(map[string]bool, len(r.Checkers))
	for _, c := range r.Checkers {
		want[c] = true
	}
	if !matchesChecker(viols, want) {
		return fmt.Errorf("fuzz: repro %s no longer trips %v (got %d violations)",
			r.Spec.Name, r.Checkers, len(viols))
	}
	return nil
}

// WriteRepro saves the repro as indented JSON.
func WriteRepro(path string, r Repro) error {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// LoadRepro reads a repro written by WriteRepro.
func LoadRepro(path string) (Repro, error) {
	var r Repro
	js, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(js, &r); err != nil {
		return r, fmt.Errorf("fuzz: %s: %w", path, err)
	}
	return r, nil
}

// RegressionTest renders the repro as a self-contained Go test file in
// package fuzz_test. The emitted test asserts ZERO violations, so it
// keeps failing while the underlying bug reproduces — drop the file
// into fuzz/ to promote a shrunken repro into a permanent regression
// test, and it goes green when the fix lands.
func RegressionTest(r Repro, testName string) ([]byte, error) {
	if testName == "" {
		testName = fmt.Sprintf("TestFuzzRepro%016X", r.Spec.GenSeed)
	}
	specJSON, err := json.MarshalIndent(r.Spec, "", "  ")
	if err != nil {
		return nil, err
	}
	src := fmt.Sprintf(`package fuzz_test

import (
	"encoding/json"
	"testing"

	"evm/fuzz"
)

// %s replays a shrunken evmfuzz reproduction (run seed %d) that
// originally tripped: %s. It fails while the violation reproduces.
func %s(t *testing.T) {
	const specJSON = %s

	var spec fuzz.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatalf("unmarshal repro spec: %%v", err)
	}
	viols, err := fuzz.RunOnce(spec, %d)
	if err != nil {
		t.Fatalf("run repro: %%v", err)
	}
	for _, v := range viols {
		t.Errorf("invariant violation: %%s", v)
	}
}
`, testName, r.Seed, fmt.Sprintf("%v", r.Checkers), testName,
		"`"+string(specJSON)+"`", r.Seed)
	return []byte(src), nil
}
