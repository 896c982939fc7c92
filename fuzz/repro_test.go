package fuzz

import (
	"fmt"
	"testing"

	"evm"
)

// sweepRepros are generated specs that once broke an invariant in the
// evmfuzz sweep, replayed at run seeds 1–3; every run must hold every
// invariant. fencedSeed names the run that failed, and cell the cell
// whose actuation sink must have denied a stale actuation in it: there the
// operation switch, not a different run, is what keeps the run clean.
var sweepRepros = []struct {
	gen        uint64
	cell       string
	fencedSeed uint64
}{
	// A deposed master's actuations reached a campus cell's sink, which
	// had no operation switch: single-master-per-task.
	{1249, "c3", 2},
	{1477, "c0", 2},
	{1875, "c0", 2},
	{2157, "c3", 2},
	{2430, "c0", 2},
}

func TestSweepReprosClean(t *testing.T) {
	for _, r := range sweepRepros {
		s := Generate(r.gen)
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("gen=%d/seed=%d", r.gen, seed), func(t *testing.T) {
				denied := -1
				res := runSpec(s, seed, evm.Runner{
					Checkers: Checkers,
					Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
						return func(map[string]float64) {
							for _, c := range exp.Cells() {
								if c.Name() == r.cell {
									denied = c.ActuationsDenied()
								}
							}
						}
					},
				})
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				if denied < 0 {
					t.Fatalf("no cell %q", r.cell)
				}
				if seed == r.fencedSeed && denied == 0 {
					t.Errorf("cell %s denied no actuation", r.cell)
				}
			})
		}
	}
}
