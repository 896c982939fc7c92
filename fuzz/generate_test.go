package fuzz

import (
	"bytes"
	"math"
	"testing"

	"evm"
)

// TestGenerateDeterministicAndValid locks the generator's contract: the
// mapping seed → spec is a pure function (byte-identical JSON on every
// call) and every generated spec passes Validate.
func TestGenerateDeterministicAndValid(t *testing.T) {
	lossy, lossyMultihop := DefaultProfile(), MultihopProfile()
	lossy.LossGates, lossyMultihop.LossGates = false, false
	for _, prof := range []Profile{DefaultProfile(), MultihopProfile(), lossy, lossyMultihop} {
		for seed := uint64(1); seed <= 300; seed++ {
			a := GenerateWith(seed, prof)
			b := GenerateWith(seed, prof)
			ja, err := a.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			jb, _ := b.MarshalIndent()
			if !bytes.Equal(ja, jb) {
				t.Fatalf("seed %d: two generations differ:\n%s\n----\n%s", seed, ja, jb)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("seed %d: invalid spec: %v\n%s", seed, err, ja)
			}
		}
	}
}

// TestValidateRejectsUnknownNames: a placement policy or rollout
// strategy outside the built-in names is an error, not a silent default
// (an unknown strategy used to run as "no rollout"). Every built-in name,
// and "" for each default, still validates.
func TestValidateRejectsUnknownNames(t *testing.T) {
	var base Spec
	for seed := uint64(1); base.Rollout == nil; seed++ {
		if seed > 300 {
			t.Fatal("no generated spec with a rollout in seeds 1..300")
		}
		base = Generate(seed)
	}
	withPolicy := func(p string) Spec { s := base; s.Policy = p; return s }
	withStrategy := func(name string) Spec {
		s, r := base, *base.Rollout
		r.Strategy = name
		s.Rollout = &r
		return s
	}
	for _, p := range append([]string{""}, evm.PlacementPolicies()...) {
		if err := withPolicy(p).Validate(); err != nil {
			t.Errorf("policy %q: %v", p, err)
		}
	}
	for _, name := range []string{"", evm.RolloutCanaryCell, evm.RolloutCellByCell, evm.RolloutAllAtOnce} {
		if err := withStrategy(name).Validate(); err != nil {
			t.Errorf("strategy %q: %v", name, err)
		}
	}
	for _, bad := range []string{"bogus", "Least-Loaded", "canary"} {
		if withPolicy(bad).Validate() == nil {
			t.Errorf("policy %q validated", bad)
		}
		if withStrategy(bad).Validate() == nil {
			t.Errorf("strategy %q validated", bad)
		}
	}
}

// TestLossyMultihopAddsOnlyPER: without the loss gates a multi-hop
// spec is the gated spec of the same seed plus a cell PER, drawn after
// everything else, so turning the gates off moves no pinned multi-hop
// spec. Some of the drawn rates are nonzero.
func TestLossyMultihopAddsOnlyPER(t *testing.T) {
	lossy := MultihopProfile()
	lossy.LossGates = false
	lossyCells := 0
	for seed := uint64(1); seed <= 300; seed++ {
		gated, ungated := GenerateWith(seed, MultihopProfile()), GenerateWith(seed, lossy)
		if gated.Cells[0].PER != 0 {
			t.Fatalf("seed %d: gated multi-hop cell has PER %v", seed, gated.Cells[0].PER)
		}
		if ungated.Cells[0].PER > 0 {
			lossyCells++
		}
		ungated.Cells[0].PER = 0
		ja, err := gated.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := ungated.MarshalIndent()
		if !bytes.Equal(ja, jb) {
			t.Fatalf("seed %d: lossy multi-hop spec differs from the gated one beyond its PER:\n%s\n----\n%s", seed, ja, jb)
		}
	}
	if lossyCells == 0 {
		t.Fatal("no lossy multi-hop spec in seeds 1..300 has a PER")
	}
}

func dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// TestMultihopFieldsSpanPastRadioRange checks the carried PR-4 geometry
// on every multihop spec: consecutive stations stay comfortably inside
// radio range (reliable hops) while the field end-to-end spans wider
// than the range, so the line schedule genuinely has to relay.
func TestMultihopFieldsSpanPastRadioRange(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := GenerateWith(seed, MultihopProfile())
		c := s.Cells[0]
		if !c.Multihop || len(c.Positions) != c.Nodes() {
			t.Fatalf("seed %d: not a positioned multihop cell: %+v", seed, c)
		}
		for i := 1; i < len(c.Positions); i++ {
			if d := dist(c.Positions[i-1], c.Positions[i]); d >= 0.8*RadioRangeM {
				t.Fatalf("seed %d: hop %d spans %.1f m (want < %.0f m)", seed, i, d, 0.8*RadioRangeM)
			}
		}
		if span := dist(c.Positions[0], c.Positions[len(c.Positions)-1]); span <= RadioRangeM {
			t.Fatalf("seed %d: field spans only %.1f m, inside the %d m radio range", seed, span, RadioRangeM)
		}
	}
}

// TestGeneratedFaultsAreSerialized locks the generator's safety
// envelope: structural fault windows never overlap, so every
// disturbance resolves before the next begins.
func TestGeneratedFaultsAreSerialized(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		s := GenerateWith(seed, DefaultProfile())
		var last int64
		for i, f := range s.Faults {
			if f.AtMS < last {
				t.Fatalf("seed %d: fault %d (%s) at %d ms starts before %d ms", seed, i, f.Kind, f.AtMS, last)
			}
			switch f.Kind {
			case KindOutage, KindPERBurst:
				last = f.AtMS + f.ForMS
			default:
				last = f.AtMS
			}
		}
	}
}

// TestLossGatesKeepFaultsOutOfLossyCells: with Profile.LossGates on, no
// crash, recovery or outage targets a cell with baseline loss; with it
// off (evmfuzz -profile lossy), some do.
func TestLossGatesKeepFaultsOutOfLossyCells(t *testing.T) {
	lossyTargets := func(p Profile) int {
		n := 0
		for _, s := range GenerateCorpus(1, 400, p) {
			for _, f := range s.Faults {
				switch f.Kind {
				case KindCrash, KindRecover, KindOutage:
					if s.Cells[s.cell(f.Cell)].PER > 0 {
						n++
					}
				}
			}
		}
		return n
	}
	p := DefaultProfile()
	if n := lossyTargets(p); n != 0 {
		t.Errorf("with the loss gates on, %d faults target a lossy cell", n)
	}
	p.LossGates = false
	if lossyTargets(p) == 0 {
		t.Error("with the loss gates off, no fault targets a lossy cell")
	}
}
