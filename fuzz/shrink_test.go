package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"evm"
)

// seededLostLoopSpec hand-builds a spec that trips the
// failover-latency invariant through an ordinary fault plan: both
// controllers of loop c0-loop-0 (nodes 3 and 4) crash for good at 10 s,
// so no replica can take the loop over. Drift, PER-burst and battery
// noise ride along so the shrinker has something real to strip.
func seededLostLoopSpec() Spec {
	return Spec{
		Name:      "fuzz-seeded-lost-loop",
		Topology:  TopologyMesh,
		Cells:     []CellGen{{Name: "c0", Tasks: 2, Spares: 2, PeriodMS: 250, Placement: PlacementGrid}},
		HorizonMS: 30_000,
		Faults: []FaultGen{
			{AtMS: 6_000, Kind: KindDrift, Cell: "c0", Node: 5, PPM: 180},
			{AtMS: 8_000, Kind: KindPERBurst, Cell: "c0", PER: 0.2, ForMS: 1_000},
			{AtMS: 10_000, Kind: KindCrash, Cell: "c0", Node: 3},
			{AtMS: 10_000, Kind: KindCrash, Cell: "c0", Node: 4},
			{AtMS: 21_000, Kind: KindBattery, Cell: "c0", Node: 6, Fraction: 0.4},
		},
	}
}

// TestShrinkConvergesOnSeededViolation is the end-to-end shrinker
// proof: the seeded lost-loop spec fails, Shrink strips the noise down
// to the two crash steps the failure needs, and the emitted repro
// replays to the same violation class.
func TestShrinkConvergesOnSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations; skipped in -short")
	}
	s := seededLostLoopSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("seeded spec invalid: %v", err)
	}
	const seed = 1
	viols, err := RunOnce(s, seed)
	if err != nil {
		t.Fatalf("seeded spec failed to run: %v", err)
	}
	if len(viols) == 0 {
		t.Fatal("seeded spec no longer violates any invariant — losing both controllers of a loop went unnoticed")
	}
	for _, v := range viols {
		t.Logf("violation: %s", v)
	}
	if !slices.ContainsFunc(viols, func(v evm.Violation) bool { return v.Checker == "failover-latency" }) {
		t.Fatalf("expected a failover-latency violation, got %v", viols)
	}

	sr := Shrink(s, seed, viols)
	t.Logf("shrink: %d attempts, %d accepted → %d cell(s), %d fault(s), %v horizon",
		sr.Attempts, sr.Accepted, len(sr.Spec.Cells), len(sr.Spec.Faults), sr.Spec.Horizon())
	// The two crashes are the only faults the failure needs; the
	// shrinker must have discovered that.
	want := []FaultGen{
		{AtMS: 10_000, Kind: KindCrash, Cell: "c0", Node: 3},
		{AtMS: 10_000, Kind: KindCrash, Cell: "c0", Node: 4},
	}
	if !slices.Equal(sr.Spec.Faults, want) {
		t.Errorf("want the two crash steps to survive shrinking, got %+v", sr.Spec.Faults)
	}
	if len(sr.Violations) == 0 {
		t.Fatal("shrink result carries no violations")
	}

	// Round-trip the repro through disk and replay it.
	rep := NewRepro(sr.Spec, sr.Seed, sr.Violations)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Errorf("repro does not replay to the recorded violation: %v", err)
	}

	// The generated regression test must be a self-contained Go file
	// that embeds the spec and asserts zero violations.
	src, err := RegressionTest(rep, "TestSeededLostLoopRepro")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package fuzz_test",
		"func TestSeededLostLoopRepro(t *testing.T)",
		"fuzz.RunOnce",
		"failover-latency",
	} {
		if !bytes.Contains(src, []byte(want)) {
			t.Errorf("regression test source missing %q:\n%s", want, src)
		}
	}
}

// TestShrinkerRejectsDifferentFailure: the oracle accepts a candidate
// only when it reproduces the original checker class, so shrinking
// never "wanders" onto an unrelated failure. Simulated here by handing
// Shrink a violation set naming a checker the spec never trips — the
// shrinker must then accept nothing and return the spec unchanged.
func TestShrinkerRejectsDifferentFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	s := seededLostLoopSpec()
	fake := []evm.Violation{{Checker: "route-monotonicity", Detail: "synthetic"}}
	sr := Shrink(s, 1, fake)
	if sr.Accepted != 0 {
		t.Fatalf("shrinker accepted %d candidates against a checker the spec never trips", sr.Accepted)
	}
	// Shrink always stamps the result name with "-min"; everything else
	// must be untouched.
	sr.Spec.Name = s.Name
	if got, _ := sr.Spec.MarshalIndent(); !sameJSON(t, s, sr.Spec) {
		t.Fatalf("spec changed despite zero accepted candidates:\n%s", got)
	}
}

func sameJSON(t *testing.T, a, b Spec) bool {
	t.Helper()
	ja, err := a.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// TestReproJSONRoundTrip: a repro survives the disk round-trip with
// its spec and seed byte-for-byte intact.
func TestReproJSONRoundTrip(t *testing.T) {
	s := seededLostLoopSpec()
	rep := NewRepro(s, 9, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	if err := WriteRepro(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"gen_seed"`) {
		t.Fatalf("repro JSON missing embedded spec:\n%s", raw)
	}
	loaded, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameJSON(t, s, loaded.Spec) || loaded.Seed != 9 {
		t.Fatal("repro round-trip mutated the spec or seed")
	}
}
