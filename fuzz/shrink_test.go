package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evm"
)

// seededDualMasterSpec hand-builds a spec that trips the
// single-master-per-task invariant on purpose: UnsafeSkipDemotion
// disables the coordinator's stale-master demotion (the test hook
// behind the historical Rebalance-false bug), so when cell c0
// blacks out, its tasks escalate to a peer, and on recovery the old
// master resumes actuating alongside the foreign replica. Three noise
// faults ride along so the shrinker has something real to strip.
func seededDualMasterSpec() Spec {
	return Spec{
		Name:     "fuzz-seeded-dual-master",
		Topology: TopologyMesh,
		Cells: []CellGen{
			{Name: "c0", Tasks: 1, Spares: 2, PeriodMS: 250, Placement: PlacementGrid},
			{Name: "c1", Tasks: 1, Spares: 2, PeriodMS: 250, Placement: PlacementGrid},
			{Name: "c2", Tasks: 1, Spares: 2, PeriodMS: 500, Placement: PlacementGrid},
		},
		HorizonMS:          30_000,
		UnsafeSkipDemotion: true,
		Faults: []FaultGen{
			{AtMS: 6_000, Kind: KindDrift, Cell: "c1", Node: 5, PPM: 180},
			{AtMS: 8_000, Kind: KindPERBurst, Cell: "c2", PER: 0.2, ForMS: 2_000},
			{AtMS: 10_500, Kind: KindOutage, Cell: "c0", ForMS: 8_000},
			{AtMS: 21_000, Kind: KindBattery, Cell: "c1", Node: 6, Fraction: 0.4},
		},
	}
}

// TestShrinkConvergesOnSeededViolation is the end-to-end shrinker
// proof: the seeded dual-master spec fails, Shrink strips the noise
// down to a minimal still-failing spec, and the emitted repro replays
// to the same violation class.
func TestShrinkConvergesOnSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulations; skipped in -short")
	}
	s := seededDualMasterSpec()
	if err := s.Validate(); err != nil {
		t.Fatalf("seeded spec invalid: %v", err)
	}
	const seed = 1
	viols, err := RunOnce(s, seed)
	if err != nil {
		t.Fatalf("seeded spec failed to run: %v", err)
	}
	if len(viols) == 0 {
		t.Fatal("seeded spec no longer violates any invariant — the dual-master hook lost its teeth")
	}
	sawDual := false
	for _, v := range viols {
		if v.Checker == "single-master-per-task" {
			sawDual = true
		}
	}
	if !sawDual {
		t.Fatalf("expected a single-master-per-task violation, got %v", viols)
	}

	sr := Shrink(s, seed, viols)
	t.Logf("shrink: %d attempts, %d accepted → %d cell(s), %d fault(s), %v horizon",
		sr.Attempts, sr.Accepted, len(sr.Spec.Cells), len(sr.Spec.Faults), sr.Spec.Horizon())
	if len(sr.Spec.Cells) > 3 {
		t.Errorf("shrunk spec still has %d cells (want ≤ 3)", len(sr.Spec.Cells))
	}
	if len(sr.Spec.Faults) > 5 {
		t.Errorf("shrunk spec still has %d fault steps (want ≤ 5)", len(sr.Spec.Faults))
	}
	// The outage is the only fault the failure actually needs; the
	// shrinker must have discovered that.
	if len(sr.Spec.Faults) != 1 || sr.Spec.Faults[0].Kind != KindOutage {
		t.Errorf("want the lone cell-outage to survive shrinking, got %+v", sr.Spec.Faults)
	}
	if !sr.Spec.UnsafeSkipDemotion {
		t.Error("shrinker dropped UnsafeSkipDemotion yet the spec still failed — oracle is broken")
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
	src, err := RegressionTest(rep, "TestSeededDualMasterRepro")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package fuzz_test",
		"func TestSeededDualMasterRepro(t *testing.T)",
		"fuzz.RunOnce",
		"single-master-per-task",
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
	s := seededDualMasterSpec()
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
	s := seededDualMasterSpec()
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
