package fuzz

import (
	"bytes"
	"testing"
)

// TestSweepSmallCorpusClean is the in-tree miniature of the evmfuzz
// acceptance sweep: a dozen generated campuses, two run seeds each,
// every run under the full checker set, zero violations expected. A
// failure here means either a real regression in the campus stack or a
// generator change that stepped outside the safety envelope — both
// block the merge.
func TestSweepSmallCorpusClean(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	corpus := GenerateCorpus(1, 12, DefaultProfile())
	res := Sweep(corpus, []uint64{1, 2}, 0)
	if res.Runs != 24 {
		t.Fatalf("ran %d of 24 runs", res.Runs)
	}
	for _, f := range res.Failures {
		t.Errorf("failure: %s", f.Label())
	}
}

// TestEventStringsDeterministic locks the generator-to-stream contract
// on a full campus spec: one seed, two runs, byte-identical streams.
func TestEventStringsDeterministic(t *testing.T) {
	s := Generate(2)
	if len(s.Cells) < 2 || len(s.Faults) == 0 {
		t.Fatalf("seed 2 no longer generates a faulted campus: %d cells, %d faults", len(s.Cells), len(s.Faults))
	}
	a, err := EventStrings(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EventStrings(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("stream lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestTraceJSONDeterministic: the violating-run trace evmfuzz attaches
// to a repro is a pure function of (spec, seed) and actually contains
// span events.
func TestTraceJSONDeterministic(t *testing.T) {
	s := Generate(11)
	a, err := TraceJSON(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceJSON(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("trace not deterministic (%d vs %d bytes)", len(a), len(b))
	}
	if !bytes.Contains(a, []byte(`"traceEvents"`)) || !bytes.Contains(a, []byte(`"slot"`)) {
		t.Fatal("trace missing expected span events")
	}
}
