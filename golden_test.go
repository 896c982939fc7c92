package evm

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"evm/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/scenarios.txt from this tree")

const scenarioGoldenPath = "testdata/golden/scenarios.txt"

// scenarioDigest runs one (scenario, seed) point for 20 s of virtual time
// with tracing and the default invariants on, and returns a SHA-256 over
// everything the run makes observable: the event stream, the sorted
// metric map, every invariant violation and the Chrome trace export.
func scenarioDigest(t *testing.T, scenario string, seed uint64) string {
	t.Helper()
	var log *EventLog
	r := &Runner{
		Workers:  1,
		Trace:    true,
		Checkers: DefaultInvariants,
		Instrument: func(_ RunSpec, exp *Experiment) func(map[string]float64) {
			log = exp.Events().Log()
			return nil
		},
	}
	res := r.RunOne(RunSpec{Scenario: scenario, Seed: seed, Horizon: 20 * time.Second})
	if res.Err != nil {
		t.Fatalf("%s seed %d: %v", scenario, seed, res.Err)
	}
	defer log.Close()
	h := sha256.New()
	fmt.Fprintln(h, "events")
	for _, s := range log.Strings() {
		fmt.Fprintln(h, s)
	}
	fmt.Fprintln(h, "metrics")
	for _, k := range sim.SortedKeys(res.Metrics) {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64))
	}
	fmt.Fprintln(h, "violations")
	for _, v := range res.Violations {
		fmt.Fprintln(h, v.String())
	}
	fmt.Fprintln(h, "trace")
	h.Write(res.TraceJSON)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestScenarioGolden pins the observable behaviour of every registered
// scenario at seeds 1 and 2 against digests checked in under testdata.
// Same-build determinism tests compare two runs of one binary; this one
// compares against an earlier tree, so a refactor or optimisation that
// changes any event, metric, violation or trace byte fails here.
// Regenerate, only for an intended behaviour change, with
//
//	go test -run TestScenarioGolden -update-golden .
func TestScenarioGolden(t *testing.T) {
	var lines []string
	for _, name := range Scenarios() {
		for _, seed := range []uint64{1, 2} {
			lines = append(lines, fmt.Sprintf("%s seed=%d %s", name, seed, scenarioDigest(t, name, seed)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(scenarioGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scenarioGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(scenarioGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d entries, tree has %d", len(wantLines), len(lines))
	}
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			t.Errorf("behaviour changed:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
