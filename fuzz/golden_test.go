package fuzz

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"evm"
	"evm/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/corpus.txt from this tree")

const corpusGoldenPath = "testdata/golden/corpus.txt"

// goldenCorpus names the generated specs the fault-corpus golden pins:
// campuses with crashes, recoveries, cell outages (and the escalations
// that admit nodes into other cells), battery drains, loss bursts and
// rollouts, plus multi-hop line cells whose traffic is relayed hop by
// hop. Fault times fall at arbitrary milliseconds, so nodes crash,
// recover and join inside TDMA slots, which no registered scenario does.
var goldenCorpus = []struct {
	profile string
	seeds   []uint64
}{
	{"default", []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 17, 19, 27, 40, 51, 58}},
	{"multihop", []uint64{1, 2, 3, 4, 5, 6, 7, 8, 10}},
}

// corpusDigest runs spec s at seed under the full checker set and returns
// a SHA-256 over its event stream, sorted metric map and violations.
func corpusDigest(t *testing.T, s Spec, seed uint64) string {
	t.Helper()
	var log *evm.EventLog
	res := runSpec(s, seed, evm.Runner{
		Checkers: Checkers,
		Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			log = exp.Events().Log()
			return nil
		},
	})
	if res.Err != nil {
		t.Fatalf("%s seed %d: %v", s.Name, seed, res.Err)
	}
	defer log.Close()
	h := sha256.New()
	fmt.Fprintln(h, "events")
	for _, line := range log.Strings() {
		fmt.Fprintln(h, line)
	}
	fmt.Fprintln(h, "metrics")
	for _, k := range sim.SortedKeys(res.Metrics) {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(res.Metrics[k], 'g', -1, 64))
	}
	fmt.Fprintln(h, "violations")
	for _, v := range res.Violations {
		fmt.Fprintln(h, v.String())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestFaultCorpusGolden pins the observable behaviour of a fixed set of
// generated fault specs, at run seeds 1 and 2, against digests checked in
// under testdata. Regenerate, only for an intended behaviour change, with
//
//	go test -run TestFaultCorpusGolden -update-golden ./fuzz
func TestFaultCorpusGolden(t *testing.T) {
	profiles := map[string]Profile{"default": DefaultProfile(), "multihop": MultihopProfile()}
	var lines []string
	for _, c := range goldenCorpus {
		for _, gen := range c.seeds {
			s := GenerateWith(gen, profiles[c.profile])
			for _, seed := range []uint64{1, 2} {
				lines = append(lines, fmt.Sprintf("%s gen=%d seed=%d %s", c.profile, gen, seed, corpusDigest(t, s, seed)))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(corpusGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(corpusGoldenPath)
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
