package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"evm"
)

// TestSummaryNamesTheFaultsFailover: the summary's "fail-over at" is the
// LTS task's first fail-over at or after the fault, as the run's own log
// lines show it, and every fail-over logged before the fault is listed as
// a pre-fault one. At PER 0.3, seed 2, two loops fail over before the
// fault at 30 s (chiller-temp at 10.5 s, then lts-level), and no
// lts-level fail-over follows the fault within the horizon.
func TestSummaryNamesTheFaultsFailover(t *testing.T) {
	for _, c := range []struct {
		args     []string
		prefault bool // the input exists to show pre-fault fail-overs
	}{
		{[]string{"-per", "0.3", "-seed", "2", "-fault", "30s", "-horizon", "60s", "-window", "8"}, true},
		{[]string{"-fault", "30s", "-horizon", "60s", "-window", "8"}, false},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out strings.Builder
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			log, summary, ok := strings.Cut(out.String(), "--- summary ---\n")
			if !ok {
				t.Fatalf("no summary in:\n%s", out.String())
			}
			const faultAt = 30 * time.Second
			var (
				prefault []string
				found    bool
			)
			want := fmt.Sprintf("fail-over          %s did not fail over at or after the fault", evm.LTSTaskID)
			for _, line := range strings.Split(log, "\n") {
				stamp, rest, ok := strings.Cut(strings.TrimPrefix(line, "["), "] failover: ")
				if !ok {
					continue
				}
				at, err := time.ParseDuration(strings.TrimSpace(stamp))
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				f := strings.Fields(rest) // task, from, "->", to
				switch {
				case at < faultAt:
					prefault = append(prefault, fmt.Sprintf("pre-fault          %s %s -> %s at %v (false fail-over)", f[0], f[1], f[3], at))
				case f[0] == evm.LTSTaskID && !found:
					found = true
					want = fmt.Sprintf("fail-over at       %v (detection+arbitration %v)", at, at-faultAt)
				}
			}
			if c.prefault && len(prefault) == 0 {
				t.Fatal("no fail-over before the fault: this input no longer shows the pre-fault case")
			}
			for _, line := range append(prefault, want) {
				if !strings.Contains(summary, line+"\n") {
					t.Errorf("summary lacks %q:\n%s", line, summary)
				}
			}
			if n := strings.Count(summary, "pre-fault "); n != len(prefault) {
				t.Errorf("summary lists %d pre-fault fail-overs, the log %d:\n%s", n, len(prefault), summary)
			}
		})
	}
}

// TestFaultHitsTheMasterWhenItFires: the fault goes to the node that is
// the LTS loop's master at the fault time, not to Ctrl-A. At PER 0.3,
// seed 2, a false fail-over moves lts-level from Ctrl-A (2) to Ctrl-B
// (3) at 11.27 s, so the fault at 30 s must hit node 3, for the compute
// fault and for -crash alike.
func TestFaultHitsTheMasterWhenItFires(t *testing.T) {
	for _, args := range [][]string{
		{"-per", "0.3", "-seed", "2", "-fault", "30s", "-horizon", "40s", "-window", "8"},
		{"-crash", "-per", "0.3", "-seed", "2", "-fault", "30s", "-horizon", "40s", "-window", "8"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			master, faulted, moved := evm.GasCtrlAID.String(), "", false
			for _, line := range strings.Split(out.String(), "\n") {
				if _, rest, ok := strings.Cut(line, "] failover: "+evm.LTSTaskID+" "); ok {
					f := strings.Fields(rest) // from, "->", to
					master, moved = f[2], true
				}
				if _, rest, ok := strings.Cut(line, "] fault injected: "); ok {
					f := strings.Fields(rest) // kind, "node", node
					faulted = f[2]
					break
				}
			}
			if !moved {
				t.Fatalf("lts-level did not fail over before the fault: this input no longer shows a moved master\n%s", out.String())
			}
			if faulted != master {
				t.Errorf("fault hit %s, the lts-level master at the fault is %s\n%s", faulted, master, out.String())
			}
		})
	}
}
