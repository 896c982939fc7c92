package paperexp

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"evm"
	"evm/internal/sim"
)

// BenchmarkPaper sweeps every table entry's parameter points over their
// seed grids; one op is one sweep, and each metric is reported as its
// P50 over the grid, so the figures do not depend on -benchtime.
func BenchmarkPaper(b *testing.B) {
	for _, e := range Table() {
		for _, p := range e.Params {
			b.Run(e.Name+"/"+p.Label, func(b *testing.B) {
				var sum map[string]evm.MetricSummary
				for i := 0; i < b.N; i++ {
					var err error
					if sum, err = e.Sweep(p); err != nil {
						b.Fatal(err)
					}
				}
				for _, k := range sim.SortedKeys(sum) {
					b.ReportMetric(sum[k].P50, k)
				}
			})
		}
	}
}

// TestTableNames pins the -exp names evmbench has always accepted.
func TestTableNames(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Table() {
		if seen[e.Name] {
			t.Errorf("duplicate entry %q", e.Name)
		}
		seen[e.Name] = true
		if len(e.Params) == 0 || len(e.Seeds) == 0 || e.Run == nil {
			t.Errorf("%s: needs params, seeds and a run function", e.Name)
		}
	}
	for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
		"fed", "policy", "pipe", "sever", "ota"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("entry %q missing", name)
		}
	}
}

// TestTableDeterministic runs every entry at each parameter point and
// its first seed twice: the metric maps must be equal, non-empty, and
// keyed by valid b.ReportMetric units.
func TestTableDeterministic(t *testing.T) {
	for _, e := range Table() {
		for _, p := range e.Params {
			seed := e.Seeds[0]
			first, err := e.Run(p, seed)
			if err != nil {
				t.Fatalf("%s %s seed %d: %v", e.Name, p.Label, seed, err)
			}
			again, err := e.Run(p, seed)
			if err != nil {
				t.Fatalf("%s %s seed %d, second run: %v", e.Name, p.Label, seed, err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s %s seed %d: metrics differ between runs:\n%v\n%v", e.Name, p.Label, seed, first, again)
			}
			if len(first) == 0 {
				t.Errorf("%s %s seed %d: no metrics", e.Name, p.Label, seed)
			}
			for k := range first {
				if k == "" || strings.ContainsFunc(k, unicode.IsSpace) {
					t.Errorf("%s %s: metric %q is not a valid benchmark unit", e.Name, p.Label, k)
				}
			}
		}
	}
}

// TestDegradationStaticBindingLosesTask pins e8's comparison: once its
// nodes are stopped (static binding, no watchdog), one crashed primary
// leaves the task uncovered, while the EVM fails over and keeps it.
func TestDegradationStaticBindingLosesTask(t *testing.T) {
	e, _ := Lookup("e8")
	for _, seed := range e.Seeds {
		got, err := e.Run(Param{"failures=1", 1}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got["coverage_static"] != 0 || got["coverage_evm"] != 1 {
			t.Errorf("seed %d: coverage_static %v, coverage_evm %v; want 0 and 1",
				seed, got["coverage_static"], got["coverage_evm"])
		}
	}
}

// Allocation caps for paper runs at their first seed, set just above the
// measured counts as the root package's hotPathAllocBudget is. A warm
// gas plant allocates nothing per control cycle, so E1 (1000 s of
// Fig. 6, every parameter point) measures 338, and 351 under -race;
// E2's PER 0.1 point, the lossy path, measures 355 (368 under -race).
// ota (three 30 s rollouts plus the bad-capsule rollback) measures
// 6,807, and about 7,218 under -race; it counts the three event kinds it
// reports with a subscriber instead of logging the whole campus stream,
// a warm campus allocates nothing per actuation or feed tick, staging a
// capsule builds no interpreter, an interpreter builds its stacks and
// memory only when a law uses them, and each cell's watchdogs share one
// ticker.
const (
	fig6AllocBudget    = 392
	e2LossyAllocBudget = 412
	otaAllocBudget     = 7_420
)

func TestPaperAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name  string
		point string // the one parameter point to run; "" runs them all
		cap   float64
	}{
		{"e1", "", fig6AllocBudget},
		{"e2", "per=0.1", e2LossyAllocBudget},
		{"ota", "", otaAllocBudget},
	} {
		e, _ := Lookup(c.name)
		ran := 0
		got := testing.AllocsPerRun(1, func() {
			for _, p := range e.Params {
				if c.point != "" && p.Label != c.point {
					continue
				}
				ran++
				if _, err := e.Run(p, e.Seeds[0]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if ran == 0 {
			t.Fatalf("%s has no parameter point %q", c.name, c.point)
		}
		t.Logf("%s %s: %.0f allocs per run (budget %.0f)", c.name, c.point, got, c.cap)
		if got > c.cap {
			t.Errorf("%s %s made %.0f allocations, budget %.0f", c.name, c.point, got, c.cap)
		}
	}
}
