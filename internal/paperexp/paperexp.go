// Package paperexp holds the paper's experiments as one table. Each
// entry names its parameter points, a fixed seed grid and a run function
// whose metrics depend only on (param, seed); cmd/evmbench renders the
// table and BenchmarkPaper wraps it. The README's "Paper experiments"
// section lists every entry with its results.
package paperexp

import (
	"fmt"

	"evm"
)

// Param is one parameter point of an experiment. Label names the point
// in evmbench rows and sub-benchmark names; X carries its value where
// the parameter is a number. Entries whose parameter is a name (a
// placement policy, a rollout strategy) read Label.
type Param struct {
	Label string
	X     float64
}

// Experiment is one table entry.
type Experiment struct {
	Name   string // evmbench -exp name and sub-benchmark name
	Title  string
	Params []Param
	Seeds  []uint64
	// Run executes the experiment once. A metric a run cannot measure
	// (no fail-over happened, say) is left out of the map, so its
	// summary counts only the runs that reported it.
	Run func(p Param, seed uint64) (map[string]float64, error)
}

// Sweep runs p at every seed of the grid and summarizes each metric over
// the runs that reported it.
func (e Experiment) Sweep(p Param) (map[string]evm.MetricSummary, error) {
	results := make([]evm.RunResult, 0, len(e.Seeds))
	for _, seed := range e.Seeds {
		m, err := e.Run(p, seed)
		if err != nil {
			return nil, fmt.Errorf("%s %s seed %d: %w", e.Name, p.Label, seed, err)
		}
		results = append(results, evm.RunResult{Spec: evm.RunSpec{Scenario: p.Label, Seed: seed}, Metrics: m})
	}
	return evm.Aggregate(results)[p.Label], nil
}

// Table returns every paper experiment in evmbench's order.
func Table() []Experiment {
	return []Experiment{
		// E1 and E5 run on a loss-free channel, where nothing the seed
		// drives reaches the plant: every seed gives the same metrics
		// (testdata/fig6 pins seeds 1 and 2 equal), so one is enough.
		{Name: "e1", Title: "Fig. 6(b): LTS fail-over timeline (fault 300 s, paper switch ~600 s)",
			Params: []Param{{Label: "window=1200"}}, Seeds: seeds(1), Run: runFig6},
		{Name: "e2", Title: "fail-over latency vs packet loss (deviation fault at 30 s)",
			Params: []Param{{"per=0.0", 0}, {"per=0.1", 0.1}, {"per=0.2", 0.2}, {"per=0.3", 0.3}},
			Seeds:  seeds(10), Run: runFailoverVsLoss},
		{Name: "e3", Title: "battery lifetime vs duty cycle (paper: RT-Link ~1.8 y at 5%)",
			Params: []Param{{"duty=1%", 0.01}, {"duty=2%", 0.02}, {"duty=5%", 0.05}, {"duty=10%", 0.10}, {"duty=25%", 0.25}},
			Seeds:  seeds(1), Run: runMACLifetime},
		{Name: "e4", Title: "AM time-sync jitter over 10,000 pulses to 10 nodes (paper: sub-150 us)",
			Params: []Param{{Label: "nodes=10"}}, Seeds: seeds(3), Run: runSyncJitter},
		{Name: "e5", Title: "control cycle latency over 120 s (paper: <= 1/3 of a <= 250 ms cycle)",
			Params: []Param{{Label: "cycle=250ms"}}, Seeds: seeds(1), Run: runControlCycle},
		{Name: "e6", Title: "task migration cost vs state size",
			Params: []Param{{"state=64B", 64}, {"state=512B", 512}, {"state=2048B", 2048}, {"state=8192B", 8192}, {Label: ltsVMRow}},
			Seeds:  seeds(3), Run: runMigration},
		{Name: "e7", Title: "runtime task assignment, BQP anneal vs greedy (and the exhaustive optimum up to 1,000 assignments)",
			Params: []Param{{Label: "5x3"}, {Label: "4x3"}, {Label: "8x4"}, {Label: "16x8"}},
			Seeds:  seeds(25), Run: runBQP},
		{Name: "e8", Title: "graceful degradation, task coverage vs failed nodes (EVM vs static binding)",
			Params: []Param{{"failures=0", 0}, {"failures=1", 1}, {"failures=2", 2}, {"failures=3", 3}},
			Seeds:  seeds(3), Run: runDegradation},
		{Name: "e9", Title: "schedulability-gated admission, acceptance ratio over 200 task sets",
			Params: []Param{{"u=0.3", 0.3}, {"u=0.5", 0.5}, {"u=0.7", 0.7}, {"u=0.8", 0.8}, {"u=0.9", 0.9}, {"u=1.0", 1.0}},
			Seeds:  seeds(5), Run: runAdmission},
		{Name: "e10", Title: "software attestation, detection of 2,000 single-bit capsule corruptions",
			Params: []Param{{"code=64B", 64}, {"code=1024B", 1024}, {"code=16384B", 16384}},
			Seeds:  seeds(3), Run: runAttestation},
		{Name: "detect", Title: "Ablation: detection policy (output deviation vs silence watchdog)",
			Params: []Param{{Label: "byzantine-deviation"}, {Label: "crash-silence"}},
			Seeds:  seeds(5), Run: runDetectionPolicy},
		{Name: "share", Title: "Ablation: passive vs active state sharing at PER 0.3 (backup divergence)",
			Params: []Param{{"passive", 0}, {"active-every-8", 8}},
			Seeds:  seeds(3), Run: runStateSharing},
		{Name: "fed", Title: "campus federation, whole-cell outage -> backbone escalation",
			Params: []Param{{Label: evm.ScenarioCampusFailover}, {Label: "refinery-kill-unit-a"}},
			Seeds:  seeds(4), Run: runFederation},
		{Name: "policy", Title: "placement policies on a lossy ring backbone (refinery, outage 10-22 s)",
			Params: []Param{{Label: evm.PolicyLeastLoaded}, {Label: evm.PolicyCampusBQP}, {Label: evm.PolicyAffinity}},
			Seeds:  seeds(4), Run: runPolicy},
		{Name: "pipe", Title: "multi-hop pipeline line cell, far-end primary crash at 10 s",
			Params: []Param{{Label: "primary-crash"}}, Seeds: seeds(3), Run: runPipeline},
		{Name: "sever", Title: "ring sever + prepare/commit rebalance (outage 10-22 s, d-a link down 12-30 s)",
			Params: []Param{{Label: "ring-sever"}}, Seeds: seeds(3), Run: runSever},
		{Name: "ota", Title: "staged capsule rollouts by strategy, and a bad capsule's rollback",
			Params: []Param{{Label: evm.RolloutCanaryCell}, {Label: evm.RolloutCellByCell}, {Label: evm.RolloutAllAtOnce}, {Label: "bad-capsule"}},
			Seeds:  seeds(3), Run: runOTA},
	}
}

// Lookup returns the table entry with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Table() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// seeds is the grid 1..n.
func seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}
