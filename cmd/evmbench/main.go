// Command evmbench runs the paper's experiments (the table in
// internal/paperexp; README "Paper experiments") and prints, per
// parameter point and metric, the P50 and [min, max] over the entry's
// seed grid. Run all experiments or select one:
//
//	evmbench            # everything, then the grid sweep
//	evmbench -exp e3    # only the MAC lifetime comparison
//	evmbench -exp grid  # the parallel Runner sweep over the scenario table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"evm"
	"evm/internal/paperexp"
	"evm/internal/sim"
)

// eventDir is the -events flag: per-run telemetry CSVs for the grid.
var eventDir string

func main() {
	exp := flag.String("exp", "all", "experiment to run (a table entry such as e1..e10, fed, policy, pipe, sever, ota; grid; or all)")
	flag.StringVar(&eventDir, "events", "", "directory for per-run telemetry sample CSVs from the grid sweep (empty = off)")
	flag.Parse()
	switch *exp {
	case "all":
		for _, e := range paperexp.Table() {
			if err := render(e); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
		if err := gridSweep(); err != nil {
			log.Fatal(err)
		}
	case "grid":
		if err := gridSweep(); err != nil {
			log.Fatal(err)
		}
	default:
		e, ok := paperexp.Lookup(*exp)
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		if err := render(e); err != nil {
			log.Fatal(err)
		}
	}
}

// render sweeps every parameter point of e over its seed grid and prints
// one row per metric: the runs that reported it, P50 and [min, max].
func render(e paperexp.Experiment) error {
	fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
	fmt.Printf("  seeds %d..%d\n", e.Seeds[0], e.Seeds[len(e.Seeds)-1])
	fmt.Printf("  %-20s  %-20s  %5s  %10s  %s\n", "param", "metric", "runs", "P50", "[min, max]")
	for _, p := range e.Params {
		sum, err := e.Sweep(p)
		if err != nil {
			return err
		}
		for _, k := range sim.SortedKeys(sum) {
			m := sum[k]
			fmt.Printf("  %-20s  %-20s  %2d/%-2d  %10.5g  [%.5g, %.5g]\n",
				p.Label, k, m.N, len(e.Seeds), m.P50, m.Min, m.Max)
		}
	}
	return nil
}

// gridSweep exercises the scenario table and the parallel Runner: a
// scenario x seed x fault-plan grid fans out across worker goroutines and
// the per-run metrics are aggregated per scenario (the ROADMAP's
// "hundreds of seeded runs" workflow).
func gridSweep() error {
	// One worker per core, but always enough to demonstrate the sharding
	// even on single-core hosts.
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	fmt.Printf("=== grid: scenario-table sweep on the parallel Runner (%d workers) ===\n", workers)
	crash := evm.FaultPlan{
		Name:  "crash-2",
		Steps: []evm.FaultStep{{At: 10 * time.Second, CrashNode: 2}},
	}
	scenarios := []string{
		evm.ScenarioGasPlant, evm.ScenarioEightController, evm.ScenarioCapacity,
		evm.ScenarioCampusFailover, evm.ScenarioRefinery, evm.ScenarioRefineryRing,
		evm.ScenarioRefineryRingSever, evm.ScenarioPipeline, evm.ScenarioRandomField,
		evm.ScenarioOTACampus, evm.ScenarioModeChangeLine,
	}
	specs := evm.SpecGrid(scenarios,
		[]uint64{1, 2, 3, 4},
		[]evm.FaultPlan{{}, crash},
		60*time.Second)
	if eventDir != "" {
		if err := os.MkdirAll(eventDir, 0o755); err != nil {
			return err
		}
		fmt.Printf("  per-run telemetry CSVs -> %s\n", eventDir)
	}
	start := time.Now() //evm:allow-wallclock host benchmark stopwatch around whole runs; never read inside the simulation
	results := (&evm.Runner{Workers: workers, EventDir: eventDir}).Run(specs)
	elapsed := time.Since(start) //evm:allow-wallclock host benchmark stopwatch
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("  FAILED %s: %v\n", r.Spec.Label(), r.Err)
		}
	}
	fmt.Printf("  %d runs (%d scenarios x 4 seeds x 2 plans) in %v wall, %d failed\n",
		len(specs), len(scenarios), elapsed.Round(time.Millisecond), failed)
	agg := evm.Aggregate(results)
	for _, sc := range scenarios {
		sum, ok := agg[sc]
		if !ok {
			continue
		}
		fmt.Printf("  %-18s", sc)
		keys := []string{evm.MetricFailovers, evm.MetricActuations, "coverage", "lts_level_pct", "members",
			evm.MetricInterCellMigrations, "tasks_alive"}
		shown := 0
		for _, k := range keys {
			if m, has := sum[k]; has {
				fmt.Printf("  %s mean=%.2f", k, m.Mean)
				shown++
			}
		}
		if shown == 0 {
			names := make([]string, 0, len(sum))
			for k := range sum {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Printf("  metrics: %v", names)
		}
		fmt.Println()
	}
	return nil
}
