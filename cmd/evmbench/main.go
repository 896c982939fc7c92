// Command evmbench regenerates every experiment in DESIGN.md §4 and
// prints paper-style result rows. Run all experiments or select one:
//
//	evmbench            # everything
//	evmbench -exp e3    # only the MAC lifetime comparison
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"evm"
	"evm/internal/bqp"
	"evm/internal/mac"
	"evm/internal/radio"
	"evm/internal/rtos"
	"evm/internal/sim"
	"evm/internal/trace"
	"evm/internal/vm"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (e1..e10, fed, policy, pipe, sever, ota, grid or all)")
	trend := flag.String("trend", "", "directory holding BENCH_pr*.json artifacts; print the cross-PR benchmark trend table and exit")
	flag.StringVar(&eventDir, "events", "", "directory for per-run telemetry sample CSVs from the grid sweep (empty = off)")
	flag.Parse()
	if *trend != "" {
		if err := trendTable(*trend); err != nil {
			log.Fatal(err)
		}
		return
	}
	experiments := map[string]func() error{
		"e1": e1Fig6, "e2": e2Failover, "e3": e3MACLifetime, "e4": e4SyncJitter,
		"e5": e5ControlCycle, "e6": e6Migration, "e7": e7BQP, "e8": e8Degradation,
		"e9": e9Admission, "e10": e10Attestation, "fed": fedCampus,
		"policy": policyCompare, "pipe": pipeLine, "sever": severDemo, "ota": otaRollouts, "grid": gridSweep,
	}
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "fed", "policy", "pipe", "sever", "ota", "grid"}
	if *exp != "all" {
		fn, ok := experiments[*exp]
		if !ok {
			log.Fatalf("unknown experiment %q", *exp)
		}
		if err := fn(); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, name := range order {
		if err := experiments[name](); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println()
	}
}

func header(id, title string) {
	fmt.Printf("=== %s: %s ===\n", id, title)
}

// e1Fig6 reruns the Fig. 6(b) timeline at the paper's own pacing.
func e1Fig6() error {
	header("E1 / Fig. 6(b)", "LTS fail-over timeline (fault 300s, paper switch ~600s)")
	cfg := evm.DefaultGasPlantConfig()
	cfg.DeviationWindow = 1200 // ~300 s deliberation as in the paper's plot
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return err
	}
	res, err := s.RunFig6(300*time.Second, 1000*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("T1 fault injected      %8.0fs   (paper: 300s)\n", res.FaultAt.Seconds())
	fmt.Printf("T2 backup activated    %8.0fs   (paper: ~600s)\n", res.FailoverAt.Seconds())
	fmt.Printf("LTS level before/min/end   %.1f / %.1f / %.1f %%\n",
		res.LevelBefore, res.LevelMin, res.LevelEnd)
	fmt.Printf("tower feed nominal/peak    %.1f / %.1f kmol/h\n", res.FlowNominal, res.FlowPeak)
	fmt.Printf("active controller          %v (was %v)\n", s.ActiveController(), evm.GasCtrlAID)
	return nil
}

// e2Failover sweeps packet loss and measures fail-over latency.
func e2Failover() error {
	header("E2", "fail-over latency vs packet loss (10 trials each)")
	fmt.Println("  PER   mean-latency   success   false-positives")
	for _, per := range []float64{0, 0.1, 0.2, 0.3} {
		var total time.Duration
		ok, falsePos := 0, 0
		const trials = 10
		for i := 0; i < trials; i++ {
			cfg := evm.DefaultGasPlantConfig()
			cfg.Seed = uint64(i + 1)
			cfg.PER = per
			cfg.DeviationWindow = 8
			s, err := evm.NewGasPlant(cfg)
			if err != nil {
				return err
			}
			var failAt time.Duration
			s.Cell.Events().Subscribe(func(ev evm.Event) {
				if _, isFO := ev.(evm.FailoverEvent); isFO && failAt == 0 {
					failAt = ev.When()
				}
			})
			s.Run(30 * time.Second)
			if failAt > 0 {
				falsePos++
				continue
			}
			faultAt := s.Cell.Now()
			s.InjectPrimaryFault()
			s.Run(120 * time.Second)
			if failAt > 0 {
				total += failAt - faultAt
				ok++
			}
		}
		mean := time.Duration(0)
		if ok > 0 {
			mean = total / time.Duration(ok)
		}
		fmt.Printf("  %.1f   %12v   %d/%d       %d\n", per, mean.Round(time.Millisecond), ok, trials-falsePos, falsePos)
	}
	return nil
}

// e3MACLifetime prints the RT-Link vs B-MAC vs S-MAC lifetime table.
func e3MACLifetime() error {
	header("E3", "battery lifetime vs duty cycle (years; paper: RT-Link ~1.8y @5%)")
	p := mac.DefaultParams()
	p.EventRateHz = 0.1
	fmt.Println("  duty   RT-Link   B-MAC   S-MAC")
	for _, d := range []float64{0.01, 0.02, 0.05, 0.10, 0.25} {
		rtCfg, err := mac.RTLinkForDutyCycle(d)
		if err != nil {
			return err
		}
		rt, err := mac.RTLink(p, rtCfg)
		if err != nil {
			return err
		}
		bCfg, err := mac.BMACForDutyCycle(d)
		if err != nil {
			return err
		}
		bm, err := mac.BMAC(p, bCfg)
		if err != nil {
			return err
		}
		sCfg, err := mac.SMACForDutyCycle(d)
		if err != nil {
			return err
		}
		sm, err := mac.SMAC(p, sCfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %4.0f%%  %7.2f  %6.2f  %6.2f\n",
			d*100, rt.Lifetime.Hours()/8760, bm.Lifetime.Hours()/8760, sm.Lifetime.Hours()/8760)
	}
	return nil
}

// e4SyncJitter measures the AM-carrier synchronization jitter.
func e4SyncJitter() error {
	header("E4", "AM time-sync jitter (paper: sub-150us)")
	eng := sim.New()
	med := radio.NewMedium(eng, sim.NewRNG(1), radio.DefaultConfig())
	for i := 1; i <= 10; i++ {
		if _, err := med.Attach(radio.NodeID(i), radio.Position{X: float64(i)}, nil, radio.DefaultEnergyModel()); err != nil {
			return err
		}
	}
	var us []float64
	for k := 0; k < 10_000; k++ {
		for _, j := range med.BroadcastSync() {
			us = append(us, float64(j.Microseconds()))
		}
	}
	st := trace.Summarize(us)
	fmt.Printf("  pulses %d: mean %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus\n",
		st.N, st.Mean, st.P95, st.P99, st.Max)
	return nil
}

// e5ControlCycle measures actuation latency vs the 250ms cycle.
func e5ControlCycle() error {
	header("E5", "control cycle latency (paper objective: <=1/3 of a <=250ms cycle)")
	s, err := evm.NewGasPlant(evm.DefaultGasPlantConfig())
	if err != nil {
		return err
	}
	s.Run(120 * time.Second)
	lats := s.ActuationLatencies()
	st := trace.DurationStats(lats)
	cycle := 250 * time.Millisecond
	fmt.Printf("  actuations %d: mean %v  p99 %v  max %v (%.1f%% of cycle)\n",
		st.N,
		time.Duration(st.Mean).Round(time.Microsecond),
		time.Duration(st.P99).Round(time.Microsecond),
		time.Duration(st.Max).Round(time.Microsecond),
		100*st.Max/float64(cycle))
	return nil
}

// e6Migration measures task-migration time vs state size.
func e6Migration() error {
	header("E6", "task migration cost vs state size (TDMA frames)")
	fmt.Println("  state    time      frames")
	for _, size := range []int{64, 512, 2048, 8192} {
		d, err := migrateOnce(size)
		if err != nil {
			return err
		}
		frames := d.Seconds() / 0.25
		fmt.Printf("  %5dB   %8v  %6.1f\n", size, d.Round(time.Millisecond), frames)
	}
	return nil
}

type blobLogic struct{ state []byte }

func (l *blobLogic) Step(input, dt float64) (float64, error) { return input, nil }
func (l *blobLogic) Snapshot() ([]byte, error)               { return l.state, nil }
func (l *blobLogic) Restore(b []byte) error {
	l.state = append([]byte(nil), b...)
	return nil
}

func migrateOnce(size int) (time.Duration, error) {
	cell, err := evm.NewCellWith(evm.CellConfig{Seed: 1},
		evm.WithNodes(1, 2, 3, 4), evm.WithPER(0))
	if err != nil {
		return 0, err
	}
	vc := evm.VCConfig{
		Name: "mig", Head: 4, Gateway: 1,
		Tasks: []evm.TaskSpec{{
			ID: "t", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []evm.NodeID{2},
			DeviationTol: 1, DeviationWindow: 3, SilenceWindow: 8,
			MakeLogic: func() (evm.TaskLogic, error) {
				return &blobLogic{state: make([]byte, size)}, nil
			},
		}},
	}
	if err := cell.Deploy(vc); err != nil {
		return 0, err
	}
	cell.Run(time.Second)
	start := cell.Now()
	var done time.Duration
	cell.Events().Subscribe(func(ev evm.Event) {
		if _, isMig := ev.(evm.MigrationEvent); isMig && done == 0 {
			done = ev.When()
		}
	})
	if err := cell.Node(2).MigrateTask("t", 3); err != nil {
		return 0, err
	}
	cell.Run(300 * time.Second)
	if done == 0 {
		return 0, fmt.Errorf("migration of %dB never completed", size)
	}
	return done - start, nil
}

// e7BQP compares assignment solvers.
func e7BQP() error {
	header("E7", "runtime task-assignment optimization (BQP anneal vs greedy vs optimal)")
	rng := sim.NewRNG(17)
	fmt.Println("  size      anneal/opt  greedy/opt")
	var annGap, greedyGap float64
	n := 0
	for i := 0; i < 25; i++ {
		p := randomProblem(rng, 5, 3)
		opt, err := bqp.SolveExhaustive(p)
		if err != nil {
			return err
		}
		g, err := bqp.SolveGreedy(p)
		if err != nil {
			return err
		}
		a, err := bqp.SolveAnneal(p, rng.Fork(), 20_000)
		if err != nil {
			return err
		}
		if opt.Cost > 0 {
			annGap += a.Cost / opt.Cost
			greedyGap += g.Cost / opt.Cost
			n++
		}
	}
	fmt.Printf("  5tx3n     %9.3f  %9.3f   (25 random instances)\n",
		annGap/float64(n), greedyGap/float64(n))
	return nil
}

func randomProblem(rng *sim.RNG, tasks, nodes int) *bqp.Problem {
	p := &bqp.Problem{
		Cost: make([][]float64, tasks),
		Pair: make([][]float64, tasks),
		Util: make([]float64, tasks),
		Cap:  make([]float64, nodes),
	}
	for t := 0; t < tasks; t++ {
		p.Cost[t] = make([]float64, nodes)
		p.Pair[t] = make([]float64, tasks)
		for nn := 0; nn < nodes; nn++ {
			p.Cost[t][nn] = rng.Float64() * 10
		}
		p.Util[t] = 0.05 + rng.Float64()*0.1
	}
	for nn := 0; nn < nodes; nn++ {
		p.Cap[nn] = 1
	}
	return p
}

// e8Degradation compares coverage with and without EVM reorganization.
func e8Degradation() error {
	header("E8", "graceful degradation: task coverage vs failed nodes")
	fmt.Println("  failures   EVM   static")
	for _, kills := range []int{0, 1, 2, 3} {
		withEVM, err := coverageAfterKills(kills, true)
		if err != nil {
			return err
		}
		static, err := coverageAfterKills(kills, false)
		if err != nil {
			return err
		}
		fmt.Printf("  %8d   %.2f  %.2f\n", kills, withEVM, static)
	}
	return nil
}

func coverageAfterKills(kills int, reorganize bool) (float64, error) {
	cell, err := evm.NewCellWith(evm.CellConfig{Seed: 1},
		evm.WithNodeCount(6), evm.WithPER(0))
	if err != nil {
		return 0, err
	}
	vc := evm.VCConfig{
		Name: "deg", Head: 6, Gateway: 1,
		Tasks: []evm.TaskSpec{{
			ID: "t", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []evm.NodeID{2, 3, 4, 5},
			DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
			MakeLogic: func() (evm.TaskLogic, error) {
				return evm.NewPIDLogic(evm.PIDParams{Kp: 1, Ki: 0.1, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		}},
	}
	if err := cell.Deploy(vc); err != nil {
		return 0, err
	}
	feed, err := cell.StartSensorFeed(1, 250*time.Millisecond, func() []evm.SensorReading {
		return []evm.SensorReading{{Port: 0, Value: 50}}
	})
	if err != nil {
		return 0, err
	}
	defer feed.Stop()
	cell.Run(5 * time.Second)
	if !reorganize {
		for _, n := range cell.Nodes() {
			n.Stop()
		}
	}
	// The kill sequence is a declarative plan: one crash every 10 s.
	steps := make([]evm.FaultStep, 0, kills)
	for k := 0; k < kills; k++ {
		steps = append(steps, evm.FaultStep{
			At:        time.Duration(k) * 10 * time.Second,
			CrashNode: evm.NodeID(2 + k),
		})
	}
	if err := cell.ApplyFaultPlan(evm.FaultPlan{Name: "sequential-kills", Steps: steps}); err != nil {
		return 0, err
	}
	cell.Run(time.Duration(kills) * 10 * time.Second)
	return evm.EvaluateQoS(vc, cell.Nodes()).CoverageRatio, nil
}

// e9Admission sweeps offered utilization against both admission tests.
func e9Admission() error {
	header("E9", "schedulability-gated admission (acceptance ratio, 200 sets each)")
	rng := sim.NewRNG(5)
	fmt.Println("  offered-U   UB     RTA")
	for _, u := range []float64{0.3, 0.5, 0.7, 0.8, 0.9, 1.0} {
		ub, rta := 0, 0
		const trials = 200
		for i := 0; i < trials; i++ {
			ts := rtos.AssignRM(randomTaskSet(rng, 5, u))
			if rtos.Schedulable(ts, rtos.TestUB) {
				ub++
			}
			if rtos.Schedulable(ts, rtos.TestRTA) {
				rta++
			}
		}
		fmt.Printf("  %9.1f   %.2f   %.2f\n", u, float64(ub)/trials, float64(rta)/trials)
	}
	return nil
}

func randomTaskSet(rng *sim.RNG, n int, targetUtil float64) rtos.TaskSet {
	ts := make(rtos.TaskSet, 0, n)
	per := targetUtil / float64(n)
	for i := 0; i < n; i++ {
		period := time.Duration(10+rng.Intn(200)) * time.Millisecond
		u := per * (0.5 + rng.Float64())
		wcet := time.Duration(float64(period) * u)
		if wcet <= 0 {
			wcet = time.Millisecond
		}
		if wcet > period {
			wcet = period
		}
		ts = append(ts, rtos.Task{ID: rtos.TaskID(fmt.Sprintf("t%d", i)), Period: period, WCET: wcet})
	}
	return ts
}

// e10Attestation measures corruption detection on migrated capsules.
func e10Attestation() error {
	header("E10", "software attestation: corruption detection on capsules")
	rng := sim.NewRNG(3)
	for _, size := range []int{64, 1024, 16384} {
		code := make([]byte, size)
		for i := range code {
			code[i] = byte(rng.Intn(256))
		}
		c := vm.Capsule{TaskID: "att", Version: 1, Code: code}
		enc, err := c.Encode()
		if err != nil {
			return err
		}
		detected := 0
		const trials = 2000
		for i := 0; i < trials; i++ {
			bad := append([]byte(nil), enc...)
			pos := 2 + rng.Intn(len(bad)-2)
			bad[pos] ^= 1 << uint(rng.Intn(8))
			if _, err := vm.Decode(bad); err != nil {
				detected++
			}
		}
		fmt.Printf("  code %6dB: %d/%d single-bit corruptions detected\n", size, detected, trials)
	}
	return nil
}

// eventDir is the -events flag: per-run telemetry CSVs for the grid.
var eventDir string

// fedCampus demonstrates the federation subsystem: the two-cell
// campus-failover scenario (one cell dies wholesale, its loop resumes
// across the backbone) plus a seeded refinery sweep under a whole-cell
// kill plan on the parallel Runner.
func fedCampus() error {
	header("FED", "campus federation: whole-cell outage -> backbone escalation")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	var overloadAt, migratedAt time.Duration
	var mig evm.InterCellMigrationEvent
	resumed := 0
	exp.Campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.CellOverloadEvent:
			if overloadAt == 0 {
				overloadAt = e.At
			}
		case evm.InterCellMigrationEvent:
			if migratedAt == 0 {
				migratedAt, mig = e.At, e
			}
		case evm.CellEvent:
			if act, ok := e.Inner.(evm.ActuationEvent); ok && act.Task == "w-loop" && e.Cell == "east" {
				resumed++
			}
		}
	})
	exp.Campus.Run(30 * time.Second)
	if migratedAt == 0 {
		return fmt.Errorf("fed: whole-cell outage produced no inter-cell migration")
	}
	fmt.Printf("  cell west killed              10s\n")
	fmt.Printf("  overload detected         %8v\n", overloadAt)
	fmt.Printf("  task resumed in peer      %8v   (%s: %s/%d -> %s/%d)\n",
		migratedAt, mig.Task, mig.FromCell, mig.From, mig.ToCell, mig.To)
	fmt.Printf("  actuations after failover %8d   (from cell east)\n", resumed)
	bb := exp.Campus.Backbone().Stats()
	fmt.Printf("  backbone sent/delivered   %5d/%d\n", bb.Sent, bb.Delivered)

	// Refinery sweep: 4 cells x 16 nodes, kill unit-a at 10s, 4 seeds.
	kill := evm.KillNodesPlan("kill-unit-a", 10*time.Second, evm.RefineryMembers()...)
	specs := make([]evm.RunSpec, 0, 4)
	for seed := uint64(1); seed <= 4; seed++ {
		specs = append(specs, evm.RunSpec{
			Scenario: evm.ScenarioRefinery, Seed: seed, Horizon: 25 * time.Second,
			Faults: kill, FaultCell: "unit-a",
		})
	}
	start := time.Now() //evm:allow-wallclock host benchmark stopwatch around whole runs; never read inside the simulation
	results := (&evm.Runner{}).Run(specs)
	elapsed := time.Since(start) //evm:allow-wallclock host benchmark stopwatch
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", r.Spec.Label(), r.Err)
		}
	}
	agg := evm.Aggregate(results)[evm.ScenarioRefinery]
	fmt.Printf("  refinery sweep: %d runs (4 cells x 16 nodes) in %v wall\n",
		len(results), elapsed.Round(time.Millisecond))
	fmt.Printf("    intercell migrations  %s\n", agg[evm.MetricInterCellMigrations])
	fmt.Printf("    tasks alive at end    %s\n", agg["tasks_alive"])
	fmt.Printf("    backbone delivered    %s\n", agg[evm.MetricBackboneDelivered])
	return nil
}

// policyCompare sweeps the three placement policies over identical
// seeds on the refinery-ring scenario: an explicit ring backbone whose
// far side is lossy, with a whole-cell outage window on unit-a
// (killed at 10s, recovered at 22s) and homeward rebalancing. The
// routing-aware campus-BQP policy keeps every escalation on clean
// one-hop links, so the outage resolves in one coordinator tick; the
// topology-blind least-loaded policy ships a task into the lossy
// two-hop path and pays extra overload ticks (and backbone drops) for
// it.
func policyCompare() error {
	header("POLICY", "placement policies on a lossy ring backbone (refinery, outage 10s-22s)")
	plan := evm.RefineryOutagePlan(10*time.Second, 22*time.Second)
	seeds := []uint64{1, 2, 3, 4}
	fmt.Println("  policy         overloads  migrations  rebalances  bb-drops  foreign-end  home-end")
	type row struct {
		policy    string
		overloads float64
	}
	var rows []row
	for _, pol := range []string{evm.PolicyLeastLoaded, evm.PolicyCampusBQP, evm.PolicyAffinity} {
		specs := make([]evm.RunSpec, 0, len(seeds))
		for _, seed := range seeds {
			specs = append(specs, evm.RunSpec{
				Scenario: evm.ScenarioRefineryRing, Seed: seed, Horizon: 35 * time.Second,
				Faults: plan, FaultCell: "unit-a", Policy: pol,
			})
		}
		results := (&evm.Runner{}).Run(specs)
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.Spec.Label(), r.Err)
			}
			if r.Policy != pol {
				return fmt.Errorf("%s: builder resolved policy %q, want %q", r.Spec.Label(), r.Policy, pol)
			}
		}
		agg := evm.Aggregate(results)[evm.ScenarioRefineryRing]
		fmt.Printf("  %-13s  %9.2f  %10.2f  %10.2f  %8.2f  %11.2f  %8.2f\n",
			results[0].Policy,
			agg[evm.MetricCellOverloads].Mean,
			agg[evm.MetricInterCellMigrations].Mean,
			agg[evm.MetricRebalances].Mean,
			agg[evm.MetricBackboneDropped].Mean,
			agg["tasks_foreign"].Mean,
			agg["tasks_home"].Mean)
		rows = append(rows, row{policy: pol, overloads: agg[evm.MetricCellOverloads].Mean})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].overloads < rows[j].overloads })
	fmt.Printf("  fewest overload ticks: %s (same seeds, same faults — only the policy differs)\n",
		rows[0].policy)
	return nil
}

// pipeLine demonstrates the multi-hop line cell: sensor snapshots relay
// down the line, actuations relay back, and a far-end primary crash
// fails over across the line without losing the actuation path.
func pipeLine() error {
	header("PIPE", "multi-hop pipeline line cell (BuildLineSchedule + static line routes)")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioPipeline, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	log := exp.Cell.Events().Log()
	exp.Cell.Run(10 * time.Second)
	isAct := func(ev evm.Event) bool { _, ok := ev.(evm.ActuationEvent); return ok }
	pre := log.Count(isAct)
	if err := exp.Cell.ApplyFaultPlan(evm.PipelinePrimaryCrashPlan(0)); err != nil {
		return err
	}
	exp.Cell.Run(20 * time.Second)
	post := log.Count(isAct) - pre
	m := exp.Metrics()
	fmt.Printf("  actuations at gateway   %4d before crash, %d after (relayed hop by hop)\n", pre, post)
	fmt.Printf("  fail-over across line   primary %d -> active %v\n", evm.PipePrimary, m["active_controller"])
	fmt.Printf("  fragments relayed       %6.0f\n", m["relayed_frags"])
	fmt.Printf("  mean line duty cycle    %6.3f (mesh equivalent: %.3f)\n",
		m["line_duty"], float64(1+3+3*4)/50.0) // sync + 3 own + 12 listen slots
	return nil
}

// severDemo runs the link-dynamics acceptance scenario: the refinery
// ring loses unit-a at 10s and its d-a link at 12s; the recovered
// unit-a takes its loops back through the prepare/commit handshake, with
// unit-d's traffic forced the long way round. The invariant harness
// replays the stream and must find nothing.
func severDemo() error {
	header("SEVER", "ring sever + prepare/commit rebalance (outage 10s-22s, d-a link down 12s-30s)")
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioRefineryRingSever, Seed: 1})
	if err != nil {
		return err
	}
	defer exp.Cleanup()
	log2 := exp.Campus.Events().Log()
	exp.Campus.Run(40 * time.Second)
	rebalances, longWay := 0, 0
	var firstLong []string
	for _, ev := range log2.Events() {
		switch e := ev.(type) {
		case evm.InterCellMigrationEvent:
			if e.Rebalance {
				rebalances++
			}
		case evm.BackboneRouteEvent:
			if len(e.Path) == 4 {
				longWay++
				if firstLong == nil {
					firstLong = e.Path
				}
			}
		}
	}
	violations := evm.CheckEvents(log2.Events(), evm.DefaultInvariants()...)
	bb := exp.Campus.Backbone().Stats()
	fmt.Printf("  rebalanced home            %5d loops (prepare/commit handshake)\n", rebalances)
	fmt.Printf("  long-way transfers         %5d (e.g. %v)\n", longWay, firstLong)
	fmt.Printf("  backbone sent/delivered    %5d/%d (dropped %d)\n", bb.Sent, bb.Delivered, bb.Dropped)
	fmt.Printf("  invariant violations       %5d (single-master, demoted-silence, route-monotonicity)\n",
		len(violations))
	for _, v := range violations {
		fmt.Printf("    %s\n", v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("sever: %d invariant violations", len(violations))
	}
	return nil
}

// otaRollouts compares the three rollout strategies on identical seeds:
// the ota-campus federation upgrades every loop from capsule v1 to v2
// over the lossy ring backbone, and the staging strategy decides how the
// campus trades upgrade latency against blast radius. A second pass
// seeds a bad capsule (attests cleanly, never actuates) and shows the
// health window tripping an automatic rollback.
func otaRollouts() error {
	header("OTA", "staged capsule rollouts: strategy comparison + bad-capsule rollback")
	fmt.Println("  strategy      stages  deliveries  completed-at  bb sent/delivered  rollbacks")
	for _, strategy := range []string{evm.RolloutCanaryCell, evm.RolloutCellByCell, evm.RolloutAllAtOnce} {
		campus, err := evm.NewOTACampus(1)
		if err != nil {
			return err
		}
		log := campus.Events().Log()
		var rollout *evm.Rollout
		campus.Engine().After(evm.OTARolloutAt, func() {
			rollout, err = campus.StartRollout(evm.OTACampusRolloutSpec(strategy))
		})
		campus.Run(30 * time.Second)
		if err != nil {
			campus.Stop()
			return err
		}
		deliveries, rollbacks := 0, 0
		var completedAt time.Duration
		for _, ev := range log.Events() {
			switch e := ev.(type) {
			case evm.CapsuleDeliveryEvent:
				deliveries++
			case evm.RollbackEvent:
				rollbacks++
			case evm.RolloutEvent:
				if e.Phase == evm.RolloutPhaseComplete {
					completedAt = e.At
				}
			}
		}
		bb := campus.Backbone().Stats()
		fmt.Printf("  %-12s  %6d  %10d  %12v  %9d/%d  %9d\n",
			strategy, len(rollout.Stages()), deliveries, completedAt,
			bb.Sent, bb.Delivered, rollbacks)
		if rollout.State() != evm.RolloutComplete {
			campus.Stop()
			return fmt.Errorf("ota: %s rollout ended %s (%s)", strategy, rollout.State(), rollout.Reason())
		}
		campus.Stop()
	}

	campus, err := evm.NewOTACampus(1)
	if err != nil {
		return err
	}
	defer campus.Stop()
	log := campus.Events().Log()
	campus.Run(5 * time.Second)
	bad, err := evm.OTABadCapsule("a-press-0", 3)
	if err != nil {
		return err
	}
	if err := campus.Capsules().Register(bad); err != nil {
		return err
	}
	rollout, err := campus.StartRollout(evm.RolloutSpec{
		Tasks:          []string{"a-press-0"},
		Version:        3,
		Strategy:       evm.RolloutAllAtOnce,
		HealthWindow:   1500 * time.Millisecond,
		ActuationBound: time.Second,
	})
	if err != nil {
		return err
	}
	campus.Run(10 * time.Second)
	for _, ev := range log.Events() {
		if rb, ok := ev.(evm.RollbackEvent); ok {
			fmt.Printf("  bad capsule:  v%d rolled back to v%d at %v (%s, cells %v)\n",
				rb.FromVersion, rb.ToVersion, rb.At, rb.Reason, rb.Cells)
		}
	}
	if rollout.State() != evm.RolloutRolledBack {
		return fmt.Errorf("ota: bad capsule ended %s, want rolled-back", rollout.State())
	}
	return nil
}

// trendRow is one benchmark row of a BENCH_pr*.json artifact. The fixed
// columns decode into fields; every other numeric key — the custom units
// benchmarks report via b.ReportMetric, such as the span-derived latency
// percentiles (failover_p95_ms, handshake_p99_ms, ...) — lands in Extra
// so trendTable can chart them across PRs without a schema change per
// metric.
type trendRow struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
	Extra       map[string]float64
}

func (r *trendRow) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for k, v := range m {
		switch k {
		case "name":
			if err := json.Unmarshal(v, &r.Name); err != nil {
				return err
			}
		case "ns_per_op":
			if err := json.Unmarshal(v, &r.NsPerOp); err != nil {
				return err
			}
		case "allocs/op":
			if err := json.Unmarshal(v, &r.AllocsPerOp); err != nil {
				return err
			}
		case "B/op":
			if err := json.Unmarshal(v, &r.BytesPerOp); err != nil {
				return err
			}
		case "iters":
			// run count, not a metric
		default:
			var f float64
			if json.Unmarshal(v, &f) == nil {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[k] = f
			}
		}
	}
	return nil
}

// trendTable reads every BENCH_pr*.json artifact in dir and prints one
// row per benchmark with its ns/op across PRs — the cross-PR performance
// trend (CI emits one artifact per PR; collect them into a directory and
// run `evmbench -trend <dir>`). Artifacts recorded with -benchmem carry
// allocation counts too; when any artifact has them, a second table with
// allocs/op columns follows the timing table. Benchmarks that report
// custom metrics (span-derived latency percentiles and friends) get a
// third table with one row per benchmark/metric pair.
func trendTable(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "BENCH_pr*.json"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no BENCH_pr*.json artifacts in %s", dir)
	}
	type benchRow = trendRow
	type artifact struct {
		PR         int        `json:"pr"`
		Benchmarks []benchRow `json:"benchmarks"`
	}
	perPR := make(map[int]map[string]benchRow)
	names := make(map[string]bool)
	var prs []int
	haveAllocs := make(map[int]bool)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var a artifact
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if _, dup := perPR[a.PR]; dup {
			return fmt.Errorf("duplicate artifact for PR %d", a.PR)
		}
		rows := make(map[string]benchRow, len(a.Benchmarks))
		for _, bm := range a.Benchmarks {
			rows[bm.Name] = bm
			names[bm.Name] = true
			if bm.AllocsPerOp > 0 || bm.BytesPerOp > 0 {
				haveAllocs[a.PR] = true
			}
		}
		perPR[a.PR] = rows
		prs = append(prs, a.PR)
	}
	sort.Ints(prs)
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Printf("%-40s", "benchmark (ms/op)")
	for _, pr := range prs {
		fmt.Printf("  %10s", fmt.Sprintf("pr%d", pr))
	}
	fmt.Println()
	for _, name := range sorted {
		fmt.Printf("%-40s", name)
		for _, pr := range prs {
			if bm, ok := perPR[pr][name]; ok {
				fmt.Printf("  %10.3f", bm.NsPerOp/1e6)
			} else {
				fmt.Printf("  %10s", "-")
			}
		}
		fmt.Println()
	}
	if len(haveAllocs) > 0 {
		// Allocation table: only PRs benchmarked with -benchmem get a column;
		// earlier artifacts predate alloc recording and stay timing-only.
		var allocPRs []int
		for _, pr := range prs {
			if haveAllocs[pr] {
				allocPRs = append(allocPRs, pr)
			}
		}
		fmt.Println()
		fmt.Printf("%-40s", "benchmark (allocs/op)")
		for _, pr := range allocPRs {
			fmt.Printf("  %10s", fmt.Sprintf("pr%d", pr))
		}
		fmt.Println()
		for _, name := range sorted {
			fmt.Printf("%-40s", name)
			for _, pr := range allocPRs {
				if bm, ok := perPR[pr][name]; ok && (bm.AllocsPerOp > 0 || bm.BytesPerOp > 0) {
					fmt.Printf("  %10.0f", bm.AllocsPerOp)
				} else {
					fmt.Printf("  %10s", "-")
				}
			}
			fmt.Println()
		}
	}
	// Custom-metric table: one row per benchmark/metric pair, covering
	// everything reported via ReportMetric — the span-derived latency
	// percentiles land here.
	type metricRow struct{ bench, key string }
	var metricRows []metricRow
	for _, name := range sorted {
		keySet := make(map[string]bool)
		for _, pr := range prs {
			if bm, ok := perPR[pr][name]; ok {
				for k := range bm.Extra {
					keySet[k] = true
				}
			}
		}
		keys := make([]string, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			metricRows = append(metricRows, metricRow{name, k})
		}
	}
	if len(metricRows) == 0 {
		return nil
	}
	fmt.Println()
	fmt.Printf("%-40s", "benchmark metric")
	for _, pr := range prs {
		fmt.Printf("  %10s", fmt.Sprintf("pr%d", pr))
	}
	fmt.Println()
	for _, row := range metricRows {
		fmt.Printf("%-40s", row.bench+" "+row.key)
		for _, pr := range prs {
			if bm, ok := perPR[pr][row.bench]; ok {
				if v, ok := bm.Extra[row.key]; ok {
					fmt.Printf("  %10.3f", v)
					continue
				}
			}
			fmt.Printf("  %10s", "-")
		}
		fmt.Println()
	}
	return nil
}

// gridSweep exercises the scenario registry and the parallel Runner: a
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
	header("GRID", fmt.Sprintf("registry sweep on the parallel Runner (%d workers)", workers))
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
