package paperexp

import (
	"fmt"
	"math"
	"time"

	"evm"
	"evm/internal/bqp"
	"evm/internal/mac"
	"evm/internal/radio"
	"evm/internal/rtos"
	"evm/internal/sim"
	"evm/internal/vm"
	"evm/internal/wire"
)

// runFig6 reruns the Fig. 6(b) timeline at the paper's own pacing.
func runFig6(_ Param, seed uint64) (map[string]float64, error) {
	cfg := evm.DefaultGasPlantConfig()
	cfg.Seed = seed
	cfg.DeviationWindow = 1200 // ~300 s deliberation as in the paper's plot
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.RunFig6(300*time.Second, 1000*time.Second)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"fault_s":            res.FaultAt.Seconds(),
		"failover_s":         res.FailoverAt.Seconds(),
		"level_before_pct":   res.LevelBefore,
		"level_min_pct":      res.LevelMin,
		"level_end_pct":      res.LevelEnd,
		"feed_nominal_kmolh": res.FlowNominal,
		"feed_peak_kmolh":    res.FlowPeak,
		"active_controller":  float64(s.ActiveController()),
	}, nil
}

// runFailoverVsLoss is one E2 trial at PER p.X.
func runFailoverVsLoss(p Param, seed uint64) (map[string]float64, error) {
	return gasPlantFailover(seed, p.X, false)
}

// runDetectionPolicy compares a wrong-output primary, caught by the
// deviation check, with a silent crash, caught by the silence watchdog.
func runDetectionPolicy(p Param, seed uint64) (map[string]float64, error) {
	return gasPlantFailover(seed, 0, p.Label == "crash-silence")
}

// gasPlantFailover runs the gas plant for 30 s, faults its primary (a
// crash, or a wrong output) and runs 120 s more. A fail-over during the
// first 30 s is a false positive, reported as prefault_failover_s at
// the time it happened; one after the fault is reported as failover_s,
// its latency from the fault.
func gasPlantFailover(seed uint64, per float64, crash bool) (map[string]float64, error) {
	cfg := evm.DefaultGasPlantConfig()
	cfg.Seed = seed
	cfg.PER = per
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return nil, err
	}
	var failAt time.Duration
	s.Cell.Events().Subscribe(func(ev evm.Event) {
		if _, isFO := ev.(evm.FailoverEvent); isFO && failAt == 0 {
			failAt = ev.When()
		}
	})
	s.Run(30 * time.Second)
	if failAt > 0 {
		return map[string]float64{"prefault_failover_s": failAt.Seconds()}, nil
	}
	faultAt := s.Cell.Now()
	if crash {
		s.CrashPrimary()
	} else {
		s.InjectPrimaryFault()
	}
	s.Run(120 * time.Second)
	m := map[string]float64{}
	if failAt > 0 {
		m["failover_s"] = (failAt - faultAt).Seconds()
	}
	return m, nil
}

// runMACLifetime compares the analytic RT-Link, B-MAC and S-MAC
// lifetimes at duty cycle p.X; it draws nothing from the seed.
func runMACLifetime(p Param, _ uint64) (map[string]float64, error) {
	params := mac.DefaultParams()
	params.EventRateHz = 0.1
	rtCfg, err := mac.RTLinkForDutyCycle(p.X)
	if err != nil {
		return nil, err
	}
	rt, err := mac.RTLink(params, rtCfg)
	if err != nil {
		return nil, err
	}
	bCfg, err := mac.BMACForDutyCycle(p.X)
	if err != nil {
		return nil, err
	}
	bm, err := mac.BMAC(params, bCfg)
	if err != nil {
		return nil, err
	}
	sCfg, err := mac.SMACForDutyCycle(p.X)
	if err != nil {
		return nil, err
	}
	sm, err := mac.SMAC(params, sCfg)
	if err != nil {
		return nil, err
	}
	const year = 8760 // hours
	return map[string]float64{
		"rtlink_years": rt.Lifetime.Hours() / year,
		"bmac_years":   bm.Lifetime.Hours() / year,
		"smac_years":   sm.Lifetime.Hours() / year,
	}, nil
}

// runSyncJitter measures the AM-carrier synchronization jitter.
func runSyncJitter(_ Param, seed uint64) (map[string]float64, error) {
	med := radio.NewMedium(sim.New(), sim.NewRNG(seed), radio.DefaultConfig())
	const nodes, pulses = 10, 10_000
	for i := 1; i <= nodes; i++ {
		if _, err := med.Attach(radio.NodeID(i), radio.Position{X: float64(i)}, nil, radio.DefaultEnergyModel()); err != nil {
			return nil, err
		}
	}
	us := make([]float64, 0, nodes*pulses)
	for k := 0; k < pulses; k++ {
		jitter := med.BroadcastSync()
		for _, id := range sim.SortedKeys(jitter) {
			us = append(us, float64(jitter[id].Microseconds()))
		}
	}
	st := evm.Summarize(us)
	return map[string]float64{"mean_us": st.Mean, "p95_us": st.P95, "p99_us": st.P99, "max_us": st.Max}, nil
}

// runControlCycle measures actuation latency against the control cycle.
func runControlCycle(_ Param, seed uint64) (map[string]float64, error) {
	cfg := evm.DefaultGasPlantConfig()
	cfg.Seed = seed
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return nil, err
	}
	s.Record()
	s.Run(120 * time.Second)
	lats := s.ActuationLatencies()
	ns := make([]float64, len(lats))
	for i, l := range lats {
		ns[i] = float64(l)
	}
	st := evm.Summarize(ns)
	ms := float64(time.Millisecond)
	return map[string]float64{
		"actuations":    float64(st.N),
		"mean_ms":       st.Mean / ms,
		"p99_ms":        st.P99 / ms,
		"max_ms":        st.Max / ms,
		"max_cycle_pct": 100 * st.Max / float64(cfg.ControlPeriod),
	}, nil
}

// blobLogic carries an arbitrary-size state for the migration sweep.
type blobLogic struct{ state []byte }

func (l *blobLogic) Step(input, dt float64) (float64, error) { return input, nil }
func (l *blobLogic) AppendSnapshot(dst []byte) ([]byte, error) {
	return append(dst, l.state...), nil
}
func (l *blobLogic) Restore(b []byte) error {
	l.state = append(l.state[:0], b...)
	return nil
}

// ltsVMRow is E6's byte-code row: the Fig. 6 LTS law as an EVM capsule,
// whose migration ships the capsule and then the interpreter's state.
const ltsVMRow = "lts-vm"

// runMigration migrates a task from node 2 to node 3 and times it in
// 250 ms TDMA frames. The task carries p.X bytes of opaque state, or on
// the ltsVMRow it runs the Fig. 6 LTS law as byte code. state_bytes is
// the snapshot the migration ships.
func runMigration(p Param, seed uint64) (map[string]float64, error) {
	size := int(p.X)
	makeLogic := func() (evm.TaskLogic, error) {
		return &blobLogic{state: make([]byte, size)}, nil
	}
	if p.Label == ltsVMRow {
		c, err := evm.AssembleCapsule("t", 1, evm.LTSCapsuleSource)
		if err != nil {
			return nil, err
		}
		makeLogic = func() (evm.TaskLogic, error) { return evm.NewVMLogic(c) }
	}
	vc := evm.VCConfig{
		Name: "mig", Head: 4, Gateway: 1,
		Tasks: []evm.TaskSpec{{
			ID: "t", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []evm.NodeID{2},
			DeviationTol: 1, DeviationWindow: 3, SilenceWindow: 8,
			MakeLogic: makeLogic,
		}},
	}
	cell, err := evm.NewCell(evm.CellSpec{Seed: seed, Nodes: evm.Members(4), VC: vc})
	if err != nil {
		return nil, err
	}
	cell.Run(time.Second)
	start := cell.Now()
	var done time.Duration
	cell.Events().Subscribe(func(ev evm.Event) {
		if _, isMig := ev.(evm.MigrationEvent); isMig && done == 0 {
			done = ev.When()
		}
	})
	var ex wire.TaskExport
	if err := cell.Node(2).ExportTask("t", &ex); err != nil {
		return nil, err
	}
	if err := cell.Node(2).MigrateTask("t", 3); err != nil {
		return nil, err
	}
	cell.Run(300 * time.Second)
	if done == 0 {
		return nil, fmt.Errorf("migration of %s never completed", p.Label)
	}
	d := done - start
	return map[string]float64{
		"migration_ms": float64(d) / float64(time.Millisecond),
		"frames":       d.Seconds() / 0.25,
		"state_bytes":  float64(len(ex.Blob)),
	}, nil
}

// exhaustiveMax bounds the assignments E7 enumerates for the optimum.
const exhaustiveMax = 1000

// runBQP solves one random assignment problem of size p.Label ("5x3" is
// 5 tasks on 3 nodes) greedily and by annealing, and exhaustively where
// the search space holds at most exhaustiveMax assignments.
func runBQP(p Param, seed uint64) (map[string]float64, error) {
	var tasks, nodes int
	if _, err := fmt.Sscanf(p.Label, "%dx%d", &tasks, &nodes); err != nil {
		return nil, fmt.Errorf("size %q: %w", p.Label, err)
	}
	rng := sim.NewRNG(seed)
	prob := randomProblem(rng, tasks, nodes)
	g, err := bqp.SolveGreedy(prob)
	if err != nil {
		return nil, err
	}
	a, err := bqp.SolveAnneal(prob, rng.Fork(), 20_000)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	if a.Cost > 0 {
		m["greedy_per_anneal"] = g.Cost / a.Cost
	}
	if math.Pow(float64(nodes), float64(tasks)) <= exhaustiveMax {
		opt, err := bqp.SolveExhaustive(prob)
		if err != nil {
			return nil, err
		}
		if opt.Cost > 0 {
			m["anneal_per_opt"] = a.Cost / opt.Cost
			m["greedy_per_opt"] = g.Cost / opt.Cost
		}
	}
	return m, nil
}

// randomProblem draws an assignment problem: per-node costs in [0, 10),
// utilizations in [0.05, 0.15), unit capacities, and a pair cost in
// [0, 5) between about 30% of task pairs.
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
		for n := 0; n < nodes; n++ {
			p.Cost[t][n] = rng.Float64() * 10
		}
		p.Util[t] = 0.05 + rng.Float64()*0.1
	}
	for t := 0; t < tasks; t++ {
		for u := t + 1; u < tasks; u++ {
			if rng.Bool(0.3) {
				v := rng.Float64() * 5
				p.Pair[t][u] = v
				p.Pair[u][t] = v
			}
		}
	}
	for n := 0; n < nodes; n++ {
		p.Cap[n] = 1
	}
	return p
}

// runDegradation deploys one task with 4 candidates, crashes p.X of
// them 10 s apart and reports task coverage, with the EVM reorganizing
// and with every watchdog stopped (static binding).
func runDegradation(p Param, seed uint64) (map[string]float64, error) {
	kills := int(p.X)
	withEVM, err := coverageAfterKills(seed, kills, true)
	if err != nil {
		return nil, err
	}
	static, err := coverageAfterKills(seed, kills, false)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"coverage_evm": withEVM, "coverage_static": static}, nil
}

func coverageAfterKills(seed uint64, kills int, reorganize bool) (float64, error) {
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
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:  seed,
		Nodes: evm.Members(6),
		VC:    vc,
		Feed: &evm.FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 50}}
		}},
	})
	if err != nil {
		return 0, err
	}
	defer cell.Stop()
	cell.Run(5 * time.Second)
	if !reorganize {
		for _, n := range cell.Nodes() {
			n.Stop()
		}
	}
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

// runAdmission draws 200 five-task sets at offered utilization p.X and
// reports the share each admission test accepts.
func runAdmission(p Param, seed uint64) (map[string]float64, error) {
	rng := sim.NewRNG(seed)
	const sets = 200
	ub, rta := 0, 0
	for i := 0; i < sets; i++ {
		ts := rtos.AssignRM(randomTaskSet(rng, 5, p.X))
		if rtos.Schedulable(ts, rtos.TestUB) {
			ub++
		}
		if rtos.Schedulable(ts, rtos.TestRTA) {
			rta++
		}
	}
	return map[string]float64{"accept_ub": float64(ub) / sets, "accept_rta": float64(rta) / sets}, nil
}

// randomTaskSet draws n tasks with periods in [10, 210) ms whose
// utilizations sum to about targetUtil.
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

// runAttestation flips one random bit of a p.X-byte capsule 2,000 times
// and reports the share of corruptions the decoder rejects.
func runAttestation(p Param, seed uint64) (map[string]float64, error) {
	rng := sim.NewRNG(seed)
	code := make([]byte, int(p.X))
	for i := range code {
		code[i] = byte(rng.Intn(256))
	}
	c := vm.Capsule{TaskID: "att", Version: 1, Code: code}
	enc, err := c.Encode()
	if err != nil {
		return nil, err
	}
	const trials = 2000
	detected := 0
	bad := make([]byte, len(enc))
	for i := 0; i < trials; i++ {
		copy(bad, enc)
		pos := 2 + rng.Intn(len(bad)-2)
		bad[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := vm.Decode(bad); err != nil {
			detected++
		}
	}
	return map[string]float64{"detect_ratio": float64(detected) / trials}, nil
}

// runStateSharing measures backup/primary output divergence under heavy
// packet loss with passive observation only (p.X = 0) or active state
// replication every p.X cycles (paper §3: "state is shared either
// passively or actively").
func runStateSharing(p Param, seed uint64) (map[string]float64, error) {
	vc := evm.VCConfig{
		Name: "share", Head: 4, Gateway: 1,
		Tasks: []evm.TaskSpec{{
			ID: "t", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []evm.NodeID{2, 3},
			DeviationTol: 20, DeviationWindow: 200, SilenceWindow: 200,
			ReplicateEvery: int(p.X),
			MakeLogic: func() (evm.TaskLogic, error) {
				return evm.NewPIDLogic(evm.PIDParams{Kp: 2, Ki: 0.5, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		}},
	}
	rng := sim.NewRNG(seed + 6)
	// PER 0.3 in the spec keeps the channel's Gilbert-Elliott bursts on.
	cell, err := evm.NewCell(evm.CellSpec{
		Seed:         seed,
		Nodes:        evm.Members(4),
		SlotsPerNode: 3,
		PER:          0.3,
		VC:           vc,
		Feed: &evm.FeedSpec{Source: 1, Period: 250 * time.Millisecond, Sample: func() []evm.SensorReading {
			return []evm.SensorReading{{Port: 0, Value: 45 + 10*rng.Float64()}}
		}},
	})
	if err != nil {
		return nil, err
	}
	defer cell.Stop()
	var totalDiff float64
	samples := 0
	probe := cell.Engine().Every(time.Second, func() {
		outA, okA := cell.Node(2).LastOutput("t")
		outB, okB := cell.Node(3).LastOutput("t")
		if okA && okB {
			totalDiff += math.Abs(outA - outB)
			samples++
		}
	})
	defer probe.Stop()
	cell.Run(60 * time.Second)
	if samples == 0 {
		return map[string]float64{}, nil
	}
	return map[string]float64{"backup_divergence": totalDiff / float64(samples)}, nil
}
