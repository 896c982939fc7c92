// Benchmarks regenerating every table/figure of the paper's evaluation
// plus the quantitative claims in the text. Each benchmark maps to an
// experiment in DESIGN.md §4 and records its headline quantity with
// b.ReportMetric so `go test -bench` output doubles as the results table
// (EXPERIMENTS.md).
package evm

import (
	"fmt"
	"testing"
	"time"

	"evm/internal/bqp"
	"evm/internal/core"
	"evm/internal/mac"
	"evm/internal/radio"
	"evm/internal/rtos"
	"evm/internal/sim"
	"evm/internal/trace"
	"evm/internal/vm"
)

// benchSeed is the one seed every benchmark runs, so ns/op and allocs/op
// measure the same workload whatever b.N is. It is the seed the first
// iteration always used, so -benchtime=1x records stay comparable.
const benchSeed = 1

// --- E1 / Fig. 6(b): fault, fail-over and recovery ------------------------

func BenchmarkFig6Failover(b *testing.B) {
	var lastLevelDrop, lastRecover float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultGasPlantConfig()
		cfg.Seed = benchSeed
		cfg.DeviationWindow = 240 // 60 s deliberation, shortened from the paper's 300 s
		s, err := NewGasPlant(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.RunFig6(120*time.Second, 600*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		lastLevelDrop = res.LevelBefore - res.LevelMin
		lastRecover = res.LevelEnd - res.LevelMin
	}
	b.ReportMetric(lastLevelDrop, "level-drop-pct")
	b.ReportMetric(lastRecover, "level-recover-pct")
}

// --- E2: fail-over latency distribution vs packet loss ----------------------

func BenchmarkFailoverLatency(b *testing.B) {
	for _, per := range []float64{0, 0.1, 0.3} {
		per := per
		b.Run(fmt.Sprintf("per=%.1f", per), func(b *testing.B) {
			var total time.Duration
			count := 0
			for i := 0; i < b.N; i++ {
				cfg := DefaultGasPlantConfig()
				cfg.Seed = benchSeed
				cfg.PER = per
				cfg.DeviationWindow = 8
				s, err := NewGasPlant(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s.Run(30 * time.Second)
				faultAt := s.Cell.Now()
				var failAt time.Duration
				s.Cell.Events().Subscribe(func(ev Event) {
					if _, ok := ev.(FailoverEvent); ok && failAt == 0 {
						failAt = s.Cell.Now()
					}
				})
				s.InjectPrimaryFault()
				s.Run(60 * time.Second)
				if failAt > 0 {
					total += failAt - faultAt
					count++
				}
			}
			if count > 0 {
				b.ReportMetric(total.Seconds()/float64(count), "failover-sec")
				b.ReportMetric(float64(count)/float64(b.N), "success-ratio")
			}
		})
	}
}

// --- E3: MAC lifetime comparison (RT-Link vs B-MAC vs S-MAC) ----------------

func BenchmarkMACLifetime(b *testing.B) {
	p := mac.DefaultParams()
	p.EventRateHz = 0.1
	var rtYears, bmYears, smYears float64
	for i := 0; i < b.N; i++ {
		rtCfg, err := mac.RTLinkForDutyCycle(0.05)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := mac.RTLink(p, rtCfg)
		if err != nil {
			b.Fatal(err)
		}
		bCfg, err := mac.BMACForDutyCycle(0.05)
		if err != nil {
			b.Fatal(err)
		}
		bm, err := mac.BMAC(p, bCfg)
		if err != nil {
			b.Fatal(err)
		}
		sCfg, err := mac.SMACForDutyCycle(0.05)
		if err != nil {
			b.Fatal(err)
		}
		sm, err := mac.SMAC(p, sCfg)
		if err != nil {
			b.Fatal(err)
		}
		rtYears = rt.Lifetime.Hours() / 8760
		bmYears = bm.Lifetime.Hours() / 8760
		smYears = sm.Lifetime.Hours() / 8760
	}
	b.ReportMetric(rtYears, "rtlink-years")
	b.ReportMetric(bmYears, "bmac-years")
	b.ReportMetric(smYears, "smac-years")
}

// --- E4: AM time-sync jitter -------------------------------------------------

func BenchmarkSyncJitter(b *testing.B) {
	eng := sim.New()
	med := radio.NewMedium(eng, sim.NewRNG(1), radio.DefaultConfig())
	for i := 1; i <= 10; i++ {
		if _, err := med.Attach(radio.NodeID(i), radio.Position{X: float64(i)}, nil, radio.DefaultEnergyModel()); err != nil {
			b.Fatal(err)
		}
	}
	var jitters []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range med.BroadcastSync() {
			jitters = append(jitters, float64(j.Microseconds()))
		}
	}
	st := trace.Summarize(jitters)
	b.ReportMetric(st.P99, "p99-jitter-us")
	b.ReportMetric(st.Max, "max-jitter-us")
}

// --- E5: control cycle latency -------------------------------------------------

func BenchmarkControlCycle(b *testing.B) {
	var maxFrac float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultGasPlantConfig()
		cfg.Seed = benchSeed
		s, err := NewGasPlant(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s.Run(60 * time.Second)
		for _, l := range s.ActuationLatencies() {
			if f := l.Seconds() / cfg.ControlPeriod.Seconds(); f > maxFrac {
				maxFrac = f
			}
		}
	}
	b.ReportMetric(maxFrac, "max-latency-cycle-frac")
}

// --- E6: migration cost vs state size -----------------------------------------

// blobLogic carries an arbitrary-size state for the migration sweep.
type blobLogic struct{ state []byte }

func (l *blobLogic) Step(input, dt float64) (float64, error) { return input, nil }
func (l *blobLogic) Snapshot() ([]byte, error)               { return l.state, nil }
func (l *blobLogic) Restore(b []byte) error {
	l.state = append([]byte(nil), b...)
	return nil
}

func BenchmarkMigrationCost(b *testing.B) {
	for _, size := range []int{64, 512, 2048, 8192} {
		size := size
		b.Run(fmt.Sprintf("state=%dB", size), func(b *testing.B) {
			var totalSec float64
			for i := 0; i < b.N; i++ {
				cell, err := NewCell(CellConfig{Seed: benchSeed, PerfectChannel: true},
					[]NodeID{1, 2, 3, 4})
				if err != nil {
					b.Fatal(err)
				}
				vc := VCConfig{
					Name: "mig", Head: 4, Gateway: 1,
					Tasks: []TaskSpec{{
						ID: "t", SensorPort: 0, ActuatorPort: 1,
						Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
						Candidates:   []NodeID{2},
						DeviationTol: 1, DeviationWindow: 3, SilenceWindow: 8,
						MakeLogic: func() (TaskLogic, error) {
							return &blobLogic{state: make([]byte, size)}, nil
						},
					}},
				}
				if err := cell.Deploy(vc); err != nil {
					b.Fatal(err)
				}
				cell.Run(time.Second)
				start := cell.Now()
				var done time.Duration
				cell.Events().Subscribe(func(ev Event) {
					if _, ok := ev.(MigrationEvent); ok && done == 0 {
						done = cell.Now()
					}
				})
				if err := cell.Node(2).MigrateTask("t", 3); err != nil {
					b.Fatal(err)
				}
				cell.Run(120 * time.Second)
				if done == 0 {
					b.Fatal("migration never completed")
				}
				totalSec += (done - start).Seconds()
			}
			b.ReportMetric(totalSec/float64(b.N), "migration-sec")
		})
	}
}

// --- E7: BQP assignment quality and effort --------------------------------------

func BenchmarkBQPAssign(b *testing.B) {
	sizes := []struct{ tasks, nodes int }{{4, 3}, {8, 4}, {16, 8}}
	for _, sz := range sizes {
		sz := sz
		b.Run(fmt.Sprintf("t%dxn%d", sz.tasks, sz.nodes), func(b *testing.B) {
			rng := sim.NewRNG(99)
			var annealCost, greedyCost float64
			for i := 0; i < b.N; i++ {
				p := randomAssignProblem(rng, sz.tasks, sz.nodes)
				g, err := bqp.SolveGreedy(p)
				if err != nil {
					b.Fatal(err)
				}
				a, err := bqp.SolveAnneal(p, rng.Fork(), 20_000)
				if err != nil {
					b.Fatal(err)
				}
				annealCost += a.Cost
				greedyCost += g.Cost
			}
			if annealCost > 0 {
				b.ReportMetric(greedyCost/annealCost, "greedy-vs-anneal-cost")
			}
		})
	}
}

func randomAssignProblem(rng *sim.RNG, tasks, nodes int) *bqp.Problem {
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

// --- E8: graceful degradation vs failures -----------------------------------

func BenchmarkDegradation(b *testing.B) {
	for _, kills := range []int{0, 1, 2, 3} {
		kills := kills
		b.Run(fmt.Sprintf("failures=%d", kills), func(b *testing.B) {
			var withEVM, withoutEVM float64
			for i := 0; i < b.N; i++ {
				evmCov := degradationRun(b, benchSeed, kills, true)
				staticCov := degradationRun(b, benchSeed, kills, false)
				withEVM += evmCov
				withoutEVM += staticCov
			}
			b.ReportMetric(withEVM/float64(b.N), "coverage-evm")
			b.ReportMetric(withoutEVM/float64(b.N), "coverage-static")
		})
	}
}

// degradationRun deploys one task with 4 candidates, kills the first
// `kills` of them, and returns the coverage ratio. With reorganize=false
// the watchdogs are stopped (static assignment baseline).
func degradationRun(b *testing.B, seed uint64, kills int, reorganize bool) float64 {
	b.Helper()
	ids := []NodeID{1, 2, 3, 4, 5, 6}
	cell, err := NewCell(CellConfig{Seed: seed, PerfectChannel: true}, ids)
	if err != nil {
		b.Fatal(err)
	}
	vc := VCConfig{
		Name: "deg", Head: 6, Gateway: 1,
		Tasks: []TaskSpec{{
			ID: "t", SensorPort: 0, ActuatorPort: 1,
			Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
			Candidates:   []NodeID{2, 3, 4, 5},
			DeviationTol: 5, DeviationWindow: 4, SilenceWindow: 8,
			MakeLogic: func() (TaskLogic, error) {
				return NewPIDLogic(PIDParams{Kp: 1, Ki: 0.1, OutMin: 0, OutMax: 100,
					Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
			},
		}},
	}
	if err := cell.Deploy(vc); err != nil {
		b.Fatal(err)
	}
	feed, err := cell.StartSensorFeed(1, 250*time.Millisecond, func() []SensorReading {
		return []SensorReading{{Port: 0, Value: 50}}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer feed.Stop()
	cell.Run(5 * time.Second)
	if !reorganize {
		for _, n := range cell.Nodes() {
			n.Stop() // no watchdogs: static task binding
		}
	}
	for k := 0; k < kills; k++ {
		cell.Node(NodeID(2 + k)).Link().Radio().Fail()
		cell.Run(10 * time.Second) // allow sequential fail-overs
	}
	rep := EvaluateQoS(vc, cell.Nodes())
	return rep.CoverageRatio
}

// --- E9: admission acceptance vs offered utilization ---------------------------

func BenchmarkAdmission(b *testing.B) {
	rng := sim.NewRNG(5)
	for _, util := range []float64{0.5, 0.7, 0.9} {
		util := util
		b.Run(fmt.Sprintf("u=%.1f", util), func(b *testing.B) {
			var ubAccept, rtaAccept int
			total := 0
			for i := 0; i < b.N; i++ {
				ts := randomTaskSet(rng, 5, util)
				total++
				if rtos.Schedulable(rtos.AssignRM(ts), rtos.TestUB) {
					ubAccept++
				}
				if rtos.Schedulable(rtos.AssignRM(ts), rtos.TestRTA) {
					rtaAccept++
				}
			}
			b.ReportMetric(float64(ubAccept)/float64(total), "accept-ub")
			b.ReportMetric(float64(rtaAccept)/float64(total), "accept-rta")
		})
	}
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

// --- E10: attestation overhead and corruption detection -------------------------

func BenchmarkAttestation(b *testing.B) {
	code := make([]byte, 1024)
	rng := sim.NewRNG(3)
	for i := range code {
		code[i] = byte(rng.Intn(256))
	}
	c := vm.Capsule{TaskID: "bench", Version: 1, Code: code}
	enc, err := c.Encode()
	if err != nil {
		b.Fatal(err)
	}
	detected, trials := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bad := append([]byte(nil), enc...)
		pos := 2 + rng.Intn(len(bad)-2)
		bad[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := vm.Decode(bad); err != nil {
			detected++
		}
		trials++
	}
	b.ReportMetric(float64(detected)/float64(trials), "corruption-detect-ratio")
}

// --- Ablation: detection policy (output deviation vs silence watchdog) ----------

func BenchmarkDetectionPolicy(b *testing.B) {
	scenarios := []struct {
		name  string
		crash bool // crash (silent) vs byzantine (wrong output)
	}{
		{"byzantine-deviation", false},
		{"crash-silence", true},
	}
	for _, sc := range scenarios {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var total time.Duration
			count := 0
			for i := 0; i < b.N; i++ {
				cfg := DefaultGasPlantConfig()
				cfg.Seed = benchSeed
				cfg.DeviationWindow = 8
				s, err := NewGasPlant(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var failAt time.Duration
				s.Cell.Events().Subscribe(func(ev Event) {
					if _, ok := ev.(FailoverEvent); ok && failAt == 0 {
						failAt = s.Cell.Now()
					}
				})
				s.Run(30 * time.Second)
				faultAt := s.Cell.Now()
				if sc.crash {
					s.CrashPrimary()
				} else {
					s.InjectPrimaryFault()
				}
				s.Run(60 * time.Second)
				if failAt > 0 {
					total += failAt - faultAt
					count++
				}
			}
			if count > 0 {
				b.ReportMetric(total.Seconds()/float64(count), "detect+failover-sec")
			}
		})
	}
}

// --- Ablation: passive vs active state sharing -----------------------------------

// BenchmarkStateSharing compares backup/primary output divergence under
// heavy packet loss with passive observation only vs periodic active
// state replication (paper §3: "state is shared either passively or
// actively").
func BenchmarkStateSharing(b *testing.B) {
	for _, mode := range []struct {
		name  string
		every int
	}{{"passive", 0}, {"active-every-8", 8}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			var totalDiff float64
			samples := 0
			for i := 0; i < b.N; i++ {
				cell, err := NewCell(CellConfig{Seed: benchSeed, SlotsPerNode: 3}, []NodeID{1, 2, 3, 4})
				if err != nil {
					b.Fatal(err)
				}
				cell.Medium().ForcePER(0.3)
				vc := VCConfig{
					Name: "share", Head: 4, Gateway: 1,
					Tasks: []TaskSpec{{
						ID: "t", SensorPort: 0, ActuatorPort: 1,
						Period: 250 * time.Millisecond, WCET: 5 * time.Millisecond,
						Candidates:   []NodeID{2, 3},
						DeviationTol: 20, DeviationWindow: 200, SilenceWindow: 200,
						ReplicateEvery: mode.every,
						MakeLogic: func() (TaskLogic, error) {
							return NewPIDLogic(PIDParams{Kp: 2, Ki: 0.5, OutMin: 0, OutMax: 100,
								Setpoint: 50, CutoffHz: 0.4, RateHz: 4})
						},
					}},
				}
				if err := cell.Deploy(vc); err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRNG(benchSeed + 6)
				feed, err := cell.StartSensorFeed(1, 250*time.Millisecond, func() []SensorReading {
					return []SensorReading{{Port: 0, Value: 45 + 10*rng.Float64()}}
				})
				if err != nil {
					b.Fatal(err)
				}
				probe := cell.Engine().Every(time.Second, func() {
					outA, okA := cell.Node(2).LastOutput("t")
					outB, okB := cell.Node(3).LastOutput("t")
					if okA && okB {
						d := outA - outB
						if d < 0 {
							d = -d
						}
						totalDiff += d
						samples++
					}
				})
				cell.Run(60 * time.Second)
				probe.Stop()
				feed.Stop()
			}
			if samples > 0 {
				b.ReportMetric(totalDiff/float64(samples), "backup-divergence")
			}
		})
	}
}

// --- Ablation: BQP vs greedy assignment quality (E7 companion) ------------------

func BenchmarkAssignOptimalGap(b *testing.B) {
	rng := sim.NewRNG(17)
	var annGap, greedyGap float64
	n := 0
	for i := 0; i < b.N; i++ {
		p := randomAssignProblem(rng, 5, 3)
		opt, err := bqp.SolveExhaustive(p)
		if err != nil {
			b.Fatal(err)
		}
		g, err := bqp.SolveGreedy(p)
		if err != nil {
			b.Fatal(err)
		}
		a, err := bqp.SolveAnneal(p, rng.Fork(), 20_000)
		if err != nil {
			b.Fatal(err)
		}
		if opt.Cost > 0 {
			annGap += a.Cost / opt.Cost
			greedyGap += g.Cost / opt.Cost
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(annGap/float64(n), "anneal-vs-optimal")
		b.ReportMetric(greedyGap/float64(n), "greedy-vs-optimal")
	}
}

// --- Federation: placement policies on the ring backbone ------------------------

// BenchmarkPlacementPolicies runs the policy-comparison workload (the
// refinery on the lossy ring backbone with an outage window on unit-a)
// once per policy and reports the coordinator overload ticks — the
// headline of the PR-3 policy experiment. Campus-BQP should report 1.
func BenchmarkPlacementPolicies(b *testing.B) {
	for _, pol := range []string{PolicyLeastLoaded, PolicyCampusBQP, PolicyAffinity} {
		pol := pol
		b.Run(pol, func(b *testing.B) {
			var overloads, rebalances float64
			for i := 0; i < b.N; i++ {
				res := (&Runner{Workers: 1}).Run([]RunSpec{{
					Scenario: ScenarioRefineryRing, Seed: benchSeed + 1, Horizon: 35 * time.Second,
					Faults:    RefineryOutagePlan(10*time.Second, 22*time.Second),
					FaultCell: "unit-a", Policy: pol,
				}})
				if res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
				overloads += res[0].Metrics[MetricCellOverloads]
				rebalances += res[0].Metrics[MetricRebalances]
			}
			b.ReportMetric(overloads/float64(b.N), "overload-ticks")
			b.ReportMetric(rebalances/float64(b.N), "rebalances")
		})
	}
}

// BenchmarkPipelineLineCell measures the multi-hop line scenario: a full
// fault-free horizon plus the relayed-fragment volume.
func BenchmarkPipelineLineCell(b *testing.B) {
	var relayed float64
	for i := 0; i < b.N; i++ {
		exp, err := BuildScenario(RunSpec{Scenario: ScenarioPipeline, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		exp.Cell.Run(30 * time.Second)
		relayed = exp.Metrics()["relayed_frags"]
		exp.Cleanup()
	}
	b.ReportMetric(relayed, "relayed-frags")
}

// --- Core data-path micro-benchmarks --------------------------------------------

func BenchmarkVMInterpreterStep(b *testing.B) {
	code, err := vm.Assemble(LTSCapsuleSource)
	if err != nil {
		b.Fatal(err)
	}
	logic, err := core.NewVMLogic(vm.Capsule{TaskID: "x", Code: code}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Step(48.5, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPIDLogicStep(b *testing.B) {
	logic, err := NewPIDLogic(PIDParams{Kp: 1.2, Ki: 0.08, Kd: 0.2,
		OutMin: 0, OutMax: 100, Setpoint: 50, CutoffHz: 0.2, RateHz: 4, Reverse: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.Step(48.5, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingSeverRecovery measures the link-dynamics acceptance
// workload end to end: outage, mid-outage ring sever, handshake
// rebalance the long way round — reporting the reroute volume and
// confirming zero invariant violations per run.
func BenchmarkRingSeverRecovery(b *testing.B) {
	var reroutes, rebalances float64
	for i := 0; i < b.N; i++ {
		res := (&Runner{Workers: 1}).Run([]RunSpec{{
			Scenario: ScenarioRefineryRingSever, Seed: benchSeed, Horizon: 40 * time.Second,
		}})
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
		reroutes += res[0].Metrics[MetricBackboneReroutes]
		rebalances += res[0].Metrics[MetricRebalances]
	}
	b.ReportMetric(reroutes/float64(b.N), "reroutes")
	b.ReportMetric(rebalances/float64(b.N), "rebalances")
}

// BenchmarkInvariantChecking measures the replay cost of the built-in
// checkers over a full sever-scenario stream (events/op is the stream
// length).
func BenchmarkInvariantChecking(b *testing.B) {
	exp, err := BuildScenario(RunSpec{Scenario: ScenarioRefineryRingSever, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	log := exp.Campus.Events().Log()
	exp.Campus.Run(40 * time.Second)
	events := log.Events()
	exp.Cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := CheckEvents(events, DefaultInvariants()...); len(vs) != 0 {
			b.Fatalf("invariants violated: %v", vs)
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// BenchmarkCampusRollout measures one full ota-campus run: the 4-cell
// staged canary rollout over the lossy ring backbone, through unit-b's
// PER burst, to the 30s horizon. capsule_frames/op is the per-replica
// delivery volume; rollouts/op must stay 1.
func BenchmarkCampusRollout(b *testing.B) {
	var frames, rollouts, rollbacks float64
	for i := 0; i < b.N; i++ {
		res := (&Runner{Workers: 1}).Run([]RunSpec{{
			Scenario: ScenarioOTACampus, Seed: benchSeed, Horizon: 30 * time.Second,
		}})
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
		frames += res[0].Metrics[MetricCapsuleFrames]
		rollouts += res[0].Metrics[MetricRollouts]
		rollbacks += res[0].Metrics[MetricRollbacks]
	}
	b.ReportMetric(frames/float64(b.N), "capsule_frames")
	b.ReportMetric(rollouts/float64(b.N), "rollouts")
	b.ReportMetric(rollbacks/float64(b.N), "rollbacks")
}

// --- Observability: span-derived latency distributions ----------------------

// BenchmarkSpanLatencies runs traced scenarios through the Runner and
// reports the span-derived latency percentiles so the cross-PR trend
// table charts control-path latency (escalation, actuation interval,
// rollout staging) alongside ns/op. All values come from virtual time,
// so they are stable across machines and repeat byte-identically per
// seed.
func BenchmarkSpanLatencies(b *testing.B) {
	cases := []struct {
		scenario string
		report   [][2]string // {reported unit, Runner metric key}
	}{
		{ScenarioCampusFailover, [][2]string{
			{"escalation_p95_ms", "span_escalation_p95_ms"},
			{"actuation_p99_ms", "span_actuation-interval_p99_ms"},
		}},
		{ScenarioOTACampus, [][2]string{
			{"rollout_stage_p95_ms", "span_rollout-stage_p95_ms"},
			{"actuation_p99_ms", "span_actuation-interval_p99_ms"},
		}},
	}
	for _, c := range cases {
		b.Run(c.scenario, func(b *testing.B) {
			var last map[string]float64
			for i := 0; i < b.N; i++ {
				res := (&Runner{Workers: 1, Trace: true}).Run([]RunSpec{{
					Scenario: c.scenario, Seed: benchSeed, Horizon: 30 * time.Second,
				}})
				if res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
				last = res[0].Metrics
			}
			for _, kv := range c.report {
				if v, ok := last[kv[1]]; ok {
					b.ReportMetric(v, kv[0])
				}
			}
		})
	}
}
