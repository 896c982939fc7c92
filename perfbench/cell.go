package main

import (
	"errors"
	"fmt"
	"time"

	"evm"
)

// The cell workload: single-cell paper experiments, serial on one worker.
// A round runs the Fig. 6(b) timeline on the gas plant with the LTS law as
// EVM byte code (a long steady state, a byzantine fault of Ctrl-A,
// deliberation, fail-over to Ctrl-B), then E2 fail-over trials, each
// faulting Ctrl-A at its own point of a control cycle. Backbone,
// federation, OTA and evmd do no work here.
//
// The trials run on a loss-free channel. Under forced loss the gas plant
// occasionally lets a demoted controller keep actuating past the
// invariant grace (about one trial in 6000 even at 5% loss), which would
// fail the benchmark at random.

const (
	fig6FaultAt = 120 * time.Second
	fig6Horizon = 300 * time.Second
	// fig6Window is the deviation window in 250 ms control cycles: 60 s of
	// deliberation before the fail-over.
	fig6Window = 240
	// e2FaultAt is the earliest fault of an E2 trial; each trial adds its
	// own offset within one control cycle.
	e2FaultAt = 20 * time.Second
	e2Horizon = 45 * time.Second
	e2Window  = 8
)

func runCell(b *bench) { b.simWorkload(cellJobs(b.seed, b.size)) }

// cellJobs is one round of the cell workload.
func cellJobs(seed uint64, sz size) []job {
	jobs := []job{{
		spec: evm.RunSpec{Scenario: "fig6", Seed: subSeed(seed, 0, 0), Horizon: fig6Horizon,
			Faults: evm.PrimaryFaultPlan(fig6FaultAt)},
		build: gasPlant(fig6Window, true),
		check: func(res evm.RunResult, o *observer) error {
			if o.failoverAt < fig6FaultAt {
				return errors.New("the LTS loop did not fail over after the fault")
			}
			if got := evm.NodeID(res.Metrics["active_controller"]); got != evm.GasCtrlBID {
				return fmt.Errorf("the LTS loop ended on node %d, want Ctrl-B", got)
			}
			return nil
		},
	}}
	period := evm.DefaultGasPlantConfig().ControlPeriod
	for i := 0; i < sz.e2Trials; i++ {
		trialSeed := subSeed(seed, 1, i)
		faultAt := e2FaultAt + time.Duration(trialSeed%uint64(period))
		jobs = append(jobs, job{
			spec: evm.RunSpec{Scenario: "e2", Seed: trialSeed, Horizon: e2Horizon,
				Faults: evm.PrimaryFaultPlan(faultAt)},
			build:   gasPlant(e2Window, false),
			faultAt: faultAt,
		})
	}
	return jobs
}

// gasPlant builds the paper's gas-plant testbed with the given deviation
// window, its LTS law native or as EVM byte code.
func gasPlant(window int, useVM bool) evm.ScenarioBuilder {
	return func(spec evm.RunSpec) (*evm.Experiment, error) {
		cfg := evm.DefaultGasPlantConfig()
		cfg.Seed, cfg.DeviationWindow, cfg.UseVM = spec.Seed, window, useVM
		s, err := evm.NewGasPlant(cfg)
		if err != nil {
			return nil, err
		}
		return &evm.Experiment{
			Cell: s.Cell,
			Metrics: func() map[string]float64 {
				gw := s.GW.Stats()
				return map[string]float64{
					"active_controller": float64(s.ActiveController()),
					"actuations_ok":     float64(gw.ActuationsOK),
					"actuations_denied": float64(gw.ActuationsDenied),
				}
			},
			QoS: func() evm.QoSReport { return evm.EvaluateQoS(s.VC, s.Cell.Nodes()) },
			Cleanup: func() {
				s.GW.Stop()
				s.Cell.Stop()
			},
		}, nil
	}
}
