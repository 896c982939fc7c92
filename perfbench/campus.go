package main

import (
	"errors"
	"fmt"
	"time"

	"evm"
)

// The campus workload: a four-cell federation, serial on one worker, and
// the only workload where the backbone, the federation coordinator, OTA
// rollouts and capsule attestation do real work. A round runs
// refinery-ring-sever (unit-a outage, ring sever, prepare/commit
// rebalances, reroutes; 16 nodes per cell) on four seeds, ota-campus
// rollouts under each of the three staging strategies on two seeds, and
// one bad-capsule rollout that must roll back.

const (
	severHorizon = 40 * time.Second
	otaHorizon   = 30 * time.Second
	badStartAt   = 5 * time.Second
	badHorizon   = 15 * time.Second
	severSeeds   = 4 // refinery-ring-sever runs per round
	rolloutSeeds = 2 // rollouts per strategy per round
)

func runCampus(b *bench) { b.simWorkload(campusJobs(b.seed)) }

// campusJobs is one round of the campus workload.
func campusJobs(seed uint64) []job {
	// Eleven runs, sorted by host time: the bad capsule, six rollouts and
	// four sever runs. The median run time falls inside the rollouts and
	// the 90th percentile inside the sever runs, neither on a boundary
	// between two kinds of run.
	var jobs []job
	for i := range severSeeds {
		jobs = append(jobs, job{
			spec: evm.RunSpec{Scenario: evm.ScenarioRefineryRingSever, Seed: subSeed(seed, 0, i), Horizon: severHorizon},
			check: func(res evm.RunResult, _ *observer) error {
				if res.Metrics[evm.MetricRebalances] == 0 {
					return errors.New("no loop rebalanced home after the outage")
				}
				return nil
			},
		})
	}
	tasks := evm.OTACampusTasks()
	for i := range 3 * rolloutSeeds {
		strategy := []string{evm.RolloutCanaryCell, evm.RolloutCellByCell, evm.RolloutAllAtOnce}[i%3]
		jobs = append(jobs, job{
			spec:  evm.RunSpec{Scenario: "ota-" + strategy, Seed: subSeed(seed, 1, i), Horizon: otaHorizon},
			build: otaCampus(evm.OTACampusRolloutSpec(strategy), evm.OTARolloutAt, false),
			check: func(res evm.RunResult, o *observer) error {
				// On the 20%-loss ring a leg exhausts its retransmits in
				// about one rollout of 300; the rollout then ends safely
				// (aborted or rolled back), which is correct behaviour.
				if res.Metrics["rollout_lost_leg"] == 1 {
					return nil
				}
				if res.Metrics["rollout_complete"] != 1 || o.rolloutDone < 0 {
					return errors.New("the rollout did not complete")
				}
				if got := int(res.Metrics[evm.MetricCapsuleFrames]); got < 2*len(tasks) {
					return fmt.Errorf("%d capsule deliveries, want at least %d", got, 2*len(tasks))
				}
				return nil
			},
		})
	}
	bad := evm.RolloutSpec{Tasks: tasks[:1], Version: 3, Strategy: evm.RolloutAllAtOnce,
		HealthWindow: 1500 * time.Millisecond, ActuationBound: time.Second}
	jobs = append(jobs, job{
		spec:  evm.RunSpec{Scenario: "ota-bad-capsule", Seed: subSeed(seed, 2, 0), Horizon: badHorizon},
		build: otaCampus(bad, badStartAt, true),
		check: func(res evm.RunResult, _ *observer) error {
			if res.Metrics["rollout_rolled_back"] != 1 || res.Metrics[evm.MetricRollbacks] == 0 {
				return errors.New("the bad capsule was not rolled back")
			}
			return nil
		},
	})
	return jobs
}

// otaCampus builds the ota-campus federation (four cells on a ring whose
// links drop 20% of hops) and starts spec at startAt. With bad set it
// first registers the seeded bad capsule as spec's version.
func otaCampus(spec evm.RolloutSpec, startAt time.Duration, bad bool) evm.ScenarioBuilder {
	return func(rs evm.RunSpec) (*evm.Experiment, error) {
		campus, err := evm.NewOTACampus(rs.Seed)
		if err != nil {
			return nil, err
		}
		if bad {
			c, err := evm.OTABadCapsule(spec.Tasks[0], spec.Version)
			if err == nil {
				err = campus.Capsules().Register(c)
			}
			if err != nil {
				campus.Stop()
				return nil, err
			}
		}
		var rollout *evm.Rollout
		campus.Engine().After(startAt, func() {
			// A refused start leaves rollout nil, which the checks report.
			rollout, _ = campus.StartRollout(spec)
		})
		return &evm.Experiment{
			Campus: campus,
			Metrics: func() map[string]float64 {
				m := map[string]float64{"rollout_complete": 0, "rollout_rolled_back": 0, "rollout_lost_leg": 0}
				if rollout != nil {
					switch rollout.State() {
					case evm.RolloutComplete:
						m["rollout_complete"] = 1
					case evm.RolloutRolledBack:
						m["rollout_rolled_back"] = 1
					}
					if r := rollout.Reason(); r == "prepare-lost" || r == "commit-lost" {
						m["rollout_lost_leg"] = 1
					}
				}
				return m
			},
			Cleanup: campus.Stop,
		}, nil
	}
}
