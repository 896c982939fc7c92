package paperexp

import (
	"errors"
	"fmt"
	"time"

	"evm"
)

// runSpec runs one spec on the Runner and keeps the named metrics.
func runSpec(spec evm.RunSpec, keys ...string) (map[string]float64, error) {
	r := (&evm.Runner{Workers: 1}).Run([]evm.RunSpec{spec})[0]
	if r.Err != nil {
		return nil, r.Err
	}
	m := make(map[string]float64, len(keys))
	for _, k := range keys {
		if v, ok := r.Metrics[k]; ok {
			m[k] = v
		}
	}
	return m, nil
}

// runFederation runs the two-cell campus-failover scenario, where cell
// west dies wholesale at 10 s and its loop resumes in east across the
// backbone, or the refinery (4 cells x 16 nodes) with unit-a killed at
// 10 s.
func runFederation(p Param, seed uint64) (map[string]float64, error) {
	if p.Label != evm.ScenarioCampusFailover {
		return runSpec(evm.RunSpec{
			Scenario: evm.ScenarioRefinery, Seed: seed, Horizon: 25 * time.Second,
			Faults:    evm.KillNodesPlan("kill-unit-a", 10*time.Second, evm.RefineryMembers()...),
			FaultCell: "unit-a",
		}, evm.MetricInterCellMigrations, "tasks_alive", evm.MetricBackboneDelivered)
	}
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer exp.Cleanup()
	var overloadAt, migratedAt time.Duration
	resumed := 0
	exp.Campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.CellOverloadEvent:
			if overloadAt == 0 {
				overloadAt = e.At
			}
		case evm.InterCellMigrationEvent:
			if migratedAt == 0 {
				migratedAt = e.At
			}
		case evm.CellEvent:
			if act, ok := e.Inner.(*evm.ActuationEvent); ok && act.Task == "w-loop" && e.Cell == "east" {
				resumed++
			}
		}
	})
	exp.Campus.Run(30 * time.Second)
	if migratedAt == 0 {
		return nil, errors.New("whole-cell outage produced no inter-cell migration")
	}
	bb := exp.Campus.Backbone().Stats()
	return map[string]float64{
		"overload_s":         overloadAt.Seconds(),
		"resumed_s":          migratedAt.Seconds(),
		"resumed_actuations": float64(resumed),
		"backbone_sent":      float64(bb.Sent),
		"backbone_delivered": float64(bb.Delivered),
	}, nil
}

// runPolicy runs the refinery-ring scenario under placement policy
// p.Label: an explicit ring backbone whose far side is lossy, with a
// whole-cell outage on unit-a (killed at 10 s, recovered at 22 s) and
// homeward rebalancing. The routing-aware campus-BQP policy keeps every
// escalation on clean one-hop links, so the outage resolves in one
// coordinator tick; the topology-blind least-loaded policy ships a task
// into the lossy two-hop path and pays extra overload ticks (and
// backbone drops) for it.
func runPolicy(p Param, seed uint64) (map[string]float64, error) {
	return runSpec(evm.RunSpec{
		Scenario: evm.ScenarioRefineryRing, Seed: seed, Horizon: 35 * time.Second,
		Faults:    evm.RefineryOutagePlan(10*time.Second, 22*time.Second),
		FaultCell: "unit-a", Policy: p.Label,
	}, evm.MetricCellOverloads, evm.MetricInterCellMigrations, evm.MetricRebalances,
		evm.MetricBackboneDropped, "tasks_foreign", "tasks_home")
}

// runPipeline runs the multi-hop line cell: sensor snapshots relay down
// the line, actuations relay back, and a far-end primary crash at 10 s
// fails over across the line without losing the actuation path. A mesh
// schedule would give each node a duty cycle of 16/50 = 0.32 (sync, 3
// own and 12 listen slots).
func runPipeline(_ Param, seed uint64) (map[string]float64, error) {
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioPipeline, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer exp.Cleanup()
	acts := 0
	exp.Cell.Events().Subscribe(func(ev evm.Event) {
		if _, ok := ev.(*evm.ActuationEvent); ok {
			acts++
		}
	})
	exp.Cell.Run(10 * time.Second)
	pre := acts
	if err := exp.Cell.ApplyFaultPlan(evm.PipelinePrimaryCrashPlan(0)); err != nil {
		return nil, err
	}
	exp.Cell.Run(20 * time.Second)
	m := exp.Metrics()
	return map[string]float64{
		"actuations_before": float64(pre),
		"actuations_after":  float64(acts - pre),
		"active_controller": m["active_controller"],
		"relayed_frags":     m["relayed_frags"],
		"line_duty":         m["line_duty"],
	}, nil
}

// runSever runs the link-dynamics acceptance scenario: the refinery ring
// loses unit-a at 10 s and its d-a link at 12 s; the recovered unit-a
// takes its loops back through the prepare/commit handshake, with
// unit-d's traffic forced the long way round. The invariant harness
// replays the stream, and any violation fails the run.
func runSever(_ Param, seed uint64) (map[string]float64, error) {
	exp, err := evm.BuildScenario(evm.RunSpec{Scenario: evm.ScenarioRefineryRingSever, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer exp.Cleanup()
	checkers := evm.DefaultInvariants()
	rebalances, longWay := 0, 0
	exp.Campus.Events().Subscribe(func(ev evm.Event) {
		for _, c := range checkers {
			c.Observe(ev)
		}
		switch e := ev.(type) {
		case evm.InterCellMigrationEvent:
			if e.Rebalance {
				rebalances++
			}
		case evm.BackboneRouteEvent:
			if len(e.Path) == 4 {
				longWay++
			}
		}
	})
	exp.Campus.Run(40 * time.Second)
	// The checkers watched the run live; CheckEvents with no events
	// to replay collects what they found.
	if vs := evm.CheckEvents(nil, checkers...); len(vs) > 0 {
		return nil, fmt.Errorf("%d invariant violations, first %s", len(vs), vs[0])
	}
	bb := exp.Campus.Backbone().Stats()
	return map[string]float64{
		"rebalances":         float64(rebalances),
		"long_way_transfers": float64(longWay),
		"backbone_sent":      float64(bb.Sent),
		"backbone_delivered": float64(bb.Delivered),
		"backbone_dropped":   float64(bb.Dropped),
	}, nil
}

// runOTA upgrades every loop of the ota-campus federation from capsule
// v1 to v2 over the lossy ring backbone under rollout strategy p.Label,
// which trades upgrade latency against blast radius. The "bad-capsule"
// point instead rolls out a capsule that attests cleanly but never
// actuates, and the health window must trip an automatic rollback.
func runOTA(p Param, seed uint64) (map[string]float64, error) {
	campus, err := evm.NewOTACampus(seed)
	if err != nil {
		return nil, err
	}
	defer campus.Stop()
	m := map[string]float64{"deliveries": 0, "rollbacks": 0}
	campus.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.CapsuleDeliveryEvent:
			m["deliveries"]++
		case evm.RollbackEvent:
			m["rollbacks"]++
			m["rollback_s"] = e.At.Seconds()
		case evm.RolloutEvent:
			if e.Phase == evm.RolloutPhaseComplete {
				m["completed_s"] = e.At.Seconds()
			}
		}
	})
	var rollout *evm.Rollout
	want := evm.RolloutComplete
	if p.Label == "bad-capsule" {
		want = evm.RolloutRolledBack
		campus.Run(5 * time.Second)
		bad, err := evm.OTABadCapsule("a-press-0", 3)
		if err != nil {
			return nil, err
		}
		if err := campus.Capsules().Register(bad); err != nil {
			return nil, err
		}
		if rollout, err = campus.StartRollout(evm.RolloutSpec{
			Tasks:          []string{"a-press-0"},
			Version:        3,
			Strategy:       evm.RolloutAllAtOnce,
			HealthWindow:   1500 * time.Millisecond,
			ActuationBound: time.Second,
		}); err != nil {
			return nil, err
		}
		campus.Run(10 * time.Second)
	} else {
		campus.Engine().After(evm.OTARolloutAt, func() {
			rollout, err = campus.StartRollout(evm.OTACampusRolloutSpec(p.Label))
		})
		campus.Run(30 * time.Second)
		if err != nil {
			return nil, err
		}
	}
	if rollout.State() != want {
		return nil, fmt.Errorf("rollout ended %s (%s), want %s", rollout.State(), rollout.Reason(), want)
	}
	bb := campus.Backbone().Stats()
	m["stages"] = float64(len(rollout.Stages()))
	m["backbone_sent"] = float64(bb.Sent)
	m["backbone_delivered"] = float64(bb.Delivered)
	return m, nil
}
