// Command evmsim runs the closed-loop gas-plant simulation (the paper's
// hardware-in-loop testbed, Fig. 5) and regenerates the Fig. 6(b) series.
//
// Usage:
//
//	evmsim -fault 300s -horizon 1000s -window 1200 -csv fig6.csv
//	evmsim -crash            # silent node crash instead of wrong output
//	evmsim -per 0.2          # 20% packet loss on every link
//
// The CSV is the flat evm.Sample format, one row per series per second
// of plant time:
//
//	t,run,tenant,scenario,seed,cell,series,value
//	1,,,gas-plant,1,,lts_level_pct,50.047832743398246
//	1,,,gas-plant,1,,sepliq_kmolh,97.6997702807231
//	...
//	1,,,gas-plant,1,,active_node,2
//	2,,,gas-plant,1,,lts_level_pct,50.09687287356118
//	...
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"evm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	flags := flag.NewFlagSet("evmsim", flag.ExitOnError)
	var (
		faultAt = flags.Duration("fault", 300*time.Second, "fault injection time (T1)")
		horizon = flags.Duration("horizon", 1000*time.Second, "simulation horizon")
		window  = flags.Int("window", 1200, "backup deviation window in control cycles")
		crash   = flags.Bool("crash", false, "crash the primary instead of injecting a wrong output")
		per     = flags.Float64("per", 0, "forced packet error rate on every link")
		seed    = flags.Uint64("seed", 1, "simulation seed")
		useVM   = flags.Bool("vm", false, "run the control law as EVM byte code")
		csvPath = flags.String("csv", "", "write the recorded series to this CSV file")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *horizon <= 0 || *faultAt < 0 || *faultAt >= *horizon {
		return fmt.Errorf("want 0 <= -fault < -horizon, got -fault %v -horizon %v", *faultAt, *horizon)
	}

	cfg := evm.DefaultGasPlantConfig()
	cfg.Seed = *seed
	cfg.DeviationWindow = *window
	cfg.PER = *per
	cfg.UseVM = *useVM
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return err
	}
	s.Record()

	// The whole experiment is declarative: the fault is a plan applied to
	// the cell, and observability rides the typed event bus. The fault
	// hits the LTS loop's master as the head sees it when the fault
	// fires, so the fail-over it causes is the LTS task's first one at or
	// after the fault; any fail-over before the fault is a false one
	// (under loss, a backup can misjudge a healthy primary), and it may
	// have moved the loop off Ctrl-A, the node the plan names.
	var (
		failoverAt time.Duration
		failedOver bool
		prefault   []string
	)
	s.Cell.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.FailoverEvent:
			switch {
			case e.At < *faultAt:
				prefault = append(prefault, fmt.Sprintf("%s %v -> %v at %v", e.Task, e.From, e.To, e.At))
			case e.Task == evm.LTSTaskID && !failedOver:
				failoverAt, failedOver = e.At, true
			}
			fmt.Fprintf(out, "[%10v] failover: %s %v -> %v\n", e.At, e.Task, e.From, e.To)
		case evm.FaultEvent:
			fmt.Fprintf(out, "[%10v] fault injected: %s node %v\n", e.At, e.Kind, e.Node)
		}
	})
	plan := evm.PrimaryFaultPlan
	if *crash {
		plan = evm.PrimaryCrashPlan
	}
	var faultErr error
	s.Cell.Engine().After(*faultAt, func() {
		faultErr = s.Cell.ApplyFaultPlan(onNode(plan(0), s.ActiveController()))
	})

	fmt.Fprintf(out, "gas plant under EVM control: cycle=%v, window=%d cycles, per=%.2f, plan=%s\n",
		cfg.ControlPeriod, cfg.DeviationWindow, cfg.PER, plan(*faultAt).Label())
	if !*crash {
		fmt.Fprintf(out, "at %v the %s master will output 75%% instead of %.2f%%\n", *faultAt, evm.LTSTaskID, s.Plant.NominalValvePct())
	}
	s.Run(*horizon)
	if faultErr != nil {
		return faultErr
	}

	fmt.Fprintln(out, "--- summary ---")
	fmt.Fprintf(out, "fault at           %v\n", *faultAt)
	for _, f := range prefault {
		fmt.Fprintf(out, "pre-fault          %s (false fail-over)\n", f)
	}
	if failedOver {
		fmt.Fprintf(out, "fail-over at       %v (detection+arbitration %v)\n", failoverAt, failoverAt-*faultAt)
	} else {
		fmt.Fprintf(out, "fail-over          %s did not fail over at or after the fault\n", evm.LTSTaskID)
	}
	fmt.Fprintf(out, "active controller  %v\n", s.ActiveController())
	fmt.Fprintf(out, "LTS level          %.2f%%\n", s.Plant.LTSLevelPct())
	fmt.Fprintf(out, "gateway            %d broadcasts, %d actuations ok, %d denied\n",
		s.GW.Stats().SensorBroadcasts, s.GW.Stats().ActuationsOK, s.GW.Stats().ActuationsDenied)
	lat := s.ActuationLatencies()
	if len(lat) > 0 {
		var max time.Duration
		for _, l := range lat {
			if l > max {
				max = l
			}
		}
		fmt.Fprintf(out, "actuation latency  max %v (%.1f%% of the control cycle)\n",
			max, 100*max.Seconds()/cfg.ControlPeriod.Seconds())
	}
	// The fault's shape, read from the recorded rows after it.
	levelMin, feedPeak := math.Inf(1), math.Inf(-1)
	samples := s.Samples()
	for _, sm := range samples {
		if sm.T <= faultAt.Seconds() {
			continue
		}
		switch sm.Series {
		case "lts_level_pct":
			levelMin = min(levelMin, sm.Value)
		case "towerfeed_kmolh":
			feedPeak = max(feedPeak, sm.Value)
		}
	}
	if !math.IsInf(levelMin, 1) {
		fmt.Fprintf(out, "LTS level min      %.2f%% after the fault\n", levelMin)
		fmt.Fprintf(out, "tower feed peak    %.1f kmol/h after the fault\n", feedPeak)
	}
	if *csvPath != "" {
		if err := evm.WriteSamplesFile(*csvPath, samples); err != nil {
			return err
		}
		fmt.Fprintf(out, "series written to  %s\n", *csvPath)
	}
	return nil
}

// onNode returns plan, whose one step faults Ctrl-A, with that step
// aimed at node instead.
func onNode(plan evm.FaultPlan, node evm.NodeID) evm.FaultPlan {
	st := &plan.Steps[0]
	if cf := st.ComputeFault; cf != nil {
		cf.Node = node
	} else {
		st.CrashNode = node
	}
	return plan
}
