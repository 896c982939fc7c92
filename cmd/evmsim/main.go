// Command evmsim runs the closed-loop gas-plant simulation (the paper's
// hardware-in-loop testbed, Fig. 5) and regenerates the Fig. 6(b) series.
//
// Usage:
//
//	evmsim -fault 300s -horizon 1000s -window 1200 -csv fig6.csv
//	evmsim -crash            # silent node crash instead of wrong output
//	evmsim -per 0.2          # 20% packet loss on every link
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"evm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		faultAt = flag.Duration("fault", 300*time.Second, "fault injection time (T1)")
		horizon = flag.Duration("horizon", 1000*time.Second, "simulation horizon")
		window  = flag.Int("window", 1200, "backup deviation window in control cycles")
		crash   = flag.Bool("crash", false, "crash the primary instead of injecting a wrong output")
		per     = flag.Float64("per", 0, "forced packet error rate on every link")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		useVM   = flag.Bool("vm", false, "run the control law as EVM byte code")
		csvPath = flag.String("csv", "", "write the recorded series to this CSV file")
	)
	flag.Parse()

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
	// the cell, and observability rides the typed event bus.
	var failoverAt time.Duration
	s.Cell.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.FailoverEvent:
			if failoverAt == 0 {
				failoverAt = e.At
			}
			fmt.Printf("[%10v] failover: %s %v -> %v\n", e.At, e.Task, e.From, e.To)
		case evm.FaultEvent:
			fmt.Printf("[%10v] fault injected: %s node %v\n", e.At, e.Kind, e.Node)
		}
	})
	plan := evm.PrimaryFaultPlan(*faultAt)
	if *crash {
		plan = evm.PrimaryCrashPlan(*faultAt)
	}
	if err := s.Cell.ApplyFaultPlan(plan); err != nil {
		return err
	}

	fmt.Printf("gas plant under EVM control: cycle=%v, window=%d cycles, per=%.2f, plan=%s\n",
		cfg.ControlPeriod, cfg.DeviationWindow, cfg.PER, plan.Label())
	if !*crash {
		fmt.Printf("at %v Ctrl-A will output 75%% instead of %.2f%%\n", *faultAt, s.Plant.NominalValvePct())
	}
	s.Run(*horizon)

	fmt.Println("--- summary ---")
	fmt.Printf("fault at           %v\n", *faultAt)
	if failoverAt > 0 {
		fmt.Printf("fail-over at       %v (detection+arbitration %v)\n", failoverAt, failoverAt-*faultAt)
	} else {
		fmt.Println("fail-over          did not occur")
	}
	fmt.Printf("active controller  %v\n", s.ActiveController())
	fmt.Printf("LTS level          %.2f%%\n", s.Plant.LTSLevelPct())
	fmt.Printf("gateway            %d broadcasts, %d actuations ok, %d denied\n",
		s.GW.Stats().SensorBroadcasts, s.GW.Stats().ActuationsOK, s.GW.Stats().ActuationsDenied)
	lat := s.ActuationLatencies()
	if len(lat) > 0 {
		var max time.Duration
		for _, l := range lat {
			if l > max {
				max = l
			}
		}
		fmt.Printf("actuation latency  max %v (%.1f%% of the control cycle)\n",
			max, 100*max.Seconds()/cfg.ControlPeriod.Seconds())
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.Recorder().WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("series written to  %s\n", *csvPath)
	}
	return nil
}
