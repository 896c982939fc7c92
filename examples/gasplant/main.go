// Command gasplant reruns the paper's hardware-in-loop case study
// (Fig. 5/6): the natural-gas plant is controlled over RT-Link by a
// primary/backup pair; the primary sticks the LTS valve at 75% instead of
// 11.48%, the backup detects the deviation and the Virtual Component
// switches masters. The Fig. 6(b) time series is written as CSV.
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
		faultAt = flag.Duration("fault", 300*time.Second, "fault injection time")
		horizon = flag.Duration("horizon", 1000*time.Second, "simulation horizon")
		window  = flag.Int("window", 1200, "deviation window in cycles (1200 = paper's ~300s)")
		csvPath = flag.String("csv", "", "write the Fig. 6(b) series to this CSV file")
	)
	flag.Parse()

	cfg := evm.DefaultGasPlantConfig()
	cfg.DeviationWindow = *window
	s, err := evm.NewGasPlant(cfg)
	if err != nil {
		return err
	}
	s.Record()
	// Narrate the timeline from the typed event bus as it unfolds.
	s.Cell.Events().Subscribe(func(ev evm.Event) {
		switch e := ev.(type) {
		case evm.FaultEvent:
			fmt.Printf("[%8v] fault: %s on node %v\n", e.At, e.Kind, e.Node)
		case evm.FailoverEvent:
			fmt.Printf("[%8v] failover: %q %v -> %v\n", e.At, e.Task, e.From, e.To)
		}
	})
	res, err := s.RunFig6(*faultAt, *horizon)
	if err != nil {
		return err
	}

	fmt.Println("=== Fig. 6(b) reproduction ===")
	fmt.Printf("fault injected        T1 = %v (valve stuck at 75%% vs nominal 11.48%%)\n", res.FaultAt)
	fmt.Printf("backup took over      T2 = %v (active controller now %v)\n", res.FailoverAt, s.ActiveController())
	fmt.Printf("LTS level             %.1f%% -> min %.1f%% -> %.1f%% at horizon\n",
		res.LevelBefore, res.LevelMin, res.LevelEnd)
	fmt.Printf("tower feed            nominal %.1f kmol/h, peak %.1f kmol/h during fault\n",
		res.FlowNominal, res.FlowPeak)
	fmt.Printf("gateway               %d sensor broadcasts, %d actuations, %d denied\n",
		s.GW.Stats().SensorBroadcasts, s.GW.Stats().ActuationsOK, s.GW.Stats().ActuationsDenied)

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.Recorder().WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}
	return nil
}
