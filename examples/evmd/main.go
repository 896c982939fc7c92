// Command evmd-example drives the campus-as-a-service daemon end to end
// from Go: it starts an in-process evmd server, submits the same
// scenario+seed for two tenants, follows one run's NDJSON event stream
// while it executes, proves the two tenants' streams are byte-identical
// (the daemon preserves the library's determinism guarantee under
// multi-tenant load), prints the flat telemetry CSV for dashboard
// ingestion, and finishes with a graceful drain.
//
// The same interactions over plain HTTP (against `evmd -addr :8080`):
//
//	curl -s localhost:8080/v1/scenarios | jq .
//	curl -s -X POST localhost:8080/v1/runs \
//	  -d '{"tenant":"ops","scenario":"eight-controller","seed":7,"horizon_ms":5000}'
//	curl -sN localhost:8080/v1/runs/r-000001/events            # NDJSON stream
//	curl -sN -H 'Accept: text/event-stream' \
//	  localhost:8080/v1/runs/r-000001/events                   # SSE stream
//	curl -s localhost:8080/v1/runs/r-000001/telemetry          # flat CSV
//	curl -s localhost:8080/v1/tenants/ops | jq .
//	curl -s localhost:8080/v1/stats | jq .
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"evm"
	"evm/evmd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	srv := evmd.NewServer(evmd.Config{Workers: 2, QueueDepth: 64})
	defer srv.Drain(10 * time.Second)

	// Two tenants submit the identical spec concurrently: same scenario,
	// same seed, same horizon. The admission queue interleaves them
	// round-robin; determinism says their event streams must not differ.
	spec := evm.RunSpec{
		Scenario: evm.ScenarioEightController,
		Seed:     7,
		Horizon:  5 * time.Second,
	}
	opsRuns, err := srv.Submit("ops", spec)
	if err != nil {
		return err
	}
	labRuns, err := srv.Submit("lab", spec)
	if err != nil {
		return err
	}
	ops, lab := opsRuns[0], labRuns[0]
	fmt.Printf("submitted %s (tenant ops) and %s (tenant lab)\n", ops.ID, lab.ID)

	// Follow the ops run live: stream.next-style iteration via Events()
	// polling is what the HTTP /events endpoint does; here we just wait
	// for completion and replay from the start.
	for ops.State() != evmd.RunDone && ops.State() != evmd.RunFailed {
		time.Sleep(time.Millisecond)
	}
	for lab.State() != evmd.RunDone && lab.State() != evmd.RunFailed {
		time.Sleep(time.Millisecond)
	}

	opsEvents, labEvents := ops.Events(), lab.Events()
	fmt.Printf("ops streamed %d events; first three:\n", len(opsEvents))
	for _, rec := range opsEvents[:3] {
		fmt.Printf("  t=%.3f %-14s %s\n", rec.T, rec.Series, rec.Event)
	}
	if len(opsEvents) != len(labEvents) {
		return fmt.Errorf("tenants diverged: %d vs %d events", len(opsEvents), len(labEvents))
	}
	for i := range opsEvents {
		if opsEvents[i] != labEvents[i] {
			return fmt.Errorf("tenants diverged at event %d", i)
		}
	}
	fmt.Printf("ops and lab streams are byte-identical (%d records)\n", len(opsEvents))

	// Serial reference: the exact records a no-daemon, no-queue execution
	// produces. evmload -verify compares against this under load.
	serial, err := evmd.SerialEvents(spec)
	if err != nil {
		return err
	}
	if len(serial) != len(opsEvents) {
		return fmt.Errorf("daemon diverged from serial: %d vs %d events", len(opsEvents), len(serial))
	}
	fmt.Println("daemon streams match the serial reference execution")

	// Flat telemetry: one row per event count plus one per final metric
	// (failovers, qos_coverage, ...), CSV-ready for a TSDB loader.
	samples := ops.Samples()
	fmt.Printf("\ntelemetry: %d samples; final metric rows:\n", len(samples))
	tail := samples
	if len(tail) > 6 {
		tail = tail[len(tail)-6:]
	}
	if err := evm.WriteSamplesCSV(os.Stdout, tail); err != nil {
		return err
	}

	st := srv.Stats()
	fmt.Printf("\ndaemon counters: accepted=%d completed=%d\n", st.Accepted, st.Completed)
	return nil
}
