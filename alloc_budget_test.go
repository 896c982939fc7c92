package evm

import (
	"testing"
	"time"
)

// hotPathAllocBudget caps the allocations of a seed-1 gas plant built and
// run for 20 s of virtual time: 80 control cycles of sensor fan-out,
// replica steps, health bundles and actuations. The per-slot TDMA loop
// (engine, radio, RT-Link, wire codec, EVM node) and the message path
// through it (encode buffers, link frame buffers, the medium's recycled
// transmissions, the gateway's ModBus frames) allocate nothing in steady
// state, a plant records nothing until Record, and every actuation is
// published as the cell's one borrowed *ActuationEvent, so the count is
// construction and warm-up (TestSteadyStateAllocatesNothing pins the
// warm loop at zero), and construction builds only what the run uses: an
// interpreter's stacks and memory, a loss-free medium's burst state and
// a node's or link's maps wait for their first use, and the cell's
// watchdogs share one ticker. The cap sits just above the measured 297
// (311 under -race); a change that puts allocation back on the per-slot,
// per-message or per-actuation path, or builds unused state again, fails
// here.
const hotPathAllocBudget = 341

func TestHotPathAllocBudget(t *testing.T) {
	got := testing.AllocsPerRun(5, func() {
		cfg := DefaultGasPlantConfig()
		cfg.Seed = 1
		s, err := NewGasPlant(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(20 * time.Second)
	})
	t.Logf("allocs per run: %.0f (budget %d)", got, hotPathAllocBudget)
	if got > hotPathAllocBudget {
		t.Fatalf("gas-plant run made %.0f allocations, budget %d: something allocates on the per-slot or per-message path again", got, hotPathAllocBudget)
	}
}

// TestCheckpointTickDoesNotAllocate: in steady state the coordinator's
// once-a-second checkpoint of every task refreshes each placement's
// export in place. A byte-code task's state is appended into the
// export's Blob and its capsule copied from the logic's kept encoding;
// a PID task appends its eight floats. So a tick over a healthy campus
// allocates nothing. Several ticks per run keep the integer division
// from hiding an allocation.
func TestCheckpointTickDoesNotAllocate(t *testing.T) {
	campus, err := NewCampus(CampusConfig{Seed: 1}, refineryUnit("a"), otaUnit("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	campus.Run(5 * time.Second) // every export has been filled at least once
	vm, pid := 0, 0
	for _, p := range campus.tasks {
		if !p.have {
			t.Fatalf("task %s has no checkpoint after 5 s", p.spec.ID)
		}
		if len(p.export.Capsule) > 0 {
			vm++
		} else {
			pid++
		}
	}
	if vm == 0 || pid == 0 {
		t.Fatalf("campus checkpoints %d byte-code and %d PID tasks, want both", vm, pid)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for range 5 {
			campus.tick()
		}
	})
	if allocs != 0 {
		t.Fatalf("5 checkpoint ticks: %v allocs, want 0", allocs)
	}
}

// TestCampusSteadyStateAllocatesNothing: once warm, a campus allocates
// nothing per control cycle. Each cell's actuation reaches campus
// subscribers in the one CellEvent its bridge boxed at construction,
// each feed tick sends the slice its unit built once, and the
// checkpoint tick refreshes exports in place.
func TestCampusSteadyStateAllocatesNothing(t *testing.T) {
	campus, err := NewCampus(CampusConfig{Seed: 1}, refineryUnit("a"), otaUnit("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	acts := 0
	campus.Events().Subscribe(func(ev Event) {
		if ce, ok := ev.(CellEvent); ok {
			if _, ok := ce.Inner.(*ActuationEvent); ok {
				acts++
			}
		}
	})
	campus.Run(5 * time.Second)
	before := acts
	allocs := testing.AllocsPerRun(1, func() { campus.Run(10 * time.Second) })
	t.Logf("%v allocs per 10 s; %d campus actuations over the warm-up and measured runs", allocs, acts-before)
	if acts == before {
		t.Fatal("no actuation reached the campus stream in steady state")
	}
	if allocs != 0 {
		t.Fatalf("warm campus: %v allocs per 10 s, want 0", allocs)
	}
}
