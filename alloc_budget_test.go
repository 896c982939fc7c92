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
// state, so the count is construction plus the event bus's boxed
// actuation events and the trace's growth. The cap sits just above the
// measured 694 (707 under -race); a change that puts allocation back on
// the per-slot or per-message path fails here.
const hotPathAllocBudget = 750

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
