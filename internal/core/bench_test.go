package core

import (
	"fmt"
	"testing"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/wire"
)

// newFanout builds a 16-node mesh with the medium's loss forced to per:
// node 1 is a bare gateway link and node 16 the head, and 14 controllers
// hold a primary and a backup for each of 7 tasks. It returns the medium
// and one control cycle: the gateway broadcasts a sensor snapshot to the
// other 15 nodes, the controllers each run a cycle and broadcast a health
// bundle, and every bundle reaches the 15 other nodes, of which only the
// head and the sender's backup read it. A cycle is one 250 ms TDMA frame;
// the mesh has run four of them, so it is in steady state.
func newFanout(tb testing.TB, per float64) (*radio.Medium, func()) {
	const nodes, tasks = 16, 7
	const gw, head radio.NodeID = 1, nodes
	ids := make([]radio.NodeID, nodes)
	for i := range ids {
		ids[i] = radio.NodeID(i + 1)
	}
	eng, med, net := newMesh(tb, ids)
	med.ForcePER(per)
	cfg := VCConfig{Name: "fanout", Head: head, Gateway: gw}
	readings := make([]wire.SensorReading, tasks)
	for i := range tasks {
		spec := testSpec()
		spec.ID = fmt.Sprintf("t%d", i)
		spec.SensorPort = uint8(i)
		spec.ActuatorPort = uint8(10 + i)
		spec.Candidates = []radio.NodeID{radio.NodeID(2 + 2*i), radio.NodeID(3 + 2*i)}
		cfg.Tasks = append(cfg.Tasks, spec)
		readings[i] = wire.SensorReading{Port: uint8(i), Value: 50}
	}
	var gwLink *rtlink.Link
	var runtimes []*Node
	for _, id := range ids {
		link, err := net.Join(id)
		if err != nil {
			tb.Fatal(err)
		}
		if id == gw {
			gwLink = link
			continue
		}
		node, err := NewNode(net, link, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		runtimes = append(runtimes, node)
	}
	StartWatchdogs(runtimes)
	snapshot, err := wire.SensorSnapshot{Readings: readings}.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	frame := net.Config().FrameDuration()
	net.Start()
	cycle := func() {
		if err := gwLink.Send(rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindSensor, Payload: snapshot}); err != nil {
			tb.Fatal(err)
		}
		_ = eng.RunUntil(eng.Now() + frame)
	}
	// Warm up past the first cycles, so every replica has an output and
	// every backup has heard its primary.
	for range 4 {
		cycle()
	}
	return med, cycle
}

// TestControlCycleDoesNotAllocate pins the per-message path at zero
// allocations: snapshot fan-out, replica steps, actuations and health
// bundles, on a lossless channel and at 10% loss, where drops share the
// recycled transmission buffers. Each measured run is 40 cycles, because
// AllocsPerRun divides the count by its runs and would hide fewer
// allocations than runs.
func TestControlCycleDoesNotAllocate(t *testing.T) {
	for _, per := range []float64{0, 0.1} {
		med, cycle := newFanout(t, per)
		allocs := testing.AllocsPerRun(1, func() {
			for range 40 {
				cycle()
			}
		})
		if allocs != 0 {
			t.Errorf("PER %v: 40 control cycles allocated %v times, want 0", per, allocs)
		}
		if s := med.Stats(); per > 0 && s.DroppedLoss == 0 {
			t.Errorf("PER %v: no frame was lost, so the lossy path went unmeasured", per)
		}
	}
}

// benchFanout times newFanout's control cycle. deliveries/op counts the
// frames handed to receivers, and ns/delivery divides the time of the
// whole cycle by them.
func benchFanout(b *testing.B, per float64) {
	med, cycle := newFanout(b, per)
	before := med.Stats().Delivered
	for b.Loop() {
		cycle()
	}
	delivered := float64(med.Stats().Delivered - before)
	b.ReportMetric(delivered/float64(b.N), "deliveries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/delivered, "ns/delivery")
}

// BenchmarkHealthFanout times one control cycle of the 16-node mesh on a
// lossless channel.
func BenchmarkHealthFanout(b *testing.B) { benchFanout(b, 0) }

// BenchmarkHealthFanoutLossy is BenchmarkHealthFanout at 10% loss, where
// loss draws are made and dropped frames share the recycled buffers.
func BenchmarkHealthFanoutLossy(b *testing.B) { benchFanout(b, 0.1) }
