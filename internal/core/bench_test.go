package core

import (
	"fmt"
	"testing"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/wire"
)

// BenchmarkHealthFanout times one control cycle of a 16-node mesh: the
// gateway broadcasts a sensor snapshot to the other 15 nodes, the 14
// controllers (a primary and a backup for each of 7 tasks) each run a
// cycle and broadcast a health bundle, and every bundle reaches the 15
// other nodes, of which only the head and the sender's backup read it.
// One op is one 250 ms TDMA frame in steady state; deliveries/op counts
// the frames handed to receivers, and ns/delivery divides the time of
// the whole cycle by them.
func BenchmarkHealthFanout(b *testing.B) {
	const nodes, tasks = 16, 7
	const gw, head radio.NodeID = 1, nodes
	ids := make([]radio.NodeID, nodes)
	for i := range ids {
		ids[i] = radio.NodeID(i + 1)
	}
	eng, med, net := newMesh(b, ids)
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
	graph, err := cfg.TransferGraph()
	if err != nil {
		b.Fatal(err)
	}
	var gwLink *rtlink.Link
	for _, id := range ids {
		link, err := net.Join(id)
		if err != nil {
			b.Fatal(err)
		}
		if id == gw {
			gwLink = link
			continue
		}
		node, err := NewNode(net, link, cfg, graph)
		if err != nil {
			b.Fatal(err)
		}
		node.Start()
	}
	snapshot, err := wire.EncodeSensors(readings)
	if err != nil {
		b.Fatal(err)
	}
	frame := net.Config().FrameDuration()
	net.Start()
	cycle := func() {
		if err := gwLink.Send(rtlink.Message{Dst: radio.Broadcast, Kind: wire.KindSensor, Payload: snapshot}); err != nil {
			b.Fatal(err)
		}
		_ = eng.RunUntil(eng.Now() + frame)
	}
	// Warm up past the first cycles, so every replica has an output and
	// every backup has heard its primary.
	for range 4 {
		cycle()
	}
	before := med.Stats().Delivered
	for b.Loop() {
		cycle()
	}
	delivered := float64(med.Stats().Delivered - before)
	b.ReportMetric(delivered/float64(b.N), "deliveries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/delivered, "ns/delivery")
}
