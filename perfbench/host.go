package main

import (
	"encoding/json"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// memMark snapshots the runtime's allocation, GC and CPU-time counters.
type memMark struct {
	ms    runtime.MemStats
	gcCPU float64 // CPU seconds spent in GC
	busy  float64 // CPU seconds spent in anything but idling
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	s := make([]metrics.Sample, len(cpuClasses))
	for i, name := range cpuClasses {
		s[i].Name = name
	}
	metrics.Read(s)
	m.gcCPU = s[0].Value.Float64()
	m.busy = s[1].Value.Float64() - s[2].Value.Float64()
	return m
}

// allocMB is the heap allocated since start, in MiB.
func (m memMark) allocMB(start memMark) float64 {
	return float64(m.ms.TotalAlloc-start.ms.TotalAlloc) / (1 << 20)
}

// gcPct is the share of busy CPU time spent in GC since start, in percent.
func (m memMark) gcPct(start memMark) float64 {
	busy := m.busy - start.busy
	if busy <= 0 {
		return 0
	}
	return (m.gcCPU - start.gcCPU) / busy * 100
}

// liveHeapMB collects garbage and returns the live heap in MiB. Read at
// any other moment, the heap size depends on when the collector last ran,
// and for small heaps on the runtime's 4 MiB minimum heap target: over ten
// seeds it spread by 12 to 15%.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// wallSpans records host wall-clock spans around the benchmark's calls
// into each layer. They stay in memory until the run ends and are then
// written as Chrome trace-event JSON, which Perfetto opens. Only the
// benchmark's main goroutine records them.
type wallSpans struct {
	epoch time.Time
	list  []wallSpan
}

// wallSpan is one Chrome trace-event complete ("X") record; times are
// microseconds since the benchmark started.
type wallSpan struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

func newWallSpans() *wallSpans { return &wallSpans{epoch: time.Now()} }

// add records a span of layer on track tid for the named run; a nil
// recorder records nothing.
func (w *wallSpans) add(name, layer string, tid int, start, end time.Time, run string) {
	if w == nil {
		return
	}
	w.list = append(w.list, wallSpan{
		Name: name, Cat: layer, Ph: "X",
		TS:  float64(start.Sub(w.epoch)) / float64(time.Microsecond),
		Dur: float64(end.Sub(start)) / float64(time.Microsecond),
		PID: 1, TID: tid, Args: map[string]string{"run": run},
	})
}

func (w *wallSpans) write(path string) error {
	data, err := json.Marshal(map[string][]wallSpan{"traceEvents": w.list})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
