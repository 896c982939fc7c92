package evm

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"strconv"
	"time"

	"evm/internal/sim"
)

// Sample is one flat telemetry measurement in the vpnctl-Metric style:
// every field is a column, ready for CSV or a TSDB row. A run's samples
// are one cumulative count per event on its (cell, series) pair — per-cell
// load, backbone drops, rollout phases — then one sample per final run
// metric (failover latency, qos_coverage, ...) stamped at the horizon
// with series "metric.<name>". Runner.EventDir and evmd's telemetry
// endpoint both write this one format.
type Sample struct {
	T        float64 `json:"t"` // virtual seconds
	Run      string  `json:"run"`
	Tenant   string  `json:"tenant"`
	Scenario string  `json:"scenario"`
	Seed     uint64  `json:"seed"`
	Cell     string  `json:"cell,omitempty"`
	Series   string  `json:"series"`
	Value    float64 `json:"value"`
}

// Telemetry folds one run's events into Samples. An event's row is its
// virtual time in seconds, the cell it is attributed to ("" outside a
// campus) and its series (EventRow). Sample is the one fold every sample
// surface goes through: Runner.EventDir for a recorded log, evmd for the
// events a run keeps (Keep). Feed it the events in publication order;
// equal-seed runs yield identical samples.
type Telemetry struct {
	run    Sample // the run's identity columns, copied into every sample
	counts map[seriesKey]float64
}

type seriesKey struct{ cell, series string }

// NewTelemetry starts the sample stream of one run, stamping every
// sample with the run and tenant names and the spec's scenario and seed.
func NewTelemetry(run, tenant string, spec RunSpec) *Telemetry {
	return &Telemetry{
		run:    Sample{Run: run, Tenant: tenant, Scenario: spec.Scenario, Seed: spec.Seed},
		counts: make(map[seriesKey]float64),
	}
}

// EventRow returns the telemetry row of an event: its virtual time in
// seconds, the cell a campus stream attributes it to, and its series
// (SeriesName).
func EventRow(ev Event) (t float64, cell, series string) {
	if ce, ok := ev.(CellEvent); ok {
		cell = ce.Cell
	}
	return ev.When().Seconds(), cell, ev.series()
}

// Sample returns the sample of the event's row (EventRow): the count of
// events seen so far on its (cell, series) pair, this one included.
func (t *Telemetry) Sample(ev Event) Sample {
	sm := t.run
	sm.T, sm.Cell, sm.Series = EventRow(ev)
	key := seriesKey{sm.Cell, sm.Series}
	t.counts[key]++
	sm.Value = t.counts[key]
	return sm
}

// AppendMetricSamples appends one "metric.<name>" sample per final run
// metric to dst, stamped at now, in sorted key order, and returns the
// extended slice.
func (t *Telemetry) AppendMetricSamples(dst []Sample, now time.Duration, metrics map[string]float64) []Sample {
	for _, k := range sim.SortedKeys(metrics) {
		sm := t.run
		sm.T = now.Seconds()
		sm.Series = "metric." + k
		sm.Value = metrics[k]
		dst = append(dst, sm)
	}
	return dst
}

// WriteSamplesCSV renders samples as one flat CSV table
// (t,run,tenant,scenario,seed,cell,series,value).
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "run", "tenant", "scenario", "seed", "cell", "series", "value"}); err != nil {
		return err
	}
	for _, sm := range samples {
		rec := []string{
			strconv.FormatFloat(sm.T, 'g', -1, 64),
			sm.Run, sm.Tenant, sm.Scenario,
			strconv.FormatUint(sm.Seed, 10),
			sm.Cell, sm.Series,
			strconv.FormatFloat(sm.Value, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSamplesFile writes samples to the file at path in the
// WriteSamplesCSV format, creating or truncating it.
func WriteSamplesFile(path string, samples []Sample) error {
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, samples); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
