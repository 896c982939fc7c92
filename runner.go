package evm

import (
	"bytes"
	"fmt"
	"math/bits"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
	"evm/internal/trace"
)

// RunResult is one completed grid point: the spec, the scenario's metrics
// and the event counts observed on the cell's bus. Failed runs carry Err
// and nil metrics.
type RunResult struct {
	Spec    RunSpec
	Err     error
	Metrics map[string]float64
	// Violations holds every invariant breach the Runner's checkers
	// (Runner.Checkers) observed on the live event stream; nil when no
	// checkers were configured or all invariants held.
	Violations []Violation
	// TraceJSON is the run's Chrome-trace-event export (Runner.Trace),
	// loadable in Perfetto / chrome://tracing. Byte-identical across
	// same-seed runs.
	TraceJSON []byte
	// HostWallMS and HostAllocBytes are host-side accounting
	// (Runner.HostStats): wall-clock execution time and the process's
	// TotalAlloc delta over the run. They live outside Metrics because
	// they are nondeterministic, and the alloc delta is process-wide —
	// exact only with Workers=1; concurrent runs bleed into each other.
	HostWallMS     float64
	HostAllocBytes uint64
}

// Metric keys the Runner derives from the event bus and the experiment
// on top of whatever the scenario reports. Every event kind declares the
// counters it bumps next to the kind (MetricFailovers, MetricRebalances,
// ...); the Runner reports each declared counter, zero when unbumped.
const (
	// MetricFirstFailoverS is the virtual time of the first failover in
	// seconds (absent when no failover occurred).
	MetricFirstFailoverS = "first_failover_s"
	// MetricQoSCoverage is the post-horizon control-quality signal from
	// EvaluateQoS: the fraction of tasks with a live Active controller.
	// Reported by every scenario that exposes Experiment.QoS, so
	// health-window gates and evmd dashboards read one shared signal.
	MetricQoSCoverage = "qos_coverage"
	// MetricQoSRedundancy is EvaluateQoS's mean live replicas per task at
	// the horizon (plant-deviation headroom: below 1 the plant has
	// uncovered loops, below 2 a single crash loses coverage).
	MetricQoSRedundancy = "qos_redundancy_mean"
)

// Runner executes a grid of RunSpecs across worker goroutines. Every
// cell's virtual-time engine is single-threaded, so runs shard perfectly:
// N workers give close to N-fold throughput on multi-core hosts, and the
// results are identical to serial execution because each run's
// determinism depends only on its spec.
type Runner struct {
	// Workers is the concurrency (default: GOMAXPROCS).
	Workers int
	// EventDir, when non-empty, writes every run's telemetry to
	// <EventDir>/<sanitized spec label>.csv in the flat Sample format
	// (WriteSamplesCSV): one cumulative (cell, series) count per event,
	// then one "metric.<name>" row per final metric, with the spec label
	// as the run column. Write errors land in RunResult.Err.
	EventDir string
	// Instrument, when non-nil, is invoked once per run on the worker
	// goroutine, after the scenario is built and before the fault plan is
	// applied, so callers can attach live observers (event-bus
	// subscriptions, telemetry taps) to the experiment. The returned
	// finish callback (may be nil) runs with the final metric map after
	// the horizon, once scenario metrics and QoS have been merged —
	// evmd's streaming layer hangs off this hook. Instrument must not
	// advance the experiment itself.
	Instrument func(spec RunSpec, exp *Experiment) func(metrics map[string]float64)
	// Build, when non-nil, resolves every spec instead of the built-in
	// scenario table (BuildScenario). Custom and generated scenarios run
	// this way: the fuzz package's corpus sweeps, pinned multi-hop field
	// and evmd's fuzz submissions.
	Build ScenarioBuilder
	// Checkers, when non-nil, supplies a fresh set of invariant checkers
	// per run. They observe the live event stream (no stored log needed)
	// and their findings land in RunResult.Violations.
	Checkers func() []InvariantChecker
	// Trace enables per-run causal tracing: each run gets a span tracer
	// seeded from its spec seed, the span-derived latency summaries
	// (span_<name>_p50_ms, ...) merge into RunResult.Metrics, and the
	// Chrome-trace JSON export lands in RunResult.TraceJSON.
	Trace bool
	// HostStats enables wall-time and allocation accounting per run,
	// reported in RunResult.HostWallMS / HostAllocBytes.
	HostStats bool
}

// Run executes every spec and returns results in spec order. Individual
// run failures are reported in RunResult.Err; Run itself only allocates.
func (r *Runner) Run(specs []RunSpec) []RunResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]RunResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	//evm:allow-goroutine the Runner is the sanctioned host-side concurrency layer: it fans out whole independent runs, each run's engine stays single-threaded
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//evm:allow-goroutine worker pool over independent runs; results land in per-run slots, no shared simulation state
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = r.RunOne(specs[i])
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// RunOne executes a single spec synchronously on the calling goroutine
// and returns its result. It is the single-run form of Run: evmd's
// admission workers dispatch individual submissions through it while the
// batch grid workflow keeps using Run. It wraps runSpec with optional
// host-side accounting; the wall-time and alloc readings never enter
// Metrics: serial and parallel execution must produce identical metric
// maps, and these depend on the host.
func (r *Runner) RunOne(spec RunSpec) RunResult {
	if !r.HostStats {
		return r.runSpec(spec)
	}
	//evm:allow-wallclock host-side accounting of real execution cost; results stay out of the deterministic metric map
	start := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc
	res := r.runSpec(spec)
	runtime.ReadMemStats(&ms)
	//evm:allow-wallclock host-side accounting of real execution cost; results stay out of the deterministic metric map
	res.HostWallMS = float64(time.Since(start)) / float64(time.Millisecond)
	res.HostAllocBytes = ms.TotalAlloc - allocStart
	return res
}

// runSpec executes a single grid point: build, instrument, fault, run,
// measure, clean up. Single cells and campuses run through the same
// target (Experiment.target).
func (r *Runner) runSpec(spec RunSpec) RunResult {
	res := RunResult{Spec: spec}
	var exp *Experiment
	var err error
	if r.Build != nil {
		exp, err = buildChecked(r.Build, spec)
	} else {
		exp, err = BuildScenario(spec)
	}
	if err != nil {
		res.Err = err
		return res
	}
	if exp.Cleanup != nil {
		defer exp.Cleanup()
	}
	tgt := exp.target()
	var tracer *span.Tracer
	if r.Trace {
		tracer = tgt.EnableTracing(spec.Seed)
	}
	var finish func(map[string]float64)
	if r.Instrument != nil {
		finish = r.Instrument(spec, exp)
	}
	bus := tgt.Events()
	counts := make([]uint64, len(runnerCounters)) // by counter bit; named after the run
	firstFailover := time.Duration(-1)
	sub := bus.Subscribe(func(ev Event) {
		set := ev.counters()
		if set&failoversCounter != 0 && firstFailover < 0 {
			firstFailover = ev.When()
		}
		for ; set != 0; set &= set - 1 {
			counts[bits.TrailingZeros64(uint64(set))]++
		}
	})
	defer sub.Cancel()
	var checkers []InvariantChecker
	if r.Checkers != nil {
		checkers = r.Checkers()
		csub := bus.Subscribe(func(ev Event) {
			for _, c := range checkers {
				c.Observe(ev)
			}
		})
		defer csub.Cancel()
	}
	var log *EventLog
	if r.EventDir != "" {
		log = bus.Log()
		defer log.Close()
	}
	if len(spec.Faults.Steps) > 0 {
		if err := tgt.ApplyFaultPlan(spec.FaultCell, spec.Faults); err != nil {
			res.Err = err
			return res
		}
	}
	horizon := spec.Horizon
	if horizon <= 0 {
		horizon = exp.DefaultHorizon
	}
	if horizon <= 0 {
		horizon = time.Minute
	}
	tgt.Run(horizon)
	res.Metrics = make(map[string]float64, len(runnerCounters))
	for bit, key := range runnerCounters {
		res.Metrics[key] = float64(counts[bit])
	}
	for _, c := range checkers {
		res.Violations = append(res.Violations, c.Violations()...)
	}
	if firstFailover >= 0 {
		res.Metrics[MetricFirstFailoverS] = firstFailover.Seconds()
	}
	if exp.Metrics != nil {
		for k, v := range exp.Metrics() {
			res.Metrics[k] = v
		}
	}
	if exp.QoS != nil {
		rep := exp.QoS()
		res.Metrics[MetricQoSCoverage] = rep.CoverageRatio
		res.Metrics[MetricQoSRedundancy] = rep.RedundancyMean
	}
	if tracer != nil {
		mergeSorted(res.Metrics, TraceMetrics(tracer))
		var buf bytes.Buffer
		res.Err = tracer.WriteJSON(&buf)
		if res.Err == nil {
			res.TraceJSON = buf.Bytes()
		}
	}
	if log != nil {
		tel := NewTelemetry(spec.Label(), "", spec)
		samples := make([]Sample, 0, len(log.events)+len(res.Metrics))
		for _, ev := range log.events {
			samples = append(samples, tel.Sample(ev))
		}
		samples = tel.AppendMetricSamples(samples, tgt.Now(), res.Metrics)
		path := filepath.Join(r.EventDir, sanitizeLabel(spec.Label())+".csv")
		if err := WriteSamplesFile(path, samples); err != nil && res.Err == nil {
			res.Err = err
		}
	}
	if finish != nil {
		finish(res.Metrics)
	}
	return res
}

// sanitizeLabel makes a spec label safe as a file name.
func sanitizeLabel(label string) string {
	return strings.NewReplacer("/", "_", " ", "_", "@", "_").Replace(label)
}

// SpecGrid crosses scenarios x seeds x fault plans into a flat spec list
// (the experiment-grid workflow: hundreds of seeded runs as data). A nil
// or empty plans slice means one fault-free run per scenario/seed pair.
func SpecGrid(scenarios []string, seeds []uint64, plans []FaultPlan, horizon time.Duration) []RunSpec {
	if len(plans) == 0 {
		plans = []FaultPlan{{}}
	}
	specs := make([]RunSpec, 0, len(scenarios)*len(seeds)*len(plans))
	for _, sc := range scenarios {
		for _, seed := range seeds {
			for _, plan := range plans {
				specs = append(specs, RunSpec{Scenario: sc, Seed: seed, Horizon: horizon, Faults: plan})
			}
		}
	}
	return specs
}

// MetricSummary aggregates one metric across the runs that reported it.
// P50/P95/P99 are nearest-rank percentiles over the per-run values, so a
// sweep's tail behavior (one slow failover among fifty runs) is visible
// next to the mean.
type MetricSummary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	P50  float64
	P95  float64
	P99  float64
}

func (m MetricSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p95=%.3f p99=%.3f",
		m.N, m.Mean, m.Min, m.Max, m.P50, m.P95, m.P99)
}

// Aggregate groups successful results by scenario and summarizes every
// metric. The outer key is the scenario name, the inner key the metric.
func Aggregate(results []RunResult) map[string]map[string]MetricSummary {
	// Collect per-metric value lists in result order; all arithmetic
	// (including the mean's float sum) happens in trace.Summarize over
	// the sorted copy, so equal result sets aggregate byte-identically.
	vals := make(map[string]map[string][]float64)
	for _, r := range results {
		if r.Err != nil || r.Metrics == nil {
			continue
		}
		byMetric := vals[r.Spec.Scenario]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			vals[r.Spec.Scenario] = byMetric
		}
		for _, k := range sim.SortedKeys(r.Metrics) {
			byMetric[k] = append(byMetric[k], r.Metrics[k])
		}
	}
	out := make(map[string]map[string]MetricSummary, len(vals))
	for _, sc := range sim.SortedKeys(vals) {
		byMetric := vals[sc]
		out[sc] = make(map[string]MetricSummary, len(byMetric))
		for _, k := range sim.SortedKeys(byMetric) {
			st := trace.Summarize(byMetric[k])
			out[sc][k] = MetricSummary{
				N: st.N, Mean: st.Mean, Min: st.Min, Max: st.Max,
				P50: st.P50, P95: st.P95, P99: st.P99,
			}
		}
	}
	return out
}
