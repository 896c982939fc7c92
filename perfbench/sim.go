package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"evm"
)

// job is one simulation run of a workload round.
type job struct {
	spec  evm.RunSpec
	build evm.ScenarioBuilder // nil builds spec.Scenario from the registry
	// faultAt, when set, is when the spec's fault plan hits the LTS
	// primary; the run then adds one fail-over latency sample.
	faultAt time.Duration
	// check asserts the run's workload-specific outcome.
	check func(res evm.RunResult, o *observer) error
}

// observer follows one run's event stream.
type observer struct {
	failoverAt   time.Duration // first fail-over of the LTS loop away from Ctrl-A
	rolloutStart time.Duration
	rolloutDone  time.Duration
}

func (o *observer) observe(ev evm.Event) {
	if ce, ok := ev.(evm.CellEvent); ok {
		ev = ce.Inner
	}
	switch e := ev.(type) {
	case evm.FailoverEvent:
		if o.failoverAt < 0 && e.Task == evm.LTSTaskID && e.From == evm.GasCtrlAID {
			o.failoverAt = e.At
		}
	case evm.RolloutEvent:
		switch e.Phase {
		case evm.RolloutPhaseStart:
			o.rolloutStart = e.At
		case evm.RolloutPhaseComplete:
			o.rolloutDone = e.At
		}
	}
}

// round is one pass over a workload's jobs.
type round struct {
	runs      int
	wall      time.Duration    // summed Runner.RunOne host time
	virt      time.Duration    // summed simulated time
	runMS     []float64        // host ms per run, by job
	buildMS   []float64        // host ms per scenario construction, by job
	replayMS  float64          // host ms of the CheckEvents replays
	work      map[string]int64 // exact work counters, summed over runs
	failovers []float64        // virtual ms from fault to LTS fail-over
	rollouts  []float64        // virtual s from rollout start to completion
	spans     map[string]int64 // spans recorded, by name (traced)
	stagesMS  []float64        // virtual rollout-stage durations (traced)
}

// runnerCounts are work counters the Runner already derives from the
// event bus or from the scenario's own metrics.
var runnerCounts = map[string]string{
	"federation.intercell_migrations": evm.MetricInterCellMigrations,
	"federation.rebalance_aborts":     evm.MetricRebalanceAborts,
	"ota.capsule_frames":              evm.MetricCapsuleFrames,
	"ota.rollbacks":                   evm.MetricRollbacks,
	"gateway.actuations_ok":           "actuations_ok",
	"gateway.actuations_denied":       "actuations_denied",
}

// maxSpans lifts the tracer's span cap above the span count of the
// longest run; a capped trace would undercount.
const maxSpans = 4_000_000

// checkers is the live oracle every simulated run is checked by.
func checkers() []evm.InvariantChecker {
	return append(evm.DefaultInvariants(), evm.TimingInvariants(0, 0)...)
}

func events(exp *evm.Experiment) *evm.Bus {
	if exp.Campus != nil {
		return exp.Campus.Events()
	}
	return exp.Cell.Events()
}

// simWorkload measures a simulated workload whose round is jobs, repeated
// with identical inputs until the time budget is spent.
func (b *bench) simWorkload(jobs []job) {
	ref := b.runRound(jobs, false) // warm-up; its counters are the reference
	if b.traced {
		b.layers(jobs, ref, func(budget time.Duration) int {
			runs := 0
			repeat(budget, func() {
				r := b.runRound(jobs, false)
				b.sameWork(ref, r)
				runs += r.runs
			})
			return runs
		})
		return
	}
	runtime.GC()
	start := markMem()
	var rounds []*round
	runs := 0
	repeat(b.budget, func() {
		r := b.runRound(jobs, false)
		b.sameWork(ref, r)
		rounds = append(rounds, r)
		runs += r.runs
	})
	end := markMem()
	builds := fastest(len(jobs), rounds, func(r *round) []float64 { return r.buildMS })
	b.values["setup_s"] = sum(builds) / 1000
	b.runTimes(fastest(len(jobs), rounds, func(r *round) []float64 { return r.runMS }), ref.virt)
	b.values["alloc_mb"] = end.allocMB(start) / float64(max(runs, 1))
	b.heapPass = true
	b.sameWork(ref, b.runRound(jobs, false))
	b.heapPass = false
	b.values["peak_heap_mb"] = b.peakHeapMB
}

// fastest returns, for each of n distinct inputs, the smallest of its
// samples over the rounds; samples lists a round's samples by input.
//
// The shared 2-CPU host the benchmark was built on changes speed by up to
// 1.6x in spells of a fraction of a second to minutes. CPU time follows
// wall time, so the slowdown is not steal time. The fastest repeat of an
// input is the run least disturbed: over five 20-second windows of the
// same 40 E2 trials, the fastest repeat ranged over 10% and the mean over
// 35%.
func fastest(n int, rounds []*round, samples func(*round) []float64) []float64 {
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
		for _, r := range rounds {
			best[i] = min(best[i], samples(r)[i])
		}
	}
	return best
}

// runTimes reports the run-time metrics from best, the fastest host ms
// seen for each distinct input, and virt, the simulated time of one run
// of every input.
func (b *bench) runTimes(best []float64, virt time.Duration) {
	b.values["run_ms_p50"] = quantile(best, 0.5)
	b.values["run_ms_p90"] = quantile(best, 0.9)
	b.values["sim_x"] = virt.Seconds() / (sum(best) / 1000)
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// runRound runs every job once, in order. A traced round also turns on
// dispatch-level span tracing, counted per run, and replays each run's
// event stream through CheckEvents.
func (b *bench) runRound(jobs []job, traced bool) *round {
	r := &round{work: make(map[string]int64)}
	if traced {
		r.spans = make(map[string]int64)
	}
	for _, j := range jobs {
		b.runJob(j, traced, r)
	}
	return r
}

// runJob runs one job through the Runner under the live invariant
// checkers, checks its outcome and folds it into r.
func (b *bench) runJob(j job, traced bool, r *round) {
	build := j.build
	if build == nil {
		build = evm.BuildScenario
	}
	o := observer{failoverAt: -1, rolloutStart: -1, rolloutDone: -1}
	var (
		built, simStart, simEnd time.Time
		log                     *evm.EventLog
		countSpans              func() error
	)
	runner := &evm.Runner{
		Workers:  1,
		Checkers: checkers,
		Build: func(spec evm.RunSpec) (*evm.Experiment, error) {
			exp, err := build(spec)
			built = time.Now()
			return exp, err
		},
		Instrument: func(spec evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			simStart = time.Now()
			bus := events(exp)
			sub := bus.Subscribe(o.observe)
			if traced {
				log = bus.Log()
				countSpans = traceSpans(exp, spec.Seed, r)
			}
			return func(map[string]float64) {
				sub.Cancel()
				addWork(r.work, exp)
				if b.heapPass {
					b.peakHeapMB = max(b.peakHeapMB, liveHeapMB())
				}
				simEnd = time.Now()
			}
		},
	}
	start := time.Now()
	res := runner.RunOne(j.spec)
	end := time.Now()
	r.runMS = append(r.runMS, ms(end.Sub(start)))
	r.buildMS = append(r.buildMS, ms(built.Sub(start)))
	b.attempted++
	label := j.spec.Label()
	if res.Err != nil {
		b.fail("%s: %v", label, res.Err)
		return
	}
	if n := len(res.Violations); n > 0 {
		b.fail("%s: %d invariant violations, first: %v", label, n, res.Violations[0])
	}
	if j.check != nil {
		if err := j.check(res, &o); err != nil {
			b.fail("%s: %v", label, err)
		}
	}
	r.runs++
	r.wall += end.Sub(start)
	r.virt += j.spec.Horizon
	for name, key := range runnerCounts {
		r.work[name] += int64(res.Metrics[key])
	}
	if j.faultAt > 0 && o.failoverAt >= j.faultAt {
		r.failovers = append(r.failovers, ms(o.failoverAt-j.faultAt))
	}
	if o.rolloutStart >= 0 && o.rolloutDone >= 0 {
		r.rollouts = append(r.rollouts, (o.rolloutDone - o.rolloutStart).Seconds())
	}
	b.spans.add("run", "runner", 1, start, end, label)
	b.spans.add("build", "runner", 1, start, built, label)
	b.spans.add("fault plan, Run, metrics and QoS", "evm", 1, simStart, simEnd, label)
	if countSpans != nil {
		if err := countSpans(); err != nil {
			b.fail("%s: %v", label, err)
		}
	}
	if log != nil {
		replayStart := time.Now()
		vs := evm.CheckEvents(log.Events(), checkers()...)
		replayEnd := time.Now()
		log.Close()
		r.replayMS += ms(replayEnd.Sub(replayStart))
		b.spans.add("CheckEvents", "invariants", 1, replayStart, replayEnd, label)
		if len(vs) != len(res.Violations) {
			b.fail("%s: the replay found %d violations, live checking %d", label, len(vs), len(res.Violations))
		}
	}
}

// traceSpans turns on dispatch-level tracing for one run and returns a
// function that counts the run's spans into r once it is over.
func traceSpans(exp *evm.Experiment, seed uint64, r *round) func() error {
	enable := exp.Cell.EnableTracing
	if exp.Campus != nil {
		enable = exp.Campus.EnableTracing
	}
	t := enable(seed)
	t.SetDispatch(true)
	t.SetMaxSpans(maxSpans)
	return func() error {
		if n := t.Dropped(); n > 0 {
			return fmt.Errorf("the span cap dropped %d spans", n)
		}
		for _, s := range t.Spans() {
			r.spans[s.Name]++
		}
		r.stagesMS = append(r.stagesMS, t.DurationsMS("rollout-stage")...)
		return nil
	}
}

// addWork adds one run's layer counters, read from each layer's Stats
// accessor at the horizon, to w.
func addWork(w map[string]int64, exp *evm.Experiment) {
	cells := []*evm.Cell{exp.Cell}
	if exp.Campus != nil {
		cells = exp.Campus.Cells()
		bb := exp.Campus.Backbone().Stats()
		w["backbone.sent"] += int64(bb.Sent)
		w["backbone.delivered"] += int64(bb.Delivered)
		w["backbone.dropped"] += int64(bb.Dropped)
		w["backbone.forwarded"] += int64(bb.Forwarded)
	}
	for _, c := range cells {
		rs := c.Medium().Stats()
		w["radio.sent"] += int64(rs.Sent)
		w["radio.delivered"] += int64(rs.Delivered)
		w["radio.dropped"] += int64(rs.DroppedLoss + rs.DroppedColl + rs.DroppedNoRX + rs.DroppedRange)
		w["rtlink.frames"] += int64(c.Network().Frame())
		for _, id := range c.Members() {
			l := c.Network().Link(id)
			if l == nil {
				continue
			}
			ls := l.Stats()
			w["rtlink.msgs_sent"] += int64(ls.MsgsSent)
			w["rtlink.msgs_delivered"] += int64(ls.MsgsDelivered)
			w["rtlink.frags_sent"] += int64(ls.FragsSent)
			w["rtlink.frags_relayed"] += int64(ls.FragsRelayed)
			w["rtlink.queue_drops"] += int64(ls.QueueDrops)
			w["rtlink.reserve_deferrals"] += int64(ls.ReserveDeferrals)
		}
		for _, n := range c.Nodes() {
			ns := n.Stats()
			w["core.cycles_run"] += int64(ns.CyclesRun)
			w["core.health_sent"] += int64(ns.HealthSent)
			w["core.stale_inputs"] += int64(ns.StaleInputs)
			w["core.send_errors"] += int64(ns.SendErrors)
			if h := n.Head(); h != nil {
				hs := h.Stats()
				w["core.failovers"] += int64(hs.Failovers)
				w["core.reports_ignored"] += int64(hs.ReportsIgnored)
			}
		}
	}
}

// sameWork fails the run when a repeat of the same inputs did not
// reproduce the reference round's work counters and virtual timings.
func (b *bench) sameWork(ref, r *round) {
	if !reflect.DeepEqual(ref.work, r.work) || !reflect.DeepEqual(ref.failovers, r.failovers) ||
		!reflect.DeepEqual(ref.rollouts, r.rollouts) {
		b.fail("nondeterminism: repeating the round's inputs changed its work counters")
	}
}

// layers fills the per-layer ledger. ref holds the exact counters of one
// round of jobs. profiled runs the workload under the CPU profiler for a
// budget and returns how many runs it made; untraced and traced rounds of
// jobs then alternate for the span counts and the tracing overhead.
func (b *bench) layers(jobs []job, ref *round, profiled func(time.Duration) int) {
	b.ledger(ref)
	runtime.GC()
	start := markMem()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.fail("cpu profile: %v", err)
		return
	}
	runs := max(profiled(b.budget/2), 1)
	pprof.StopCPUProfile()
	end := markMem()
	b.profile = prof.Bytes()
	shares, err := hostShares(b.profile)
	if err != nil {
		b.fail("cpu profile: %v", err)
	}
	for layer, share := range shares {
		b.values["host_share."+layer] = share
	}
	b.values["host.allocs_k"] = float64(end.ms.Mallocs-start.ms.Mallocs) / float64(runs) / 1000
	b.values["host.gc_cycles"] = float64(end.ms.NumGC-start.ms.NumGC) / float64(runs)
	b.values["host.gc_cpu_pct"] = end.gcPct(start)

	var plain, traced []*round
	repeat(b.budget/2, func() {
		p := b.runRound(jobs, false)
		t := b.runRound(jobs, true)
		b.sameWork(ref, p)
		b.sameWork(ref, t)
		if len(traced) > 0 && (!reflect.DeepEqual(traced[0].spans, t.spans) ||
			!reflect.DeepEqual(traced[0].stagesMS, t.stagesMS)) {
			b.fail("nondeterminism: repeating the round's inputs changed its span counts")
		}
		plain, traced = append(plain, p), append(traced, t)
	})
	first := traced[0]
	plainWall := medianWall(plain)
	b.values["sim.events"] = float64(first.spans["dispatch"])
	b.values["sim.ns_per_event"] = plainWall / float64(max(first.spans["dispatch"], 1))
	b.values["span.overhead_pct"] = (medianWall(traced)/plainWall - 1) * 100
	b.values["federation.escalations"] = float64(first.spans["escalation"])
	b.values["federation.handshakes"] = float64(first.spans["handshake"])
	b.values["ota.stage_ms_p95"] = quantile(first.stagesMS, 0.95)
	var replay, build []float64
	for _, t := range traced {
		replay = append(replay, t.replayMS)
	}
	for _, p := range plain {
		build = append(build, p.buildMS...)
	}
	b.values["invariants.check_ms"] = quantile(replay, 0.5)
	b.values["runner.build_ms_p50"] = quantile(build, 0.5)
}

// ledger reports a round's exact counters and the virtual timings and
// ratios derived from them.
func (b *bench) ledger(r *round) {
	for name, v := range r.work {
		b.values[name] = float64(v)
	}
	w := r.work
	b.values["radio.delivery_ratio"] = ratio(w["radio.delivered"], w["radio.delivered"]+w["radio.dropped"])
	b.values["rtlink.msg_delivery_ratio"] = ratio(w["rtlink.msgs_delivered"], w["rtlink.msgs_sent"])
	b.values["backbone.delivery_ratio"] = ratio(w["backbone.delivered"], w["backbone.sent"])
	b.values["core.failover_ms_p50"] = quantile(r.failovers, 0.5)
	b.values["core.failover_ms_p90"] = quantile(r.failovers, 0.9)
	b.values["ota.rollout_s"] = quantile(r.rollouts, 0.5)
}

// medianWall is the median host time of the rounds, in ns.
func medianWall(rounds []*round) float64 {
	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i] = float64(r.wall)
	}
	return quantile(walls, 0.5)
}
