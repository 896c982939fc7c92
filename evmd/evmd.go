// Package evmd is the campus-as-a-service daemon: a long-running,
// multi-tenant front end over the evm library. Tenants submit scenario
// runs over HTTP (POST /v1/runs); an admission-controlled worker pool
// executes them through the existing evm.Runner one spec at a time, so
// every run keeps the library's per-run RNG/engine isolation and its
// byte-identical-per-seed event stream — concurrency changes throughput,
// never results. Each run's typed event bus is re-published as a
// streaming subscription (SSE or NDJSON) and as flat, CSV/TSDB-friendly
// telemetry samples; per-run and per-tenant status snapshots round out
// the observation surface.
package evmd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evm"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds run concurrency (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue across all tenants; further
	// submissions are rejected with backpressure (HTTP 429). Default 1024.
	QueueDepth int
	// TenantQueueDepth bounds one tenant's share of the queue so a noisy
	// tenant cannot occupy it wholesale (default: QueueDepth, i.e. off).
	TenantQueueDepth int
	// EventDir, when non-empty, flushes every completed run's telemetry
	// samples to <EventDir>/<run ID>.csv, byte-identical to the run's
	// GET /v1/runs/{id}/telemetry?format=csv. A failed flush fails the
	// run with the write error.
	EventDir string
	// DrainTimeout bounds Drain when the caller passes zero (default 30s).
	DrainTimeout time.Duration
	// RunTTL, when positive, evicts finished runs (done/failed/cancelled)
	// from the run table once they have been finished this long. Evicted
	// runs answer HTTP 410 Gone. Zero keeps runs forever.
	RunTTL time.Duration
	// MaxRuns, when positive, caps the run table: whenever it grows past
	// the cap, the oldest finished runs are evicted until it fits (live
	// runs are never evicted, so the table may transiently exceed the cap
	// under a burst of in-flight work). Zero means unbounded.
	MaxRuns int
	// MaxHorizon caps a submitted run's virtual horizon; a spec asking
	// for more is refused at admission (HTTP 400 naming the cap). A zero
	// horizon means the scenario's default, which the cap does not
	// bound. Default DefaultMaxHorizon (one hour of virtual time).
	MaxHorizon time.Duration
	// Clock supplies the host time used for run timestamps, TTL eviction
	// and drain timeouts. Nil means the real wall clock; tests inject a
	// fake so TTL behavior is exercised without sleeping.
	Clock Clock
	// Trace enables per-run causal tracing: each run records seeded
	// virtual-time spans, span-derived latency metrics join the run's
	// metric map, and the Chrome-trace JSON is served at
	// GET /v1/runs/{id}/trace until the run is evicted.
	Trace bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// daemon handler. Off by default: profiling endpoints expose host
	// internals and belong behind an operator flag.
	EnablePprof bool
}

// DefaultMaxHorizon is Config.MaxHorizon when none is set: an hour of
// virtual time, far past every built-in scenario's default horizon.
const DefaultMaxHorizon = time.Hour

// Clock abstracts the host wall clock at the daemon boundary. The
// simulation itself never sees it — runs advance on virtual time — but
// admission timestamps, TTL eviction and drain timeouts are genuinely
// host-side concerns, and injecting the clock lets tests drive them
// deterministically.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

//evm:allow-wallclock host boundary: evmd stamps real submission/start/finish times when no fake clock is injected
func (realClock) Now() time.Time { return time.Now() }

//evm:allow-wallclock host boundary: real drain timeout when no fake clock is injected
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.TenantQueueDepth <= 0 || c.TenantQueueDepth > c.QueueDepth {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = DefaultMaxHorizon
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// RunState is a run's lifecycle phase.
type RunState string

// Run lifecycle states.
const (
	RunQueued    RunState = "queued"
	RunRunning   RunState = "running"
	RunDone      RunState = "done"
	RunFailed    RunState = "failed"
	RunCancelled RunState = "cancelled"
)

// Run is one admitted submission. Mutable fields are guarded by mu; the
// identity fields (ID, Tenant, Spec) are immutable after admission.
type Run struct {
	ID     string
	Tenant string
	Spec   evm.RunSpec

	// build resolves Spec (nil = the fixed scenario table). A fuzz run
	// carries its generated batch's builder, so the generated specs live
	// and are evicted with their runs.
	build  evm.ScenarioBuilder
	stream *stream

	mu          sync.Mutex
	state       RunState
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cells       []CellStatus
	trace       []byte // Chrome-trace JSON (Config.Trace)
	allocBytes  uint64 // host alloc delta over the run
	err         string
}

// CellStatus is one row of a run's NodeStatus-style cell table.
type CellStatus struct {
	Cell    string `json:"cell"`
	Members int    `json:"members"`
	Nodes   int    `json:"nodes"`
}

// RunStatus is the wire snapshot of a run (GET /v1/runs/{id}).
type RunStatus struct {
	ID          string             `json:"id"`
	Tenant      string             `json:"tenant"`
	Scenario    string             `json:"scenario"`
	Seed        uint64             `json:"seed"`
	Label       string             `json:"label"`
	State       RunState           `json:"state"`
	SubmittedAt time.Time          `json:"submitted_at"`
	StartedAt   *time.Time         `json:"started_at,omitempty"`
	FinishedAt  *time.Time         `json:"finished_at,omitempty"`
	QueueWaitMS float64            `json:"queue_wait_ms"`
	WallMS      float64            `json:"wall_ms"`
	AllocBytes  uint64             `json:"alloc_bytes,omitempty"`
	Trace       bool               `json:"trace,omitempty"`
	Events      int                `json:"events"`
	Samples     int                `json:"samples"`
	Cells       []CellStatus       `json:"cells,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func (r *Run) snapshot() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:          r.ID,
		Tenant:      r.Tenant,
		Scenario:    r.Spec.Scenario,
		Seed:        r.Spec.Seed,
		Label:       r.Spec.Label(),
		State:       r.state,
		SubmittedAt: r.submittedAt,
		Cells:       append([]CellStatus(nil), r.cells...),
		Error:       r.err,
	}
	if !r.startedAt.IsZero() {
		t := r.startedAt
		st.StartedAt = &t
		st.QueueWaitMS = float64(r.startedAt.Sub(r.submittedAt)) / float64(time.Millisecond)
	}
	if !r.finishedAt.IsZero() {
		t := r.finishedAt
		st.FinishedAt = &t
		st.WallMS = float64(r.finishedAt.Sub(r.startedAt)) / float64(time.Millisecond)
	}
	st.AllocBytes = r.allocBytes
	st.Trace = len(r.trace) > 0
	if metrics := r.stream.final(); metrics != nil {
		st.Metrics = make(map[string]float64, len(metrics))
		for k, v := range metrics {
			st.Metrics[k] = v
		}
	}
	st.Events, st.Samples = r.stream.lens()
	return st
}

// State returns the run's current lifecycle state.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Stats is the daemon-wide counter snapshot (GET /v1/stats).
type Stats struct {
	Workers             int   `json:"workers"`
	QueueDepth          int   `json:"queue_depth"`
	PeakQueueDepth      int   `json:"peak_queue_depth"`
	QueueBound          int   `json:"queue_bound"`
	Running             int   `json:"running"`
	Accepted            int64 `json:"accepted"`
	RejectedBackpressur int64 `json:"rejected_backpressure"`
	RejectedDraining    int64 `json:"rejected_draining"`
	Completed           int64 `json:"completed"`
	Failed              int64 `json:"failed"`
	Panics              int64 `json:"panics"`
	Cancelled           int64 `json:"cancelled"`
	Evicted             int64 `json:"evicted"`
	Draining            bool  `json:"draining"`
}

// Server owns the tenant fleet: the run table, the fair admission queue
// and the worker pool. Create one with NewServer and mount Handler on an
// http.Server; call Drain on shutdown.
type Server struct {
	cfg   Config
	queue *fairQueue

	mu      sync.Mutex
	seq     int
	runs    map[string]*Run
	order   []string // run IDs in admission order
	tenants map[string][]*Run

	running  atomic.Int64
	accepted atomic.Int64
	rejected atomic.Int64 // backpressure
	refused  atomic.Int64 // draining
	done     atomic.Int64
	failed   atomic.Int64
	panics   atomic.Int64 // failed runs that panicked
	cancels  atomic.Int64
	evicted  atomic.Int64
	draining atomic.Bool

	// Scrape-surface instruments (GET /metrics).
	admitHist   *histogram   // POST /v1/runs handler latency, seconds
	runWallHist *histogram   // per-run wall execution time, seconds
	streamSubs  atomic.Int64 // open event-stream subscriptions

	workers sync.WaitGroup
}

// NewServer builds the daemon and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		queue:       newFairQueue(cfg.QueueDepth, cfg.TenantQueueDepth),
		runs:        make(map[string]*Run),
		tenants:     make(map[string][]*Run),
		admitHist:   newHistogram(admissionBuckets()...),
		runWallHist: newHistogram(runWallBuckets()...),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for {
				run, ok := s.queue.pop()
				if !ok {
					return
				}
				s.execute(run)
			}
		}()
	}
	return s
}

// Admission errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is backpressure: the admission queue (or the tenant's
	// share of it) is at its bound.
	ErrQueueFull = errors.New("evmd: admission queue full")
	// ErrDraining means the daemon is shutting down and refuses new work.
	ErrDraining = errors.New("evmd: draining, not accepting submissions")
)

// placementPolicies is the fixed table of placement policy names a
// submission may set.
var placementPolicies = evm.PlacementPolicies()

// Submit admits one run per spec, all under the same tenant, atomically:
// either every spec is queued or none is (ErrQueueFull/ErrDraining).
// Every spec must name a built-in scenario, ask for no more than
// Config.MaxHorizon, and set its placement policy, if at all, to one of
// evm.PlacementPolicies.
func (s *Server) Submit(tenant string, specs ...evm.RunSpec) ([]*Run, error) {
	return s.admit(tenant, nil, specs)
}

// admit is Submit for runs that carry build (nil = the fixed scenario
// table, whose names are checked before admission). Horizons and
// placement policy names are checked either way.
func (s *Server) admit(tenant string, build evm.ScenarioBuilder, specs []evm.RunSpec) ([]*Run, error) {
	if tenant == "" {
		tenant = "default"
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("evmd: submission carries no specs")
	}
	if s.draining.Load() {
		s.refused.Add(int64(len(specs)))
		return nil, ErrDraining
	}
	for _, spec := range specs {
		if build == nil {
			if _, err := evm.LookupScenario(spec.Scenario); err != nil {
				return nil, fmt.Errorf("evmd: unknown scenario %q", spec.Scenario)
			}
		}
		if spec.Horizon > s.cfg.MaxHorizon {
			return nil, fmt.Errorf("evmd: horizon %v exceeds the daemon's cap of %v (horizon_ms at most %d)",
				spec.Horizon, s.cfg.MaxHorizon, s.cfg.MaxHorizon.Milliseconds())
		}
		if spec.Policy != "" && !slices.Contains(placementPolicies, spec.Policy) {
			return nil, fmt.Errorf("evmd: unknown placement policy %q", spec.Policy)
		}
	}
	now := s.cfg.Clock.Now()
	s.mu.Lock()
	runs := make([]*Run, len(specs))
	for i, spec := range specs {
		s.seq++
		id := fmt.Sprintf("r-%06d", s.seq)
		runs[i] = &Run{
			ID:          id,
			Tenant:      tenant,
			Spec:        spec,
			build:       build,
			state:       RunQueued,
			submittedAt: now,
			stream:      newStream(),
		}
	}
	s.mu.Unlock()
	if err := s.queue.pushAll(runs); err != nil {
		if errors.Is(err, ErrQueueFull) {
			s.rejected.Add(int64(len(specs)))
		} else {
			s.refused.Add(int64(len(specs)))
		}
		return nil, err
	}
	s.mu.Lock()
	for _, run := range runs {
		s.runs[run.ID] = run
		s.order = append(s.order, run.ID)
		s.tenants[tenant] = append(s.tenants[tenant], run)
	}
	s.evictLocked(s.cfg.Clock.Now())
	s.mu.Unlock()
	s.accepted.Add(int64(len(specs)))
	return runs, nil
}

// evictLocked enforces Config.RunTTL and Config.MaxRuns over the run
// table. Only finished runs are candidates; they leave in admission
// order, so the table always keeps the most recent history. Callers
// hold s.mu. Returns how many runs were evicted.
func (s *Server) evictLocked(now time.Time) int {
	if s.cfg.RunTTL <= 0 && s.cfg.MaxRuns <= 0 {
		return 0
	}
	finished := func(r *Run) (time.Time, bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		switch r.state {
		case RunDone, RunFailed, RunCancelled:
			return r.finishedAt, true
		}
		return time.Time{}, false
	}
	evict := make(map[string]bool)
	if s.cfg.RunTTL > 0 {
		for _, id := range s.order {
			if at, ok := finished(s.runs[id]); ok && now.Sub(at) >= s.cfg.RunTTL {
				evict[id] = true
			}
		}
	}
	if s.cfg.MaxRuns > 0 {
		excess := len(s.runs) - len(evict) - s.cfg.MaxRuns
		for _, id := range s.order {
			if excess <= 0 {
				break
			}
			if evict[id] {
				continue
			}
			if _, ok := finished(s.runs[id]); ok {
				evict[id] = true
				excess--
			}
		}
	}
	if len(evict) == 0 {
		return 0
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if evict[id] {
			delete(s.runs, id)
		} else {
			kept = append(kept, id)
		}
	}
	s.order = kept
	for tenant, runs := range s.tenants {
		keptRuns := runs[:0]
		for _, r := range runs {
			if !evict[r.ID] {
				keptRuns = append(keptRuns, r)
			}
		}
		s.tenants[tenant] = keptRuns
	}
	s.evicted.Add(int64(len(evict)))
	return len(evict)
}

// EvictNow applies the eviction policy immediately (it otherwise runs
// on every admission and completion) and reports how many runs left
// the table.
func (s *Server) EvictNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked(s.cfg.Clock.Now())
}

// lookupRun distinguishes a live run, an evicted run, and an ID the
// daemon never issued. Run IDs are sequential, so any well-formed ID
// at or below the admission sequence that is no longer in the table
// must have been evicted — that is the HTTP 410 watermark.
func (s *Server) lookupRun(id string) (run *Run, evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok {
		return r, false
	}
	var n int
	if _, err := fmt.Sscanf(id, "r-%06d", &n); err == nil && n >= 1 && n <= s.seq {
		return nil, true
	}
	return nil, false
}

// execute runs one admitted submission on the calling worker goroutine.
func (s *Server) execute(run *Run) {
	s.running.Add(1)
	defer s.running.Add(-1)
	run.mu.Lock()
	run.state = RunRunning
	run.startedAt = s.cfg.Clock.Now()
	run.mu.Unlock()

	runner := &evm.Runner{
		Workers:   1,
		Build:     run.build,
		Trace:     s.cfg.Trace,
		HostStats: true,
		Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			var cells []CellStatus
			for _, c := range exp.Cells() {
				name := c.Name()
				if name == "" {
					name = "cell"
				}
				cells = append(cells, CellStatus{Cell: name, Members: len(c.Members()), Nodes: len(c.Nodes())})
			}
			run.mu.Lock()
			run.cells = cells
			run.mu.Unlock()
			sub := exp.Events().Subscribe(run.stream.observe)
			return func(metrics map[string]float64) {
				sub.Cancel()
				run.stream.finalize(exp.Now(), metrics)
			}
		},
	}
	res := s.runOne(runner, run.Spec)
	if res.Err == nil && s.cfg.EventDir != "" {
		res.Err = flushSamples(s.cfg.EventDir, run)
	}

	run.mu.Lock()
	run.finishedAt = s.cfg.Clock.Now()
	run.trace = res.TraceJSON
	run.allocBytes = res.HostAllocBytes
	wall := run.finishedAt.Sub(run.startedAt)
	if res.Err != nil {
		run.state = RunFailed
		run.err = res.Err.Error()
	} else {
		run.state = RunDone
	}
	run.mu.Unlock()
	s.runWallHist.observe(wall.Seconds())
	run.stream.close()
	if res.Err != nil {
		s.failed.Add(1)
	} else {
		s.done.Add(1)
	}
	s.mu.Lock()
	s.evictLocked(s.cfg.Clock.Now())
	s.mu.Unlock()
}

// runOne runs one spec, turning a panic anywhere in it (scenario
// builder, policy, simulation) into a failed result carrying the panic
// value and stack, so one bad run cannot take the daemon down.
func (s *Server) runOne(runner *evm.Runner, spec evm.RunSpec) (res evm.RunResult) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			res = evm.RunResult{Spec: spec, Err: fmt.Errorf("evmd: run panicked: %v\n%s", v, debug.Stack())}
		}
	}()
	return runner.RunOne(spec)
}

// flushSamples writes the run's telemetry to <dir>/<run ID>.csv: the
// bytes GET /v1/runs/{id}/telemetry?format=csv serves for the run.
func flushSamples(dir string, run *Run) error {
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		err = evm.WriteSamplesFile(filepath.Join(dir, run.ID+".csv"), run.Samples())
	}
	if err != nil {
		return fmt.Errorf("evmd: flush telemetry: %w", err)
	}
	return nil
}

// Run returns the run record by ID (nil when unknown).
func (s *Server) Run(id string) *Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

// Runs returns every run snapshot in admission order, optionally filtered
// by tenant and state ("" = no filter).
func (s *Server) Runs(tenant string, state RunState) []RunStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	runs := s.runs
	out := make([]RunStatus, 0, len(ids))
	for _, id := range ids {
		r := runs[id]
		if tenant != "" && r.Tenant != tenant {
			continue
		}
		out = append(out, r.snapshot())
	}
	s.mu.Unlock()
	if state == "" {
		return out
	}
	filtered := out[:0]
	for _, st := range out {
		if st.State == state {
			filtered = append(filtered, st)
		}
	}
	return filtered
}

// TenantStatus is the wire snapshot of one tenant (GET /v1/tenants/{id}):
// a NodeStatus-style table of the tenant's runs plus rollup counters.
type TenantStatus struct {
	Tenant string             `json:"tenant"`
	Counts map[RunState]int   `json:"counts"`
	Active []RunStatus        `json:"active"`
	Recent []RunStatus        `json:"recent"`
	Totals map[string]float64 `json:"totals,omitempty"`
}

// Tenant snapshots one tenant. Active lists queued+running runs; Recent
// the last finished ones (up to 20); Totals sums selected metrics over
// every finished run (actuations, failovers, qos_coverage mean).
func (s *Server) Tenant(tenant string) TenantStatus {
	s.mu.Lock()
	runs := append([]*Run(nil), s.tenants[tenant]...)
	s.mu.Unlock()
	st := TenantStatus{Tenant: tenant, Counts: make(map[RunState]int)}
	var finished []RunStatus
	totals := make(map[string]float64)
	qosN := 0
	for _, r := range runs {
		snap := r.snapshot()
		st.Counts[snap.State]++
		switch snap.State {
		case RunQueued, RunRunning:
			st.Active = append(st.Active, snap)
		default:
			finished = append(finished, snap)
			for _, k := range []string{evm.MetricActuations, evm.MetricFailovers, evm.MetricBackboneDropped} {
				totals[k] += snap.Metrics[k]
			}
			if v, ok := snap.Metrics[evm.MetricQoSCoverage]; ok {
				totals[evm.MetricQoSCoverage] += v
				qosN++
			}
		}
	}
	if qosN > 0 {
		totals[evm.MetricQoSCoverage] /= float64(qosN)
	}
	if len(finished) > 20 {
		finished = finished[len(finished)-20:]
	}
	st.Recent = finished
	if len(totals) > 0 {
		st.Totals = totals
	}
	return st
}

// Tenants lists the tenants seen so far, sorted.
func (s *Server) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for t := range s.tenants {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the daemon counters.
func (s *Server) Stats() Stats {
	depth, peak := s.queue.depths()
	return Stats{
		Workers:             s.cfg.Workers,
		QueueDepth:          depth,
		PeakQueueDepth:      peak,
		QueueBound:          s.cfg.QueueDepth,
		Running:             int(s.running.Load()),
		Accepted:            s.accepted.Load(),
		RejectedBackpressur: s.rejected.Load(),
		RejectedDraining:    s.refused.Load(),
		Completed:           s.done.Load(),
		Failed:              s.failed.Load(),
		Panics:              s.panics.Load(),
		Cancelled:           s.cancels.Load(),
		Evicted:             s.evicted.Load(),
		Draining:            s.draining.Load(),
	}
}

// Draining reports whether the daemon has begun shutdown.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainReport summarizes a graceful shutdown.
type DrainReport struct {
	// Cancelled is how many queued-but-unstarted runs were abandoned.
	Cancelled int
	// TimedOut is true when in-flight runs were still executing at the
	// deadline (their goroutines keep running; streams close when they
	// finish).
	TimedOut bool
}

// Drain begins graceful shutdown: new submissions are refused with
// ErrDraining (HTTP 503), queued-but-unstarted runs are cancelled (their
// streams close immediately), and in-flight runs — which are bounded by
// their virtual-time horizons — are waited for up to timeout (zero =
// Config.DrainTimeout). Each run flushes its telemetry CSV
// (Config.EventDir) itself as it completes. Drain is idempotent.
func (s *Server) Drain(timeout time.Duration) DrainReport {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	var rep DrainReport
	if !s.draining.CompareAndSwap(false, true) {
		s.workers.Wait()
		return rep
	}
	for _, run := range s.queue.close() {
		run.mu.Lock()
		run.state = RunCancelled
		run.finishedAt = s.cfg.Clock.Now()
		run.mu.Unlock()
		run.stream.close()
		s.cancels.Add(1)
		rep.Cancelled++
	}
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-s.cfg.Clock.After(timeout):
		rep.TimedOut = true
	}
	return rep
}
