package evmd

import (
	"sync"
	"time"

	"evm"
)

// EventRecord is one streamed event line: the run's virtual timestamp,
// the cell the event is attributed to (campus streams; "" for
// single-cell runs), the event's telemetry series and its stable
// one-line rendering. Event strings are byte-identical across equal-seed
// runs, so two subscribers — or two tenants — comparing streams see
// exactly the library's determinism guarantee.
type EventRecord struct {
	T      float64 `json:"t"` // virtual seconds
	Cell   string  `json:"cell,omitempty"`
	Series string  `json:"series"`
	Event  string  `json:"event"`
}

// record renders a kept event as the line evmd serves for it: the events
// endpoint, Run.Events and SerialEvents all go through it.
func record(ev evm.Event) EventRecord {
	t, cell, series := evm.EventRow(ev)
	return EventRecord{T: t, Cell: cell, Series: series, Event: ev.String()}
}

// stream is one run's append-only observation log: the kept events
// (evm.Keep), then, once the run is finalized, the virtual time it ended
// at and its final metric map. That is all a finished run keeps of its
// telemetry: records and samples are rendered on request. Writers (the
// run's worker goroutine) append under mu; readers follow the log by
// index and block on cond until more arrives or the stream closes. Late
// subscribers replay from the start — runs are deterministic and
// bounded, so replay-from-zero is both cheap and the property the
// determinism tests lean on.
type stream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  []evm.Event
	horizon time.Duration      // set once, by finalize
	metrics map[string]float64 // set once, by finalize; the run status shares it
	closed  bool
}

// newStream opens the observation log of one run.
func newStream() *stream {
	s := &stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// observe appends one bus event, kept past the callback. It runs
// synchronously on the simulation goroutine, so ordering is the bus's
// deterministic publication order.
func (s *stream) observe(ev evm.Event) {
	ev = evm.Keep(ev)
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finalize records the run's end: the virtual time its final metrics are
// sampled at, and the metric map itself, which nothing writes afterwards.
func (s *stream) finalize(now time.Duration, metrics map[string]float64) {
	s.mu.Lock()
	s.horizon, s.metrics = now, metrics
	s.cond.Broadcast()
	s.mu.Unlock()
}

// close ends the stream; blocked readers drain and return. Idempotent.
func (s *stream) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// from returns every event from index i on that exists, blocking until
// there is at least one. ok is false once the stream is closed and fully
// drained, or when cancel (checked after every wakeup) reports the reader
// is gone; callers pair it with a goroutine that broadcasts on context
// cancellation. The events are returned without a copy: the log only
// appends, so the writer never touches an index below its length again,
// and a kept event is never written after it is appended.
func (s *stream) from(i int, cancelled func() bool) ([]evm.Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if n := len(s.events); i < n {
			return s.events[i:n:n], true
		}
		if s.closed || (cancelled != nil && cancelled()) {
			return nil, false
		}
		s.cond.Wait()
	}
}

// wake re-broadcasts the stream condition (used to unblock readers when
// their HTTP context is cancelled).
func (s *stream) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// lens returns the current event and sample counts: one sample per
// event, plus one per final metric once the run is finalized.
func (s *stream) lens() (events, samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events), len(s.events) + len(s.metrics)
}

// final returns the run's final metric map (nil until finalize). The map
// is shared, not copied: callers only read it.
func (s *stream) final() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// snapshotEvents renders the events seen so far as records.
func (s *stream) snapshotEvents() []EventRecord {
	s.mu.Lock()
	evs := s.events
	s.mu.Unlock()
	out := make([]EventRecord, len(evs))
	for i, ev := range evs {
		out[i] = record(ev)
	}
	return out
}

// samples folds the events seen so far — then, once the run is
// finalized, its metrics — through tel into flat samples.
func (s *stream) samples(tel *evm.Telemetry) []evm.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]evm.Sample, 0, len(s.events)+len(s.metrics))
	for _, ev := range s.events {
		out = append(out, tel.Sample(ev))
	}
	return tel.AppendMetricSamples(out, s.horizon, s.metrics)
}

// Events returns the run's streamed event records so far (all of them
// once the run finishes).
func (r *Run) Events() []EventRecord { return r.stream.snapshotEvents() }

// Samples returns the run's flat telemetry samples so far, derived from
// its events and, once it has finished, its final metrics.
func (r *Run) Samples() []evm.Sample {
	return r.stream.samples(evm.NewTelemetry(r.ID, r.Tenant, r.Spec))
}

// SerialEvents executes the spec synchronously on the calling goroutine
// — no daemon, no queue — and returns exactly the event records evmd
// would stream for it. This is the reference side of the multi-tenant
// determinism guarantee: a run streamed through the daemon under load
// must be byte-identical to its SerialEvents output. evmload -verify and
// the evmd test suite both compare against it.
func SerialEvents(spec evm.RunSpec) ([]EventRecord, error) {
	ref := newStream()
	runner := &evm.Runner{
		Workers: 1,
		Instrument: func(_ evm.RunSpec, exp *evm.Experiment) func(map[string]float64) {
			sub := exp.Events().Subscribe(ref.observe)
			return func(map[string]float64) { sub.Cancel() }
		},
	}
	res := runner.RunOne(spec)
	if res.Err != nil {
		return nil, res.Err
	}
	ref.close()
	return ref.snapshotEvents(), nil
}
