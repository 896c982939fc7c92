package evmd

import (
	"encoding/json"
	"math"
	"strconv"
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

// record renders a kept event as the record evmd serves for it
// (Run.Events, SerialEvents); appendRecord writes the same record as the
// events endpoint's line.
func record(ev evm.Event) EventRecord {
	t, cell, series := evm.EventRow(ev)
	return EventRecord{T: t, Cell: cell, Series: series, Event: ev.String()}
}

// appendRecord appends the NDJSON line of ev's record to dst: exactly the
// bytes json.NewEncoder(w).Encode(record(ev)) writes, newline included.
// It renders the event into dst itself (evm.AppendEvent), so a caller
// that reuses dst allocates nothing per event.
func appendRecord(dst []byte, ev evm.Event) []byte {
	t, cell, series := evm.EventRow(ev)
	dst = appendRecordHead(dst, t, cell, series)
	start := len(dst)
	return endRecord(evm.AppendEvent(dst, ev), start)
}

// appendRecordHead appends a record's fields up to its event text:
// "t" as encoding/json writes a float64, "cell" unless empty, "series",
// and the event key with the opening quote of its value.
func appendRecordHead(dst []byte, t float64, cell, series string) []byte {
	dst = appendJSONFloat(append(dst, `{"t":`...), t)
	if cell != "" {
		dst = appendJSONString(append(dst, `,"cell":`...), cell)
	}
	dst = appendJSONString(append(dst, `,"series":`...), series)
	return append(dst, `,"event":"`...)
}

// endRecord closes the record whose event text is dst[start:], the bytes
// after appendRecordHead's opening quote, and ends the line. Text that
// needs escaping is quoted by encoding/json instead.
func endRecord(dst []byte, start int) []byte {
	if plainJSON(dst[start:]) {
		return append(dst, "\"}\n"...)
	}
	dst = appendJSONString(dst[:start-1], string(dst[start:]))
	return append(dst, "}\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 and from 1e21, with a
// two-digit negative exponent's leading zero trimmed (1e-07 → 1e-7).
// f must be finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a JSON string, as encoding/json quotes
// it: directly when it is plain, else through json.Marshal, which
// escapes HTML characters and replaces invalid UTF-8.
func appendJSONString(dst []byte, s string) []byte {
	if !plainJSON(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(dst, q...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainJSON reports whether encoding/json quotes s as is: every byte
// printable ASCII, and none of `"`, `\`, `<`, `>` or `&`.
func plainJSON[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
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
	ref, err := serialStream(spec)
	if err != nil {
		return nil, err
	}
	return ref.snapshotEvents(), nil
}

// serialStream executes the spec synchronously and returns its closed
// stream: the kept events evmd would log for it.
func serialStream(spec evm.RunSpec) (*stream, error) {
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
	return ref, nil
}
