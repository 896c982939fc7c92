package evmd

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"evm"
)

// SubmitRequest is the POST /v1/runs body. One request fans out to one
// run per seed (Seeds, or the single Seed when Seeds is empty), all
// admitted atomically for the tenant.
type SubmitRequest struct {
	Tenant   string   `json:"tenant"`
	Scenario string   `json:"scenario"`
	Seed     uint64   `json:"seed"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	// HorizonMS bounds the run in virtual milliseconds (0 = scenario
	// default); a negative value is rejected, and so is one above the
	// daemon's Config.MaxHorizon.
	HorizonMS int64 `json:"horizon_ms,omitempty"`
	// Policy names the placement policy for campus scenarios.
	Policy string `json:"policy,omitempty"`
	// FaultCell targets the fault plan in campus scenarios.
	FaultCell string `json:"fault_cell,omitempty"`
	// Faults is an optional declarative fault plan.
	Faults *FaultPlanSpec `json:"faults,omitempty"`
}

// maxHorizonMS is the largest horizon_ms a time.Duration holds.
const maxHorizonMS = math.MaxInt64 / int64(time.Millisecond)

// FaultPlanSpec is the JSON form of an evm.FaultPlan (the subset that
// round-trips cleanly over the wire).
type FaultPlanSpec struct {
	Name  string          `json:"name,omitempty"`
	Steps []FaultStepSpec `json:"steps"`
}

// FaultStepSpec is one JSON fault step. AtMS and PERForMS are rejected
// outside [0, maxHorizonMS], as horizon_ms is.
type FaultStepSpec struct {
	AtMS        int64 `json:"at_ms"`
	CrashNode   int   `json:"crash_node,omitempty"`
	RecoverNode int   `json:"recover_node,omitempty"`
	// PER forces cell-wide loss in [0,1] for PERForMS milliseconds.
	PER      float64 `json:"per,omitempty"`
	PERForMS int64   `json:"per_for_ms,omitempty"`
	// LinkDownA/B sever the named backbone link; LinkUpA/B restore it.
	LinkDownA string `json:"link_down_a,omitempty"`
	LinkDownB string `json:"link_down_b,omitempty"`
	LinkUpA   string `json:"link_up_a,omitempty"`
	LinkUpB   string `json:"link_up_b,omitempty"`
}

// plan converts the wire form to an evm.FaultPlan.
func (f *FaultPlanSpec) plan() evm.FaultPlan {
	p := evm.FaultPlan{Name: f.Name}
	for _, st := range f.Steps {
		step := evm.FaultStep{
			At:          time.Duration(st.AtMS) * time.Millisecond,
			CrashNode:   evm.NodeID(st.CrashNode),
			RecoverNode: evm.NodeID(st.RecoverNode),
		}
		if st.PER > 0 || st.PERForMS > 0 {
			step.PERBurst = &evm.PERBurst{PER: st.PER, For: time.Duration(st.PERForMS) * time.Millisecond}
		}
		if st.LinkDownA != "" || st.LinkDownB != "" {
			step.LinkDown = &evm.LinkRef{A: st.LinkDownA, B: st.LinkDownB}
		}
		if st.LinkUpA != "" || st.LinkUpB != "" {
			step.LinkUp = &evm.LinkRef{A: st.LinkUpA, B: st.LinkUpB}
		}
		p.Steps = append(p.Steps, step)
	}
	return p
}

// validate rejects a request the daemon cannot run as given: no
// scenario, or a millisecond field (horizon_ms, a fault step's at_ms or
// per_for_ms) that is negative or would overflow a time.Duration.
func (req *SubmitRequest) validate() error {
	if req.Scenario == "" {
		return fmt.Errorf("evmd: submission needs a scenario")
	}
	if err := checkMS("horizon_ms", req.HorizonMS); err != nil {
		return err
	}
	if req.Faults == nil {
		return nil
	}
	for i, st := range req.Faults.Steps {
		if err := checkMS(fmt.Sprintf("faults.steps[%d].at_ms", i), st.AtMS); err != nil {
			return err
		}
		if err := checkMS(fmt.Sprintf("faults.steps[%d].per_for_ms", i), st.PERForMS); err != nil {
			return err
		}
	}
	return nil
}

// checkMS rejects a millisecond field outside [0, maxHorizonMS].
func checkMS(field string, ms int64) error {
	if ms < 0 || ms > maxHorizonMS {
		return fmt.Errorf("evmd: %s %d outside [0, %d]", field, ms, maxHorizonMS)
	}
	return nil
}

// Specs expands the request into concrete run specs.
func (req *SubmitRequest) Specs() []evm.RunSpec {
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{req.Seed}
	}
	specs := make([]evm.RunSpec, 0, len(seeds))
	for _, seed := range seeds {
		spec := evm.RunSpec{
			Scenario:  req.Scenario,
			Seed:      seed,
			Horizon:   time.Duration(req.HorizonMS) * time.Millisecond,
			Policy:    req.Policy,
			FaultCell: req.FaultCell,
		}
		if req.Faults != nil {
			spec.Faults = req.Faults.plan()
		}
		specs = append(specs, spec)
	}
	return specs
}

// SubmitResponse acknowledges an admitted submission (HTTP 202).
type SubmitResponse struct {
	Runs       []RunStatus `json:"runs"`
	QueueDepth int         `json:"queue_depth"`
}

// Handler mounts the daemon's HTTP API:
//
//	POST /v1/runs                  submit (202; 429 backpressure; 503 draining)
//	POST /v1/fuzz                  generate + submit fuzz specs (202)
//	GET  /v1/runs                  list run snapshots (?tenant=, ?state=)
//	GET  /v1/runs/{id}             one run snapshot (410 once evicted)
//	GET  /v1/runs/{id}/events      stream events (SSE or NDJSON; replays from start)
//	GET  /v1/runs/{id}/telemetry   flat samples (?format=csv|ndjson)
//	GET  /v1/runs/{id}/trace       Chrome-trace JSON (Config.Trace; Perfetto-loadable)
//	GET  /v1/tenants               tenant names
//	GET  /v1/tenants/{id}          tenant status table
//	GET  /v1/scenarios             built-in scenarios and policies
//	GET  /v1/stats                 daemon counters
//	GET  /v1/healthz               liveness: 200 while the process serves
//	GET  /v1/readyz                readiness: 200 serving / 503 draining
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/pprof/...          profiling (Config.EnablePprof only)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("POST /v1/fuzz", s.handleFuzz)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Tenants()})
	})
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Tenant(r.PathValue("id")))
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"scenarios": evm.Scenarios(),
			"policies":  evm.PlacementPolicies(),
		})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	// Liveness and readiness are distinct probes: a draining daemon is
	// still alive (it is finishing in-flight runs and serving reads) but
	// not ready for new work — an orchestrator should stop routing
	// submissions to it without killing it mid-drain.
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleTrace serves a finished run's Chrome-trace JSON. Runs still in
// flight answer 409 (the trace exports at completion); runs executed
// without Config.Trace answer 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	run := s.fetchRun(w, r)
	if run == nil {
		return
	}
	run.mu.Lock()
	trace := run.trace
	state := run.state
	run.mu.Unlock()
	if len(trace) == 0 {
		switch state {
		case RunQueued, RunRunning:
			httpError(w, http.StatusConflict,
				fmt.Errorf("evmd: run %s is %s; its trace exports at completion", run.ID, state))
		default:
			httpError(w, http.StatusNotFound,
				fmt.Errorf("evmd: no trace recorded for run %s (daemon tracing disabled?)", run.ID))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(trace)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The admission histogram measures the full handler — decode through
	// queue admission — on the injected clock, so evmload can check its
	// own client-side percentiles against the served buckets.
	start := s.cfg.Clock.Now()
	defer func() { s.admitHist.observe(s.cfg.Clock.Now().Sub(start).Seconds()) }()
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("evmd: bad submit body: %w", err))
		return
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	runs, err := s.Submit(req.Tenant, req.Specs()...)
	if err != nil {
		admissionError(w, err)
		return
	}
	resp := SubmitResponse{Runs: make([]RunStatus, len(runs))}
	for i, run := range runs {
		resp.Runs[i] = run.snapshot()
	}
	resp.QueueDepth, _ = s.queue.depths()
	writeJSON(w, http.StatusAccepted, resp)
}

// admissionError answers a refused submission: 503 while draining, 429
// with Retry-After under backpressure, 400 for a bad request.
func admissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
	default:
		httpError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	runs := s.Runs(r.URL.Query().Get("tenant"), RunState(r.URL.Query().Get("state")))
	writeJSON(w, http.StatusOK, map[string]any{"runs": runs, "count": len(runs)})
}

// fetchRun resolves the {id} path value to a run, writing 404 for IDs
// the daemon never issued and 410 Gone for runs evicted by the
// RunTTL/MaxRuns retention policy.
func (s *Server) fetchRun(w http.ResponseWriter, r *http.Request) *Run {
	id := r.PathValue("id")
	run, evicted := s.lookupRun(id)
	switch {
	case run != nil:
		return run
	case evicted:
		httpError(w, http.StatusGone, fmt.Errorf("evmd: run %q evicted by retention policy", id))
	default:
		httpError(w, http.StatusNotFound, fmt.Errorf("evmd: unknown run %q", id))
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	run := s.fetchRun(w, r)
	if run == nil {
		return
	}
	writeJSON(w, http.StatusOK, run.snapshot())
}

// handleEvents streams the run's event records from the start: SSE when
// the client asks for text/event-stream (or ?format=sse), NDJSON
// otherwise. Each wakeup renders every event logged since the last one
// into one reused line buffer (appendEventLine), writes each line, and
// flushes once. The stream ends when the run completes; a disconnected
// client unblocks via the context watcher.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run := s.fetchRun(w, r)
	if run == nil {
		return
	}
	s.streamSubs.Add(1)
	defer s.streamSubs.Add(-1)
	sse := r.URL.Query().Get("format") == "sse" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	go func() {
		<-ctx.Done()
		run.stream.wake()
	}()
	var line []byte // reused for every event: streaming allocates nothing per event
	for i := 0; ; {
		evs, ok := run.stream.from(i, func() bool { return ctx.Err() != nil })
		if !ok {
			return
		}
		for _, ev := range evs {
			line = appendEventLine(line[:0], ev, sse)
			if _, err := w.Write(line); err != nil {
				return
			}
		}
		i += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// appendEventLine appends ev's line as the events endpoint writes it: its
// NDJSON record (appendRecord), framed as one SSE message when sse.
func appendEventLine(dst []byte, ev evm.Event, sse bool) []byte {
	if !sse {
		return appendRecord(dst, ev)
	}
	return append(appendRecord(append(dst, "data: "...), ev), '\n')
}

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	run := s.fetchRun(w, r)
	if run == nil {
		return
	}
	samples := run.Samples()
	switch r.URL.Query().Get("format") {
	case "", "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := evm.WriteSamplesCSV(w, samples); err != nil {
			return
		}
	case "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, sm := range samples {
			if err := enc.Encode(sm); err != nil {
				return
			}
		}
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("evmd: unknown telemetry format %q", r.URL.Query().Get("format")))
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
