package evmd

import (
	"encoding/json"
	"fmt"
	"net/http"

	"evm"
	"evm/fuzz"
)

// FuzzRequest is the POST /v1/fuzz body: generate Count scenario specs
// from consecutive generator seeds starting at GenSeed and admit one run
// per (spec, run seed) pair for the tenant — the daemon-side form of an
// evmfuzz sweep slice. The runs carry their generated specs; the
// daemon's scenario table never grows.
type FuzzRequest struct {
	Tenant  string   `json:"tenant"`
	GenSeed uint64   `json:"gen_seed"`
	Count   int      `json:"count"`
	Seeds   []uint64 `json:"seeds,omitempty"`
	// Profile picks the generator profile: "default" or "multihop".
	Profile string `json:"profile,omitempty"`
}

// maxFuzzCount bounds one request's batch; sweeps larger than this
// belong in the evmfuzz CLI, not a daemon run table.
const maxFuzzCount = 256

// FuzzResponse acknowledges an admitted fuzz submission (HTTP 202).
type FuzzResponse struct {
	Scenarios  []string    `json:"scenarios"`
	Runs       []RunStatus `json:"runs"`
	QueueDepth int         `json:"queue_depth"`
}

func (s *Server) handleFuzz(w http.ResponseWriter, r *http.Request) {
	var req FuzzRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("evmd: bad fuzz body: %w", err))
		return
	}
	if req.Count <= 0 {
		req.Count = 1
	}
	if req.Count > maxFuzzCount {
		httpError(w, http.StatusBadRequest, fmt.Errorf("evmd: fuzz count %d exceeds %d per request", req.Count, maxFuzzCount))
		return
	}
	prof := fuzz.DefaultProfile()
	switch req.Profile {
	case "", "default":
	case "multihop":
		prof = fuzz.MultihopProfile()
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("evmd: unknown fuzz profile %q", req.Profile))
		return
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var (
		names []string
		specs []evm.RunSpec
	)
	byName := make(map[string]fuzz.Spec, req.Count)
	for i := 0; i < req.Count; i++ {
		spec := fuzz.GenerateWith(req.GenSeed+uint64(i), prof)
		if err := spec.Validate(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		byName[spec.Name] = spec
		names = append(names, spec.Name)
		for _, seed := range seeds {
			specs = append(specs, evm.RunSpec{Scenario: spec.Name, Seed: seed})
		}
	}
	build := func(run evm.RunSpec) (*evm.Experiment, error) {
		return fuzz.Builder(byName[run.Scenario])(run)
	}
	runs, err := s.admit(req.Tenant, build, specs)
	if err != nil {
		admissionError(w, err)
		return
	}
	resp := FuzzResponse{Scenarios: names, Runs: make([]RunStatus, len(runs))}
	for i, run := range runs {
		resp.Runs[i] = run.snapshot()
	}
	resp.QueueDepth, _ = s.queue.depths()
	writeJSON(w, http.StatusAccepted, resp)
}
