package evmd

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"evm"
)

// waitState polls until the run reaches a terminal state.
func waitState(t *testing.T, run *Run) RunState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		switch st := run.State(); st {
		case RunDone, RunFailed, RunCancelled:
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s stuck in state %s", run.ID, run.State())
	return ""
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestSubmitLifecycle drives one run end to end over HTTP: admission
// (202), completion, the status snapshot, the event stream, the CSV
// telemetry export and the qos_coverage control-quality metric.
func TestSubmitLifecycle(t *testing.T) {
	s := NewServer(Config{Workers: 2, QueueDepth: 16})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/runs", SubmitRequest{
		Tenant: "acme", Scenario: evm.ScenarioEightController, Seed: 1, HorizonMS: 5000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.Runs) != 1 {
		t.Fatalf("submit admitted %d runs, want 1", len(sub.Runs))
	}
	run := s.Run(sub.Runs[0].ID)
	if run == nil {
		t.Fatalf("admitted run %s not in table", sub.Runs[0].ID)
	}
	if st := waitState(t, run); st != RunDone {
		t.Fatalf("run ended %s: %s", st, run.snapshot().Error)
	}

	snap := run.snapshot()
	if snap.Tenant != "acme" || snap.Scenario != evm.ScenarioEightController {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	if snap.Events == 0 {
		t.Fatalf("run streamed no events")
	}
	if len(snap.Cells) != 1 || snap.Cells[0].Members != 10 {
		t.Fatalf("cell table = %+v, want one 10-member cell", snap.Cells)
	}
	if cov, ok := snap.Metrics[evm.MetricQoSCoverage]; !ok || cov != 1 {
		t.Fatalf("qos_coverage = %v (present %v), want 1 on a fault-free run", cov, ok)
	}
	if _, ok := snap.Metrics[evm.MetricQoSRedundancy]; !ok {
		t.Fatalf("qos_redundancy_mean missing from run metrics")
	}

	// NDJSON event stream replays the full run.
	res, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var lines []EventRecord
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var rec EventRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, rec)
	}
	res.Body.Close()
	if len(lines) != snap.Events {
		t.Fatalf("streamed %d events, snapshot says %d", len(lines), snap.Events)
	}

	// CSV telemetry has the flat header and a final metric sample.
	res, err = http.Get(ts.URL + "/v1/runs/" + run.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(res.Body).ReadAll()
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("telemetry CSV has %d rows", len(rows))
	}
	want := []string{"t", "run", "tenant", "scenario", "seed", "cell", "series", "value"}
	for i, col := range want {
		if rows[0][i] != col {
			t.Fatalf("telemetry header = %v, want %v", rows[0], want)
		}
	}
	foundQoS := false
	for _, row := range rows[1:] {
		if row[6] == "metric."+evm.MetricQoSCoverage {
			foundQoS = true
		}
	}
	if !foundQoS {
		t.Fatalf("telemetry lacks the metric.qos_coverage sample")
	}

	// Tenant table sees the run.
	res, err = http.Get(ts.URL + "/v1/tenants/acme")
	if err != nil {
		t.Fatal(err)
	}
	var tstat TenantStatus
	if err := json.NewDecoder(res.Body).Decode(&tstat); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if tstat.Counts[RunDone] != 1 || len(tstat.Recent) != 1 {
		t.Fatalf("tenant status = %+v, want one done run", tstat)
	}
}

// TestMultiTenantDeterminism is the isolation guarantee: several tenants
// hammering the daemon concurrently with the same scenario+seed receive
// byte-identical event streams, identical to a serial CLI-style run.
// Both single-cell and campus scenarios are covered.
func TestMultiTenantDeterminism(t *testing.T) {
	specs := []evm.RunSpec{
		{Scenario: evm.ScenarioEightController, Seed: 7, Horizon: 5 * time.Second},
		{Scenario: evm.ScenarioCampusFailover, Seed: 3, Horizon: 15 * time.Second},
	}
	serial := make([][]EventRecord, len(specs))
	for i, spec := range specs {
		events, err := SerialEvents(spec)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.Label(), err)
		}
		if len(events) == 0 {
			t.Fatalf("serial %s produced no events", spec.Label())
		}
		serial[i] = events
	}

	s := NewServer(Config{Workers: 4, QueueDepth: 256})
	defer s.Drain(0)
	tenants := []string{"acme", "globex", "initech"}
	var wg sync.WaitGroup
	runs := make([][]*Run, len(tenants))
	for ti, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			admitted, err := s.Submit(tenant, specs...)
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			runs[ti] = admitted
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for ti, tenant := range tenants {
		for si, run := range runs[ti] {
			if st := waitState(t, run); st != RunDone {
				t.Fatalf("%s %s ended %s: %s", tenant, run.Spec.Label(), st, run.snapshot().Error)
			}
			got := run.Events()
			if len(got) != len(serial[si]) {
				t.Fatalf("%s %s streamed %d events, serial run %d",
					tenant, run.Spec.Label(), len(got), len(serial[si]))
			}
			for i := range got {
				if got[i] != serial[si][i] {
					t.Fatalf("%s %s diverges from serial at event %d:\n  daemon: %+v\n  serial: %+v",
						tenant, run.Spec.Label(), i, got[i], serial[si][i])
				}
			}
		}
	}
}

// TestAdmissionBackpressure: a batch that exceeds the queue bound is
// rejected whole with 429, and the queue bound also caps one tenant's
// share.
func TestAdmissionBackpressure(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 2})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/runs", SubmitRequest{
		Tenant: "acme", Scenario: evm.ScenarioCapacity, Seeds: []uint64{1, 2, 3}, HorizonMS: 1000,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if got := s.Stats().RejectedBackpressur; got != 3 {
		t.Fatalf("rejected_backpressure = %d, want 3", got)
	}
	// The daemon still serves within bounds after rejecting.
	resp, body = postJSON(t, ts.URL+"/v1/runs", SubmitRequest{
		Tenant: "acme", Scenario: evm.ScenarioCapacity, Seed: 1, HorizonMS: 1000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-bounds submit status = %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestTenantQueueShare: the per-tenant bound rejects a hog tenant while
// admitting others.
func TestTenantQueueShare(t *testing.T) {
	q := newFairQueue(8, 2)
	mk := func(tenant string, n int) []*Run {
		runs := make([]*Run, n)
		for i := range runs {
			runs[i] = &Run{ID: fmt.Sprintf("%s-%d", tenant, i), Tenant: tenant}
		}
		return runs
	}
	if err := q.pushAll(mk("hog", 3)); err == nil {
		t.Fatalf("tenant share of 2 admitted 3 runs")
	}
	if err := q.pushAll(mk("hog", 2)); err != nil {
		t.Fatalf("in-share push rejected: %v", err)
	}
	if err := q.pushAll(mk("polite", 2)); err != nil {
		t.Fatalf("second tenant rejected despite free share: %v", err)
	}
}

// TestFairQueueRoundRobin: dispatch interleaves tenants regardless of
// submission order, FIFO within each tenant.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(16, 16)
	push := func(tenant string, ids ...string) {
		runs := make([]*Run, len(ids))
		for i, id := range ids {
			runs[i] = &Run{ID: id, Tenant: tenant}
		}
		if err := q.pushAll(runs); err != nil {
			t.Fatal(err)
		}
	}
	push("a", "a1", "a2", "a3", "a4")
	push("b", "b1", "b2")
	push("c", "c1")
	var got []string
	for i := 0; i < 7; i++ {
		run, ok := q.pop()
		if !ok {
			t.Fatalf("queue closed early at pop %d", i)
		}
		got = append(got, run.ID)
	}
	want := "a1 b1 c1 a2 b2 a3 a4"
	if strings.Join(got, " ") != want {
		t.Fatalf("dispatch order = %v, want %s", got, want)
	}
}

// TestGracefulShutdown: Drain refuses new submissions with 503, cancels
// queued-but-unstarted runs, lets in-flight runs finish, and the
// telemetry of finished runs is flushed to EventDir, byte-identical to
// what the telemetry endpoint serves.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s := NewServer(Config{Workers: 1, QueueDepth: 64, EventDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runs, err := s.Submit("acme",
		evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1, Horizon: 5 * time.Second},
		evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 2, Horizon: 5 * time.Second},
		evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 3, Horizon: 5 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Let the single worker pick up the first run so the drain really has
	// an in-flight run to wait for.
	for deadline := time.Now().Add(10 * time.Second); runs[0].State() == RunQueued; {
		if time.Now().After(deadline) {
			t.Fatalf("first run never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	rep := s.Drain(20 * time.Second)
	if rep.TimedOut {
		t.Fatalf("drain timed out with bounded runs in flight")
	}

	resp, body := postJSON(t, ts.URL+"/v1/runs", SubmitRequest{
		Tenant: "acme", Scenario: evm.ScenarioCapacity, Seed: 9,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit status = %d (%s), want 503", resp.StatusCode, body)
	}
	// Liveness stays green through the drain; readiness flips to 503 so
	// orchestrators stop routing new work without killing the process.
	res, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness)", res.StatusCode)
	}
	res, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", res.StatusCode)
	}

	doneRuns, cancelled := 0, 0
	for _, run := range runs {
		switch st := waitState(t, run); st {
		case RunDone:
			doneRuns++
			// The flushed CSV is the telemetry endpoint's bytes.
			flushed, err := os.ReadFile(filepath.Join(dir, run.ID+".csv"))
			if err != nil {
				t.Fatalf("run %s completed but flushed no telemetry CSV: %v", run.ID, err)
			}
			res, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/telemetry?format=csv")
			if err != nil {
				t.Fatal(err)
			}
			served, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(flushed) == 0 || !bytes.Equal(flushed, served) {
				t.Fatalf("run %s: flushed CSV (%d bytes) differs from served telemetry (%d bytes)",
					run.ID, len(flushed), len(served))
			}
		case RunCancelled:
			cancelled++
			if n, _ := run.stream.lens(); n != 0 {
				t.Fatalf("cancelled run %s has %d streamed events", run.ID, n)
			}
		default:
			t.Fatalf("run %s ended %s after drain", run.ID, st)
		}
	}
	if doneRuns+cancelled != len(runs) {
		t.Fatalf("done %d + cancelled %d != %d submitted", doneRuns, cancelled, len(runs))
	}
	if doneRuns == 0 {
		t.Fatalf("drain completed no in-flight run")
	}
	if int(s.Stats().Cancelled) != cancelled || rep.Cancelled != cancelled {
		t.Fatalf("cancel counters disagree: stats %d, report %d, observed %d",
			s.Stats().Cancelled, rep.Cancelled, cancelled)
	}
}

// TestEventDirFlushFailureFailsRun: a telemetry flush that cannot write
// fails the run with the error instead of silently dropping the CSV.
func TestEventDirFlushFailureFailsRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Workers: 1, QueueDepth: 4, EventDir: file})
	defer s.Drain(0)
	runs, err := s.Submit("acme", evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, runs[0]); st != RunFailed {
		t.Fatalf("run ended %s, want %s", st, RunFailed)
	}
	if snap := runs[0].snapshot(); !strings.Contains(snap.Error, "not a directory") {
		t.Fatalf("run error = %q, want the flush's not-a-directory error", snap.Error)
	}
}

// TestSubmitValidation: unknown scenarios are rejected before admission.
func TestSubmitValidation(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	if _, err := s.Submit("acme", evm.RunSpec{Scenario: "no-such-scenario"}); err == nil {
		t.Fatalf("unknown scenario admitted")
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("accepted = %d after rejected submit", got)
	}
}

// TestSubmitRejectsBadPolicy: an unknown placement policy gets 400 and
// admits nothing, like an unknown scenario, instead of taking a worker
// and ending failed; a built-in name is still admitted.
func TestSubmitRejectsBadPolicy(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	submit := func(policy string) (*http.Response, []byte) {
		return postJSON(t, srv.URL+"/v1/runs", SubmitRequest{
			Tenant: "acme", Scenario: evm.ScenarioCampusFailover, HorizonMS: 1000, Policy: policy,
		})
	}
	resp, body := submit("no-such-policy")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown placement policy") {
		t.Fatalf("unknown policy: status %d (%s), want 400", resp.StatusCode, body)
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("accepted = %d after rejected submit", got)
	}
	if resp, body := submit(evm.PolicyAffinity); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("built-in policy: status %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestSubmitRejectsBadHorizon: a negative horizon_ms, or one too large
// for a time.Duration, gets 400 and admits nothing; the bound itself
// still fits.
func TestSubmitRejectsBadHorizon(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, ms := range []int64{-1, -5000, maxHorizonMS + 1, math.MaxInt64} {
		resp, body := postJSON(t, srv.URL+"/v1/runs", SubmitRequest{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: ms})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("horizon_ms %d: status %d (%s), want 400", ms, resp.StatusCode, body)
		}
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("accepted = %d after rejected submits", got)
	}
	if d := time.Duration(maxHorizonMS) * time.Millisecond; d <= 0 || d/time.Millisecond != time.Duration(maxHorizonMS) {
		t.Fatalf("maxHorizonMS %d overflows a time.Duration", maxHorizonMS)
	}
}

// TestSubmitRejectsHorizonAboveCap: a horizon_ms above Config.MaxHorizon
// gets 400 naming the cap and admits nothing, over HTTP and through
// Submit; the cap itself is admitted. Without a configured cap, a
// ten-year horizon meets DefaultMaxHorizon.
func TestSubmitRejectsHorizonAboveCap(t *testing.T) {
	const tenYearsMS = 10 * 365 * 24 * int64(time.Hour/time.Millisecond)
	for _, c := range []struct {
		cap   time.Duration
		tooMS int64
	}{
		{0, tenYearsMS},
		{3 * time.Second, 3001},
	} {
		s := NewServer(Config{Workers: 1, QueueDepth: 4, MaxHorizon: c.cap})
		srv := httptest.NewServer(s.Handler())
		limit := c.cap
		if limit == 0 {
			limit = DefaultMaxHorizon
		}
		resp, body := postJSON(t, srv.URL+"/v1/runs", SubmitRequest{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: c.tooMS})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), limit.String()) {
			t.Fatalf("cap %v, horizon_ms %d: status %d (%s), want 400 naming %v", c.cap, c.tooMS, resp.StatusCode, body, limit)
		}
		if _, err := s.Submit("acme", evm.RunSpec{Scenario: evm.ScenarioEightController, Horizon: limit + time.Millisecond}); err == nil {
			t.Fatalf("cap %v: Submit admitted a horizon past it", c.cap)
		}
		if got := s.Stats().Accepted; got != 0 {
			t.Fatalf("cap %v: accepted = %d after rejected submits", c.cap, got)
		}
		if c.cap != 0 {
			resp, body := postJSON(t, srv.URL+"/v1/runs", SubmitRequest{Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: c.cap.Milliseconds()})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("horizon_ms at the cap: status %d (%s), want 202", resp.StatusCode, body)
			}
		}
		srv.Close()
		s.Drain(0)
	}
}

// TestSubmitRejectsBadFaultTimes: a fault step's at_ms or per_for_ms
// outside [0, maxHorizonMS] gets 400 and admits nothing — unchecked, a
// too-large at_ms wraps to a near-zero fault offset; the bound itself
// still fits.
func TestSubmitRejectsBadFaultTimes(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	submit := func(step FaultStepSpec) (*http.Response, []byte) {
		return postJSON(t, srv.URL+"/v1/runs", SubmitRequest{
			Tenant: "acme", Scenario: evm.ScenarioEightController, HorizonMS: 1000,
			Faults: &FaultPlanSpec{Steps: []FaultStepSpec{step}},
		})
	}
	for _, ms := range []int64{-1, maxHorizonMS + 1, 18446744073710, math.MaxInt64} {
		if resp, body := submit(FaultStepSpec{AtMS: ms, CrashNode: 2}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("at_ms %d: status %d (%s), want 400", ms, resp.StatusCode, body)
		}
		if resp, body := submit(FaultStepSpec{AtMS: 500, PER: 0.5, PERForMS: ms}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("per_for_ms %d: status %d (%s), want 400", ms, resp.StatusCode, body)
		}
	}
	if got := s.Stats().Accepted; got != 0 {
		t.Fatalf("accepted = %d after rejected submits", got)
	}
	if resp, body := submit(FaultStepSpec{AtMS: maxHorizonMS, CrashNode: 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at_ms at the bound: status %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestStreamFollowsLiveRun: a subscriber attached before the run starts
// receives the full stream and the handler terminates when the run does.
func TestStreamFollowsLiveRun(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 8})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	runs, err := s.Submit("acme", evm.RunSpec{Scenario: evm.ScenarioGasPlant, Seed: 5, Horizon: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe immediately — likely mid-run — and read to EOF.
	res, err := http.Get(ts.URL + "/v1/runs/" + runs[0].ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	dec := json.NewDecoder(res.Body)
	for dec.More() {
		var rec EventRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		n++
	}
	res.Body.Close()
	if st := waitState(t, runs[0]); st != RunDone {
		t.Fatalf("run ended %s", st)
	}
	if want, _ := runs[0].stream.lens(); n != want {
		t.Fatalf("live subscriber read %d events, run recorded %d", n, want)
	}
}

// BenchmarkSubmissionThroughput measures the service path the load
// harness exercises: HTTP submission into the admission queue, execution
// on the worker pool, status polling to completion. The reported metric
// is end-to-end runs/sec through the daemon.
func BenchmarkSubmissionThroughput(b *testing.B) {
	s := NewServer(Config{Workers: 0 /* GOMAXPROCS */, QueueDepth: 1 << 16})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	body := func(seed int) *bytes.Reader {
		data, _ := json.Marshal(SubmitRequest{
			Tenant:   fmt.Sprintf("t%d", seed%8),
			Scenario: evm.ScenarioCapacity,
			Seed:     uint64(seed + 1),
			// Short horizon: the benchmark targets admission + dispatch,
			// not simulation depth.
			HorizonMS: 500,
		})
		return bytes.NewReader(data)
	}
	start := time.Now()
	b.ResetTimer()
	runIDs := make([]string, 0, b.N)
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/runs", "application/json", body(i))
		if err != nil {
			b.Fatal(err)
		}
		var sub SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("submit status %d", resp.StatusCode)
		}
		runIDs = append(runIDs, sub.Runs[0].ID)
	}
	for _, id := range runIDs {
		run := s.Run(id)
		for {
			st := run.State()
			if st == RunDone {
				break
			}
			if st == RunFailed || st == RunCancelled {
				b.Fatalf("run %s ended %s", id, st)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "runs/sec")
	}
}

// TestPanickingRunFailsWithoutKillingDaemon: a scenario builder that
// panics fails its own run (the panic and stack in its error, its event
// stream closed) and the worker goes on to serve the next run.
func TestPanickingRunFailsWithoutKillingDaemon(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	explode := func(evm.RunSpec) (*evm.Experiment, error) { panic("builder exploded") }
	bad, err := s.admit("acme", explode, []evm.RunSpec{{Scenario: "evmd-test-panic", Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit("acme", evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, bad[0]); st != RunFailed {
		t.Fatalf("panicking run ended %s, want %s", st, RunFailed)
	}
	if msg := bad[0].snapshot().Error; !strings.Contains(msg, "panic") || !strings.Contains(msg, "builder exploded") {
		t.Fatalf("run error = %q, want the panic value", msg)
	}
	if _, ok := bad[0].stream.from(0, nil); ok {
		t.Fatal("panicked run's event stream still open")
	}
	if st := waitState(t, good[0]); st != RunDone {
		t.Fatalf("run after the panic ended %s, want %s", st, RunDone)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "\nevmd_run_panics_total 1\n") {
		t.Fatalf("/metrics lacks evmd_run_panics_total 1:\n%s", body)
	}
}
