package evmd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"evm"
)

// waitFinished polls until the daemon has finished (done/failed/
// cancelled) at least n runs.
func waitFinished(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Completed+st.Failed+st.Cancelled >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("daemon stuck: %+v", s.Stats())
}

// TestEvictionUnderLoad drives submission waves through a MaxRuns-capped
// table and checks the retention contract: the cap holds once work
// drains, the oldest finished runs leave first, the newest survive, and
// evicted IDs answer 410 Gone while never-issued IDs stay 404.
func TestEvictionUnderLoad(t *testing.T) {
	const tableCap = 10
	s := NewServer(Config{Workers: 4, QueueDepth: 256, MaxRuns: tableCap})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1, Horizon: 500 * time.Millisecond}
	var last *Run
	for wave := 0; wave < 4; wave++ {
		for i := 0; i < 10; i++ {
			runs, err := s.Submit("load", spec)
			if err != nil {
				t.Fatal(err)
			}
			last = runs[0]
		}
		waitFinished(t, s, int64((wave+1)*10))
	}

	// All 40 runs finished; completion-time eviction alone must have
	// already squeezed the table back to the cap.
	if got := len(s.Runs("", "")); got > tableCap {
		t.Fatalf("run table holds %d runs after drain, cap is %d", got, tableCap)
	}
	if ev := s.Stats().Evicted; ev < 30 {
		t.Fatalf("evicted %d runs, want ≥ 30", ev)
	}
	// Retention keeps the most recent history: the last admitted run is
	// still present, the first is long gone.
	if s.Run(last.ID) == nil {
		t.Fatalf("most recent run %s was evicted", last.ID)
	}
	if s.Run("r-000001") != nil {
		t.Fatal("oldest run survived 30 evictions")
	}

	// HTTP status mapping: evicted → 410, never issued → 404.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/runs/r-000001", http.StatusGone},
		{"/v1/runs/r-000001/telemetry", http.StatusGone},
		{"/v1/runs/r-000001/events", http.StatusGone},
		{"/v1/runs/" + last.ID, http.StatusOK},
		{"/v1/runs/r-999999", http.StatusNotFound},
		{"/v1/runs/bogus", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// fakeClock is a manually-advanced Clock injected via Config.Clock so
// TTL tests control elapsed time instead of sleeping through it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that never fires: tests wait for work to
// finish before draining, so a drain that would need the timeout is a
// bug and should surface as a hang, not a silent pass.
func (c *fakeClock) After(time.Duration) <-chan time.Time {
	return make(chan time.Time)
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestEvictionTTL: finished runs expire RunTTL after completion; live
// state is never evicted. The injected fake clock makes the TTL window
// explicit — nothing is evicted one tick short of it, everything at it.
func TestEvictionTTL(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(Config{Workers: 2, QueueDepth: 16, RunTTL: 30 * time.Second, Clock: clk})
	defer s.Drain(0)

	spec := evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 1, Horizon: 500 * time.Millisecond}
	runs, err := s.Submit("ttl", spec, spec, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		waitState(t, r)
	}
	// Every run finished at the fake clock's current instant; just short
	// of the TTL the table must be untouched.
	clk.Advance(30*time.Second - time.Nanosecond)
	if n := s.EvictNow(); n != 0 {
		t.Fatalf("EvictNow evicted %d runs before the TTL elapsed, want 0", n)
	}
	if got := len(s.Runs("", "")); got != 3 {
		t.Fatalf("run table holds %d runs inside TTL, want 3", got)
	}
	clk.Advance(time.Nanosecond)
	if n := s.EvictNow(); n != 3 {
		t.Fatalf("EvictNow evicted %d runs, want 3", n)
	}
	if got := len(s.Runs("", "")); got != 0 {
		t.Fatalf("run table still holds %d runs past TTL", got)
	}
	if run, evicted := s.lookupRun(runs[0].ID); run != nil || !evicted {
		t.Fatalf("lookupRun(%s) = (%v, %v), want evicted", runs[0].ID, run, evicted)
	}
}

// TestFuzzEndpoint: POST /v1/fuzz generates and admits a sweep slice,
// and rejects an unknown generator profile.
func TestFuzzEndpoint(t *testing.T) {
	s := NewServer(Config{Workers: 4, QueueDepth: 64})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := FuzzRequest{Tenant: "fz", GenSeed: 1, Count: 2, Seeds: []uint64{1, 2}}
	resp, body := postJSON(t, ts.URL+"/v1/fuzz", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fuzz status = %d, body %s", resp.StatusCode, body)
	}
	var fr FuzzResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if len(fr.Scenarios) != 2 || len(fr.Runs) != 4 {
		t.Fatalf("fuzz admitted %d scenarios / %d runs, want 2/4", len(fr.Scenarios), len(fr.Runs))
	}
	for _, name := range fr.Scenarios {
		if !strings.HasPrefix(name, "fuzz-") {
			t.Fatalf("unexpected generated scenario name %q", name)
		}
	}
	waitFinished(t, s, 4)
	if st := s.Stats(); st.Failed != 0 {
		t.Fatalf("%d fuzz runs failed: %+v", st.Failed, s.Runs("fz", RunFailed))
	}

	resp, body = postJSON(t, ts.URL+"/v1/fuzz", FuzzRequest{GenSeed: 1, Profile: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad profile status = %d, body %s", resp.StatusCode, body)
	}
}

// TestFuzzBatchesLeaveScenarioTable: generated specs travel with their
// runs. Two fuzz batches from different generator seeds run to done, and
// GET /v1/scenarios still lists exactly the fixed table pinned by the
// root scenario golden, before and after.
func TestFuzzBatchesLeaveScenarioTable(t *testing.T) {
	raw, err := os.ReadFile("../testdata/golden/scenarios.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if name, _, _ := strings.Cut(line, " "); !slices.Contains(want, name) {
			want = append(want, name)
		}
	}
	s := NewServer(Config{Workers: 2, QueueDepth: 64})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	listed := func() []string {
		t.Helper()
		_, body := getBody(t, ts.URL+"/v1/scenarios")
		var out struct{ Scenarios []string }
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Scenarios
	}
	if got := listed(); !slices.Equal(got, want) {
		t.Errorf("GET /v1/scenarios = %v, want the fixed table %v", got, want)
	}
	var runs []RunStatus
	for _, genSeed := range []uint64{3, 40} {
		resp, body := postJSON(t, ts.URL+"/v1/fuzz", FuzzRequest{Tenant: "fz", GenSeed: genSeed, Count: 2})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fuzz gen_seed=%d status = %d, body %s", genSeed, resp.StatusCode, body)
		}
		var fr FuzzResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, fr.Runs...)
	}
	if len(runs) != 4 {
		t.Fatalf("admitted %d runs, want 4", len(runs))
	}
	for _, st := range runs {
		if got := waitState(t, s.Run(st.ID)); got != RunDone {
			t.Fatalf("run %s (%s) ended %s: %s", st.ID, st.Scenario, got, s.Run(st.ID).snapshot().Error)
		}
	}
	if got := listed(); !slices.Equal(got, want) {
		t.Fatalf("after two fuzz batches GET /v1/scenarios = %v, want the fixed table %v", got, want)
	}
}
