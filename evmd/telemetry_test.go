package evmd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"evm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/telemetry from this tree")

// telemetryGoldens are the runs whose telemetry testdata/telemetry pins
// byte for byte: a single cell, whose cell column is empty, and a campus.
var telemetryGoldens = []struct {
	name string
	spec evm.RunSpec
}{
	{"eight-controller-seed7", evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 7, Horizon: 2 * time.Second}},
	{"campus-failover-seed7", evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 7, Horizon: 20 * time.Second}},
}

// pauseAt is the event whose publication TestTelemetryGolden holds a run
// at, to read its status and samples mid-run.
const pauseAt = 10

// TestTelemetryGolden pins every telemetry surface of a run against
// testdata/telemetry: GET /v1/runs/{id}/telemetry as CSV and as NDJSON,
// the Config.EventDir flush (the CSV's bytes), the Runner.EventDir file,
// and the status's events and samples counts, in the middle of the run
// and after it. Mid-run, the samples are the CSV's first rows.
//
//	go test -run TestTelemetryGolden -update-golden ./evmd
//
// rewrites the files; do that only for an intended format change.
func TestTelemetryGolden(t *testing.T) {
	for _, g := range telemetryGoldens {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			s := NewServer(Config{Workers: 1, QueueDepth: 4, EventDir: dir})
			defer s.Drain(0)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// The hold subscribes before the daemon's stream does, so when it
			// blocks in event pauseAt the stream has logged the ones before.
			held, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			resume := func() { once.Do(func() { close(release) }) }
			defer resume()
			build := func(spec evm.RunSpec) (*evm.Experiment, error) {
				exp, err := evm.BuildScenario(spec)
				if err != nil {
					return nil, err
				}
				n := 0
				exp.Events().Subscribe(func(evm.Event) {
					if n++; n == pauseAt {
						close(held)
						<-release
					}
				})
				return exp, nil
			}
			runs, err := s.admit("acme", build, []evm.RunSpec{g.spec})
			if err != nil {
				t.Fatal(err)
			}
			run := runs[0]
			select {
			case <-held:
			case <-time.After(30 * time.Second):
				t.Fatalf("run %s never published event %d (state %s)", run.ID, pauseAt, run.State())
			}
			mid := run.snapshot()
			var midCSV bytes.Buffer
			if err := evm.WriteSamplesCSV(&midCSV, run.Samples()); err != nil {
				t.Fatal(err)
			}
			resume()
			if st := waitState(t, run); st != RunDone {
				t.Fatalf("run ended %s: %s", st, run.snapshot().Error)
			}
			end := run.snapshot()

			url := ts.URL + "/v1/runs/" + run.ID + "/telemetry"
			csvBody := getOK(t, url+"?format=csv")
			ndjson := getOK(t, url+"?format=ndjson")
			flushed, err := os.ReadFile(filepath.Join(dir, run.ID+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			runnerDir := t.TempDir()
			if res := (&evm.Runner{Workers: 1, EventDir: runnerDir}).RunOne(g.spec); res.Err != nil {
				t.Fatal(res.Err)
			}
			files, err := filepath.Glob(filepath.Join(runnerDir, "*.csv"))
			if err != nil || len(files) != 1 {
				t.Fatalf("Runner.EventDir wrote %v (%v), want one CSV", files, err)
			}
			runnerCSV, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			status := fmt.Sprintf("mid events %d samples %d\nend events %d samples %d\n",
				mid.Events, mid.Samples, end.Events, end.Samples)

			golden := filepath.Join("testdata", "telemetry", g.name)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				for ext, b := range map[string][]byte{".csv": csvBody, ".ndjson": ndjson, ".runner.csv": runnerCSV, ".status": []byte(status)} {
					if err := os.WriteFile(golden+ext, b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, c := range []struct {
				what, ext string
				got       []byte
			}{
				{"telemetry CSV", ".csv", csvBody},
				{"telemetry NDJSON", ".ndjson", ndjson},
				{"EventDir flush", ".csv", flushed},
				{"Runner.EventDir file", ".runner.csv", runnerCSV},
				{"run status counts", ".status", []byte(status)},
			} {
				want, err := os.ReadFile(golden + c.ext)
				if err != nil {
					t.Fatalf("read golden (regenerate with -update-golden): %v", err)
				}
				if !bytes.Equal(c.got, want) {
					t.Errorf("%s differs from %s%s:\n%s", c.what, golden, c.ext, firstDiff(c.got, want))
				}
			}
			rows := strings.SplitAfter(string(csvBody), "\n")
			if len(rows) < pauseAt || midCSV.String() != strings.Join(rows[:pauseAt], "") {
				t.Errorf("mid-run samples are not the first %d rows of the final CSV:\n%s", pauseAt-1, midCSV.String())
			}
		})
	}
}

// getOK fetches url, requiring 200, and returns the body.
func getOK(t *testing.T, url string) []byte {
	t.Helper()
	resp, body := getBody(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (%s)", url, resp.StatusCode, body)
	}
	return body
}

// firstDiff describes the first line where got and want part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// TestStatusAndSamplesReadDuringRun reads a run's status and samples
// from several goroutines while the run appends to its stream and
// finalizes it; under -race it checks that both are read under the
// stream's lock. A reader's samples never trail the status it read first.
func TestStatusAndSamplesReadDuringRun(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	runs, err := s.Submit("acme", evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 7, Horizon: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	run := runs[0]
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := run.snapshot()
				if n := len(run.Samples()); n < st.Samples {
					t.Errorf("derived %d samples after a status of %d", n, st.Samples)
					return
				}
				if st.State != RunQueued && st.State != RunRunning {
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := waitState(t, run); st != RunDone {
		t.Fatalf("run ended %s", st)
	}
}

// TestFollowersStreamReferenceBytes: readers that follow a run's events
// as NDJSON while the run appends receive exactly the bytes of its
// SerialEvents reference. The run is held at event pauseAt until every
// reader has its first line, so each one renders kept events while the
// simulation goroutine appends more; under -race that checks a kept
// event is never written after it is logged.
func TestFollowersStreamReferenceBytes(t *testing.T) {
	spec := evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 7, Horizon: 20 * time.Second}
	ref, err := SerialEvents(spec)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, rec := range ref {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}

	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	resume := func() { once.Do(func() { close(release) }) }
	defer resume()
	build := func(spec evm.RunSpec) (*evm.Experiment, error) {
		exp, err := evm.BuildScenario(spec)
		if err != nil {
			return nil, err
		}
		n := 0
		exp.Events().Subscribe(func(evm.Event) {
			if n++; n == pauseAt {
				close(held)
				<-release
			}
		})
		return exp, nil
	}
	runs, err := s.admit("acme", build, []evm.RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		t.Fatalf("run never published event %d", pauseAt)
	}

	const readers = 4
	got := make([][]byte, readers)
	var first, done sync.WaitGroup
	first.Add(readers)
	done.Add(readers)
	for i := range readers {
		go func() {
			defer done.Done()
			started := false
			defer func() {
				if !started {
					first.Done()
				}
			}()
			resp, err := http.Get(ts.URL + "/v1/runs/" + runs[0].ID + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Errorf("reader %d: first line: %v", i, err)
				return
			}
			started = true
			first.Done()
			rest, err := io.ReadAll(br)
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
			got[i] = append(line, rest...)
		}()
	}
	first.Wait()
	resume()
	done.Wait()
	if st := waitState(t, runs[0]); st != RunDone {
		t.Fatalf("run ended %s", st)
	}
	for i, b := range got {
		if !bytes.Equal(b, want.Bytes()) {
			t.Errorf("reader %d differs from the SerialEvents NDJSON:\n%s", i, firstDiff(b, want.Bytes()))
		}
	}
}

// TestRetainedHeapPerRun gates what the daemon keeps of a finished run:
// over 256 finished eight-controller runs of 2 s, as the service
// benchmark submits them, the live heap grows by less than 4.5 kB a run
// (3,481 B, alone or after any other test). A finished run keeps its
// status, its kept events and its final metric map; its event records
// and telemetry samples are rendered on request.
func TestRetainedHeapPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping inflates the live heap")
	}
	const runs, budget = 256, 4_500
	s := NewServer(Config{Workers: 2, QueueDepth: runs})
	defer s.Drain(0)
	finish := func(n int) {
		specs := make([]evm.RunSpec, n)
		for i := range specs {
			specs[i] = evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: uint64(i%4 + 1), Horizon: 2 * time.Second}
		}
		batch, err := s.Submit("acme", specs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range batch {
			if st := waitState(t, run); st != RunDone {
				t.Fatalf("run %s ended %s", run.ID, st)
			}
		}
	}
	// The figure is the slope between two equal batches: growth that
	// happens once (first-use tables, worker stacks, heap that earlier
	// tests in the binary leave to settle) lands in the first batch and
	// cancels out.
	finish(8)
	finish(runs)
	before := liveHeap()
	finish(runs)
	per := (liveHeap() - before) / runs
	t.Logf("live heap grows %d B per finished run", per)
	if per >= budget {
		t.Fatalf("live heap grows %d B per finished run, budget %d B", per, budget)
	}
	runtime.KeepAlive(s)
}

// liveHeap returns the heap bytes live after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
