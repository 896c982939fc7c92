package evm

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

const fig6GoldenPath = "testdata/fig6/digests.txt"

// fig6Digest builds the default gas plant at seed, calls Record right
// after NewGasPlant and runs one timeline: the Fig. 6 compute fault at
// 120 s with a 300 s horizon, or a silent crash of the primary at 60 s
// stopped at 120 s. It returns a line naming the run, its CSV row and
// latency counts, and a SHA-256 over Recorder().WriteCSV followed by
// every ActuationLatencies() value in nanoseconds.
func fig6Digest(t *testing.T, seed uint64, crash bool) string {
	t.Helper()
	cfg := DefaultGasPlantConfig()
	cfg.Seed = seed
	s := newGasPlant(t, cfg)
	s.Record()
	name := "fig6"
	if crash {
		name = "crash"
		s.Run(60 * time.Second)
		s.CrashPrimary()
		s.Run(60 * time.Second)
	} else if _, err := s.RunFig6(120*time.Second, 300*time.Second); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := s.Recorder().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lats := s.ActuationLatencies()
	h := sha256.New()
	fmt.Fprintln(h, "csv")
	h.Write([]byte(csv.String()))
	fmt.Fprintln(h, "latencies")
	for _, l := range lats {
		fmt.Fprintln(h, int64(l))
	}
	rows := strings.Count(csv.String(), "\n") - 1
	return fmt.Sprintf("%s seed=%d rows=%d latencies=%d %x", name, seed, rows, len(lats), h.Sum(nil))
}

// TestFig6RecordingGolden pins what a gas plant records once Record is
// called: the Fig. 6(b) series CSV and the E5 actuation latencies, for
// seeds 1 and 2 under the Fig. 6 timeline and under a primary crash.
// Regenerate, only for an intended behaviour change, with
//
//	go test -run TestFig6RecordingGolden -update-golden .
func TestFig6RecordingGolden(t *testing.T) {
	var lines []string
	for _, seed := range []uint64{1, 2} {
		for _, crash := range []bool{false, true} {
			lines = append(lines, fig6Digest(t, seed, crash))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(fig6GoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fig6GoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig6GoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if got != string(want) {
		t.Fatalf("recordings differ from %s:\ngot:\n%swant:\n%s", fig6GoldenPath, got, want)
	}
}

// TestUnrecordedPlantRecordsNothing: a plant that never called Record
// has an empty recorder and no latencies, and a second Record call
// neither restarts nor duplicates the recording.
func TestUnrecordedPlantRecordsNothing(t *testing.T) {
	s := newGasPlant(t, DefaultGasPlantConfig())
	s.Run(10 * time.Second)
	if names := s.Recorder().Names(); len(names) != 0 {
		t.Fatalf("unrecorded plant has series %v", names)
	}
	if lats := s.ActuationLatencies(); len(lats) != 0 {
		t.Fatalf("unrecorded plant has %d latencies", len(lats))
	}
	if s.GW.Stats().ActuationsOK == 0 {
		t.Fatal("no actuations in 10 s")
	}

	s.Record()
	s.Record()
	before := s.GW.Stats().ActuationsOK
	s.Run(10 * time.Second)
	if got, want := len(s.ActuationLatencies()), s.GW.Stats().ActuationsOK-before; got != want {
		t.Fatalf("recorded %d latencies for %d actuations since Record", got, want)
	}
	// Ticks fall 1 s, 2 s, ... after Record; the one at the horizon does
	// not fire.
	for _, name := range s.Recorder().Names() {
		if n := s.Recorder().Series(name).Len(); n != 9 {
			t.Fatalf("series %s has %d samples over 10 s, want 9", name, n)
		}
	}
}

// TestSteadyStateAllocatesNothing: once a gas plant that records
// nothing is warm, its control loop allocates nothing. Sensor fan-out,
// replica steps, health bundles and actuations all run on owned
// buffers, and each accepted actuation is published as the cell's one
// borrowed *ActuationEvent. The 40 s after a 20 s warm-up must not
// allocate at all, though they accept hundreds of actuations.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, seed := range []uint64{1, 2, 3} {
		cfg := DefaultGasPlantConfig()
		cfg.Seed = seed
		s := newGasPlant(t, cfg)
		s.Run(20 * time.Second)
		before := s.GW.Stats().ActuationsOK
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.Run(40 * time.Second)
		runtime.ReadMemStats(&m1)
		allocs := m1.Mallocs - m0.Mallocs
		acts := s.GW.Stats().ActuationsOK - before
		t.Logf("seed %d: %d allocs for %d actuations", seed, allocs, acts)
		if acts == 0 {
			t.Fatalf("seed %d: no actuation accepted over 40 s of steady state", seed)
		}
		if allocs != 0 {
			t.Errorf("seed %d: %d allocs over 40 s of steady state (%d accepted actuations), want 0", seed, allocs, acts)
		}
	}
}
