package evmd

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Prometheus text-exposition metrics for the daemon, with no dependency
// beyond the standard library: a fixed-bucket histogram plus formatting
// helpers, served at GET /metrics. Gauges and counters read straight off
// the Server's existing atomics and queue, so the scrape surface can
// never drift from the /v1/stats JSON — both views render the same
// state.

// histogram is a fixed-bucket, cumulative-on-render histogram matching
// Prometheus semantics: bucket le="bounds[i]" counts observations
// <= bounds[i]. Safe for concurrent observation.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1, last is the +Inf overflow
	sum    float64
	total  uint64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// snapshot returns the per-bucket counts, the sum and the total count.
func (h *histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.total
}

// write renders the histogram in exposition format.
func (h *histogram) write(b *strings.Builder, name, help string) {
	counts, sum, total := h.snapshot()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", name, total)
}

func formatBound(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeGauge(b *strings.Builder, name, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
}

func writeCounter(b *strings.Builder, name, help string, v int64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// admissionBuckets spans sub-millisecond in-process admissions through
// multi-second stalls behind a saturated queue.
func admissionBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// runWallBuckets spans fast single-cell runs through long campus sweeps.
func runWallBuckets() []float64 {
	return []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// runStateCounts tallies the run table by lifecycle state.
func (s *Server) runStateCounts() map[RunState]int {
	s.mu.Lock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	out := make(map[RunState]int)
	for _, r := range runs {
		out[r.State()]++
	}
	return out
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	byState := s.runStateCounts()
	var b strings.Builder
	writeGauge(&b, "evmd_workers", "Size of the run worker pool.", float64(st.Workers))
	writeGauge(&b, "evmd_queue_depth", "Current admission queue depth.", float64(st.QueueDepth))
	writeGauge(&b, "evmd_queue_depth_peak", "Peak admission queue depth since start.", float64(st.PeakQueueDepth))
	writeGauge(&b, "evmd_queue_bound", "Admission queue capacity.", float64(st.QueueBound))
	writeGauge(&b, "evmd_running_runs", "Runs executing right now.", float64(st.Running))
	draining := 0.0
	if st.Draining {
		draining = 1
	}
	writeGauge(&b, "evmd_draining", "1 while the daemon refuses new submissions.", draining)
	fmt.Fprintf(&b, "# HELP evmd_runs Runs in the table by lifecycle state.\n# TYPE evmd_runs gauge\n")
	for _, state := range []RunState{RunQueued, RunRunning, RunDone, RunFailed, RunCancelled} {
		fmt.Fprintf(&b, "evmd_runs{state=%q} %d\n", string(state), byState[state])
	}
	writeGauge(&b, "evmd_stream_subscribers", "Open event-stream subscriptions.", float64(s.streamSubs.Load()))
	writeCounter(&b, "evmd_submissions_accepted_total", "Specs admitted to the queue.", st.Accepted)
	writeCounter(&b, "evmd_submissions_rejected_backpressure_total", "Specs rejected because the queue was full.", st.RejectedBackpressur)
	writeCounter(&b, "evmd_submissions_rejected_draining_total", "Specs refused while draining.", st.RejectedDraining)
	writeCounter(&b, "evmd_runs_completed_total", "Runs finished successfully.", st.Completed)
	writeCounter(&b, "evmd_runs_failed_total", "Runs finished with an error.", st.Failed)
	writeCounter(&b, "evmd_run_panics_total", "Failed runs that panicked (recovered; the daemon keeps serving).", st.Panics)
	writeCounter(&b, "evmd_runs_cancelled_total", "Queued runs cancelled by drain.", st.Cancelled)
	writeCounter(&b, "evmd_runs_evicted_total", "Finished runs evicted by the retention policy.", st.Evicted)
	s.admitHist.write(&b, "evmd_admission_latency_seconds", "POST /v1/runs handler latency.")
	s.runWallHist.write(&b, "evmd_run_wall_seconds", "Wall-clock execution time per run.")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
