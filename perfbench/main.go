// Command perfbench is the repository benchmark. It runs one workload
// from a seed, checks every output the workload produces, and prints the
// workload's metrics as one JSON object on the last line of standard
// output; a table with each metric's unit and better direction, and every
// failed check, goes to standard error.
//
//	go run . --workload cell --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// prints the per-layer ledger instead and writes the benchmark-side span
// file and the CPU profile under --out. README.md says why each workload
// exists and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloads maps each workload name to the function that measures it.
var workloads = map[string]func(*bench){
	"cell":    runCell,
	"campus":  runCampus,
	"service": runService,
}

func main() {
	workload := flag.String("workload", "", "workload to run: cell, campus or service")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", "perfbench-out", "directory for the span file and CPU profile of --trace 1")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cell|campus|service --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSize)
	run(b)
	if b.traced {
		if err := b.writeArtifacts(*out); err != nil {
			b.fail("write trace artifacts: %v", err)
		}
	}
	rep := b.report()
	b.printTable(os.Stderr, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// size scales a workload's inputs. The benchmark runs fullSize; the
// self-test runs smallSize so that it finishes in seconds.
type size struct {
	e2Trials  int // E2 fail-over trials per round (cell)
	specs     int // distinct submission specs (service)
	openRuns  int // runs of the traced open loop (service)
	burstRuns int // runs of the traced saturation burst (service)
}

var (
	// The open loop runs for two seconds. The burst stays below the 256
	// runs evmd retains, so no run is evicted before it is followed.
	fullSize  = size{e2Trials: 120, specs: 16, openRuns: 2 * openRate, burstRuns: 200}
	smallSize = size{e2Trials: 2, specs: 2, openRuns: 8, burstRuns: 8}
)

// bench accumulates one invocation's output checks and measurements.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	size     size

	attempted, failed int
	errs              []string
	values            map[string]float64
	// heapPass makes every run, after its horizon, raise peakHeapMB to
	// the live heap; the collection this forces makes such runs untimed.
	heapPass   bool
	peakHeapMB float64
	spans      *wallSpans // benchmark-side spans; nil unless traced
	profile    []byte     // CPU profile of the profiled pass (traced)
}

func newBench(workload string, seed uint64, budget time.Duration, traced bool, sz size) *bench {
	b := &bench{workload: workload, seed: seed, budget: budget, traced: traced, size: sz,
		values: make(map[string]float64)}
	if traced {
		b.spans = newWallSpans()
	}
	return b
}

// fail records one failed output check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// repeat calls fn at least once and until budget has elapsed.
func repeat(budget time.Duration, fn func()) {
	for start := time.Now(); ; {
		fn()
		if time.Since(start) >= budget {
			return
		}
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line printed last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// defs returns the metrics this invocation prints.
func (b *bench) defs() []metricDef {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

// report assembles the result line. An end-to-end metric that reads zero
// or not a number fails the run; a per-layer metric of a layer the
// workload does not exercise reads zero.
func (b *bench) report() report {
	rep := report{Metrics: make(map[string]metric)}
	for _, d := range b.defs() {
		v := b.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!b.traced && v == 0) {
			b.fail("metric %s reads %v", d.name, v)
			v = 0
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep.Attempted = max(b.attempted, 1)
	rep.Failed = b.failed
	rep.Correct = b.failed == 0
	return rep
}

// printTable writes every metric with its unit and better direction, then
// every failed check.
func (b *bench) printTable(w io.Writer, rep report) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t: %d attempted, %d failed\n",
		b.workload, b.seed, b.traced, rep.Attempted, rep.Failed)
	for _, d := range b.defs() {
		fmt.Fprintf(w, "  %-32s %14.6g %-8s %s is better\n", d.name, rep.Metrics[d.name].Value, d.unit, d.better)
	}
	for _, e := range b.errs {
		fmt.Fprintln(w, "  FAIL", e)
	}
}

// writeArtifacts writes the span file and the CPU profile of a traced run.
func (b *bench) writeArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	if err := b.spans.write(base + ".spans.json"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", b.profile, 0o644)
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 without samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// subSeed derives the seed of input i of one input stream from the
// workload seed (a splitmix64 mix), so every input follows from --seed.
func subSeed(seed uint64, stream, i int) uint64 {
	x := seed ^ uint64(stream)<<48 ^ uint64(i)<<24
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
