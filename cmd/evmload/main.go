// Command evmload is the admission-controlled load harness for evmd: it
// hammers the daemon with concurrent scenario submissions and reports
// admission latency, throughput and queue depth — the first benchmark
// that measures the repo as a *service* rather than a single simulation.
// It also verifies the service-level guarantees the daemon makes:
//
//   - no lost or duplicated runs: every accepted submission appears in
//     the run table exactly once and completes without error;
//   - multi-tenant determinism: streamed event logs for a sampled set of
//     seeds are byte-identical across tenants AND identical to a serial
//     (no daemon, no concurrency) execution of the same spec.
//
// By default it spawns an in-process daemon on a loopback port, so CI
// can run a full load smoke test with one command:
//
//	evmload -n 1000 -c 64 -tenants 8 -verify 4
//
// Point it at a running daemon instead with -addr.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"evm"
	"evm/evmd"
)

// outcome records one submission attempt.
type outcome struct {
	idx     int
	status  int
	latency time.Duration
	runID   string
	seed    uint64
	err     error
}

func main() {
	addr := flag.String("addr", "", "target daemon base URL (empty = spawn an in-process daemon)")
	n := flag.Int("n", 1000, "total submissions")
	conc := flag.Int("c", 64, "concurrent submitters")
	tenants := flag.Int("tenants", 8, "distinct tenants to submit under")
	seeds := flag.Int("seeds", 8, "distinct seeds cycled across submissions")
	scenario := flag.String("scenario", evm.ScenarioEightController, "scenario to submit")
	horizon := flag.Duration("horizon", 2*time.Second, "virtual-time horizon per run")
	verify := flag.Int("verify", 4, "seeds to verify byte-identical against serial execution (0 = skip)")
	perSeed := flag.Int("verify-runs", 3, "daemon runs compared per verified seed")
	workers := flag.Int("workers", 0, "in-process daemon workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "in-process daemon queue bound (0 = max(n, 1024))")
	allow429 := flag.Bool("allow-429", false, "treat backpressure rejections as expected (stress mode)")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall completion deadline")
	flag.Parse()

	base := *addr
	if base == "" {
		bound := *queue
		if bound <= 0 {
			bound = *n
			if bound < 1024 {
				bound = 1024
			}
		}
		srv := evmd.NewServer(evmd.Config{Workers: *workers, QueueDepth: bound})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("evmload: %v", err)
		}
		go func() { _ = http.Serve(ln, srv.Handler()) }()
		base = "http://" + ln.Addr().String()
		fmt.Printf("evmload: in-process daemon on %s (workers=%d queue=%d)\n",
			base, srv.Stats().Workers, bound)
		defer srv.Drain(0)
	}

	fmt.Printf("evmload: %d submissions, %d concurrent, %d tenants, scenario %s, %d seeds, horizon %v\n",
		*n, *conc, *tenants, *scenario, *seeds, *horizon)

	outcomes := make([]outcome, *n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 30 * time.Second}
	submitStart := time.Now() //evm:allow-wallclock load harness measures real daemon throughput, not simulated time
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				seed := uint64(1 + i%*seeds)
				body, _ := json.Marshal(evmd.SubmitRequest{
					Tenant:    fmt.Sprintf("tenant-%d", i%*tenants),
					Scenario:  *scenario,
					Seed:      seed,
					HorizonMS: horizon.Milliseconds(),
				})
				start := time.Now() //evm:allow-wallclock real HTTP request latency is the measurement
				resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
				oc := outcome{idx: i, seed: seed, latency: time.Since(start), err: err} //evm:allow-wallclock real HTTP request latency is the measurement
				if err == nil {
					oc.status = resp.StatusCode
					var sub evmd.SubmitResponse
					if decErr := json.NewDecoder(resp.Body).Decode(&sub); decErr == nil && len(sub.Runs) == 1 {
						oc.runID = sub.Runs[0].ID
					}
					resp.Body.Close()
				}
				outcomes[i] = oc
			}
		}()
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	submitWall := time.Since(submitStart) //evm:allow-wallclock load harness measures real daemon throughput

	accepted, rejected429, refused503, hardErrs := 0, 0, 0, 0
	var latencies []time.Duration
	ids := make(map[string]int)
	dups := 0
	for _, oc := range outcomes {
		switch {
		case oc.err != nil:
			hardErrs++
		case oc.status == http.StatusAccepted:
			accepted++
			latencies = append(latencies, oc.latency)
			if oc.runID == "" {
				hardErrs++
			} else if ids[oc.runID]++; ids[oc.runID] > 1 {
				dups++
			}
		case oc.status == http.StatusTooManyRequests:
			rejected429++
		case oc.status == http.StatusServiceUnavailable:
			refused503++
		default:
			hardErrs++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	fmt.Printf("  accepted           %6d  (429: %d, 503: %d, errors: %d)\n",
		accepted, rejected429, refused503, hardErrs)
	fmt.Printf("  admission latency  p50 %v  p95 %v  p99 %v  max %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	fmt.Printf("  submission phase   %d in %v (%.0f/sec)\n",
		*n, submitWall.Round(time.Millisecond), float64(*n)/submitWall.Seconds())

	// Wait for the daemon to finish every accepted run.
	var stats evmd.Stats
	deadline := time.Now().Add(*timeout) //evm:allow-wallclock harness timeout against a real daemon
	for {
		stats = getStats(client, base)
		if int(stats.Completed+stats.Failed+stats.Cancelled) >= accepted {
			break
		}
		//evm:allow-wallclock harness timeout against a real daemon
		if time.Now().After(deadline) {
			fmt.Printf("evmload: FAIL — timeout with %d/%d runs finished\n",
				stats.Completed+stats.Failed+stats.Cancelled, accepted)
			os.Exit(1)
		}
		time.Sleep(10 * time.Millisecond) //evm:allow-wallclock completion polling against a real daemon
	}
	totalWall := time.Since(submitStart) //evm:allow-wallclock load harness measures real daemon throughput
	fmt.Printf("  completion         %d done in %v (%.0f runs/sec end-to-end)\n",
		stats.Completed, totalWall.Round(time.Millisecond), float64(accepted)/totalWall.Seconds())
	fmt.Printf("  queue depth        peak %d (bound %d)\n", stats.PeakQueueDepth, stats.QueueBound)

	// Service-level checks.
	failures := 0
	if hardErrs > 0 {
		fmt.Printf("evmload: FAIL — %d submissions errored\n", hardErrs)
		failures++
	}
	if rejected429 > 0 && !*allow429 {
		fmt.Printf("evmload: FAIL — %d backpressure rejections with an adequate queue (-allow-429 to permit)\n", rejected429)
		failures++
	}
	if dups > 0 {
		fmt.Printf("evmload: FAIL — %d duplicated run IDs\n", dups)
		failures++
	}
	if stats.Failed > 0 {
		fmt.Printf("evmload: FAIL — %d runs finished with errors\n", stats.Failed)
		failures++
	}
	if lost := accepted - runCount(client, base); lost != 0 {
		fmt.Printf("evmload: FAIL — run table disagrees with acceptances by %d (lost runs)\n", lost)
		failures++
	} else {
		fmt.Printf("  lost/duplicated    0/0\n")
	}

	if mc, err := checkMetrics(client, base, *addr == "", accepted, pct); err != nil {
		fmt.Printf("evmload: FAIL — /metrics: %v\n", err)
		failures++
	} else {
		fmt.Printf("  /metrics           %s\n", mc)
	}

	if *verify > 0 {
		compared, err := verifyDeterminism(client, base, outcomes[:], *scenario, *horizon, *verify, *perSeed)
		if err != nil {
			fmt.Printf("evmload: FAIL — determinism: %v\n", err)
			failures++
		} else {
			fmt.Printf("  determinism        %s\n", compared)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
	fmt.Printf("evmload: PASS\n")
}

// checkMetrics scrapes GET /metrics and cross-checks the daemon's own
// admission-latency histogram against the client-side measurements: the
// server handler time for any request is bounded by the client's round
// trip, so with equal observation counts each server percentile must
// sit at or below the matching client percentile. A spawned in-process
// daemon saw exactly this harness's traffic, so its accepted counter
// must equal ours too. Catches the Prometheus surface drifting from the
// /v1/stats view it is rendered from.
func checkMetrics(client *http.Client, base string, inProcess bool, accepted int, pct func(float64) time.Duration) (string, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	samples, buckets, err := parseMetrics(resp.Body)
	if err != nil {
		return "", err
	}
	if inProcess {
		if got, ok := samples["evmd_submissions_accepted_total"]; !ok || int(got) != accepted {
			return "", fmt.Errorf("evmd_submissions_accepted_total = %g, harness accepted %d", got, accepted)
		}
	}
	count, ok := samples["evmd_admission_latency_seconds_count"]
	if !ok {
		return "", fmt.Errorf("evmd_admission_latency_seconds histogram missing")
	}
	if int(count) < accepted {
		return "", fmt.Errorf("admission histogram count %g < %d accepted submissions", count, accepted)
	}
	if int(count) == accepted && accepted > 0 {
		for _, p := range []float64{0.50, 0.95, 0.99} {
			lb := bucketLowerBound(buckets, int(count), p)
			if cl := pct(p).Seconds(); cl < lb {
				return "", fmt.Errorf("server admission p%d sits above %gs but client round-trip p%d is %gs",
					int(p*100), lb, int(p*100), cl)
			}
		}
		return fmt.Sprintf("admission histogram count=%d, server p50/p95/p99 within client round-trips", int(count)), nil
	}
	return fmt.Sprintf("admission histogram count=%d covers %d accepted submissions", int(count), accepted), nil
}

// histBucket is one cumulative bucket of the scraped admission histogram.
type histBucket struct {
	le  float64
	cum int
}

// parseMetrics reads Prometheus text exposition, returning unlabelled
// samples by name plus the admission-latency bucket series.
func parseMetrics(r io.Reader) (map[string]float64, []histBucket, error) {
	samples := make(map[string]float64)
	var buckets []histBucket
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		const bucketPrefix = `evmd_admission_latency_seconds_bucket{le="`
		if strings.HasPrefix(fields[0], bucketPrefix) {
			leStr := strings.TrimSuffix(strings.TrimPrefix(fields[0], bucketPrefix), `"}`)
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					return nil, nil, fmt.Errorf("bad bucket bound %q", leStr)
				}
			}
			buckets = append(buckets, histBucket{le: le, cum: int(v)})
			continue
		}
		samples[fields[0]] = v
	}
	return samples, buckets, sc.Err()
}

// bucketLowerBound returns the lower edge of the histogram bucket that
// holds the p-quantile observation (same nearest-rank convention as the
// harness's own pct helper), i.e. a value the true server-side quantile
// is known to be at or above.
func bucketLowerBound(buckets []histBucket, count int, p float64) float64 {
	if count == 0 || len(buckets) == 0 {
		return 0
	}
	rank := int(p*float64(count-1)) + 1 // 1-based order statistic
	lower := 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			return lower
		}
		lower = b.le
	}
	return lower
}

func getStats(client *http.Client, base string) evmd.Stats {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return evmd.Stats{}
	}
	defer resp.Body.Close()
	var st evmd.Stats
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st
}

func runCount(client *http.Client, base string) int {
	resp, err := client.Get(base + "/v1/runs")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var list struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return -1
	}
	return list.Count
}

// verifyDeterminism compares, for up to maxSeeds seeds, the event
// streams of several daemon runs against a serial in-process execution
// of the identical spec. Any divergence — across tenants, or between
// service and serial — is a hard failure.
func verifyDeterminism(client *http.Client, base string, outcomes []outcome, scenario string, horizon time.Duration, maxSeeds, perSeed int) (string, error) {
	bySeed := make(map[uint64][]string)
	var seedOrder []uint64
	for _, oc := range outcomes {
		if oc.status != http.StatusAccepted || oc.runID == "" {
			continue
		}
		if len(bySeed[oc.seed]) == 0 {
			seedOrder = append(seedOrder, oc.seed)
		}
		if len(bySeed[oc.seed]) < perSeed {
			bySeed[oc.seed] = append(bySeed[oc.seed], oc.runID)
		}
	}
	sort.Slice(seedOrder, func(i, j int) bool { return seedOrder[i] < seedOrder[j] })
	if len(seedOrder) > maxSeeds {
		seedOrder = seedOrder[:maxSeeds]
	}
	events, runsCompared := 0, 0
	for _, seed := range seedOrder {
		spec := evm.RunSpec{Scenario: scenario, Seed: seed, Horizon: horizon}
		serial, err := evmd.SerialEvents(spec)
		if err != nil {
			return "", fmt.Errorf("serial %s: %w", spec.Label(), err)
		}
		for _, id := range bySeed[seed] {
			streamed, err := fetchEvents(client, base, id)
			if err != nil {
				return "", fmt.Errorf("run %s: %w", id, err)
			}
			if len(streamed) != len(serial) {
				return "", fmt.Errorf("run %s (seed %d): %d streamed events vs %d serial",
					id, seed, len(streamed), len(serial))
			}
			for i := range streamed {
				if streamed[i] != serial[i] {
					return "", fmt.Errorf("run %s (seed %d) diverges at event %d:\n  daemon: %+v\n  serial: %+v",
						id, seed, i, streamed[i], serial[i])
				}
			}
			events += len(streamed)
			runsCompared++
		}
	}
	return fmt.Sprintf("%d seeds x %d runs byte-identical to serial (%d events compared)",
		len(seedOrder), runsCompared, events), nil
}

func fetchEvents(client *http.Client, base, runID string) ([]evmd.EventRecord, error) {
	resp, err := client.Get(base + "/v1/runs/" + runID + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events status %d", resp.StatusCode)
	}
	var out []evmd.EventRecord
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var rec evmd.EventRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
