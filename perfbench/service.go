package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"time"

	"evm"
	"evm/evmd"
)

// The service workload: an in-process evmd with two workers and tracing
// off, driven over loopback HTTP. The client submits 2-second
// eight-controller runs for four tenants in turn; for each it streams the
// run's events as NDJSON until the run ends, compares them with the serial
// reference, and reads the run's status. A run costs about a millisecond,
// most of it construction, admission, queueing and streaming rather than
// steady-state slots, so a change that speeds up the steady state but
// slows construction shows here and not in cell or campus.
//
// The end-to-end figures come from a closed loop with one run in flight on
// one connection. On a shared 2-CPU host whose speed changes over seconds,
// an open loop turns every slow spell into queues, and its figures then
// measure the host more than the daemon. The traced run adds the open
// loop at a fixed rate and a saturation burst, on two connections, for
// the daemon's per-layer figures.

const (
	serviceTenants = 4
	serviceWorkers = 2
	serviceHorizon = 2 * time.Second
	// warmupRuns is how many submissions precede any measurement: more
	// than the daemon retains, so its run table is full.
	warmupRuns = 320
	// openRate is the open loop's fixed submission rate, about half the
	// saturation throughput measured on a 2-CPU host.
	openRate = 500
	// retainedRuns caps evmd's run table, which bounds the daemon's heap;
	// the client has checked every run before it is evicted.
	retainedRuns = 256
)

func runService(b *bench) {
	seeds := make([]uint64, b.size.specs)
	twins := make([]job, len(seeds))
	for i := range seeds {
		seeds[i] = subSeed(b.seed, 0, i)
		twins[i] = job{spec: evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: seeds[i], Horizon: serviceHorizon}}
	}
	// The serial twins run each distinct submission once through the
	// Runner under the invariant checkers. The daemon's runs must stream
	// the same events, so the twins' checks and counters stand for them.
	ref := b.runRound(twins, false)
	if b.traced {
		b.layers(twins, ref, func(budget time.Duration) int { return b.serve(seeds, budget) })
		return
	}
	b.serve(seeds, b.budget)
}

// serve starts a daemon, warms it up, then submits runs one at a time for
// budget, and when traced the open loop and the burst after them. It checks
// each run: admitted with HTTP 202 under a new run ID, streamed identical
// to the serial reference of its seed, finished without error. At the end
// the daemon's accounting must show no run lost. It returns how many runs
// the measured phases submitted.
func (b *bench) serve(seeds []uint64, budget time.Duration) int {
	d, err := startDaemon()
	if err != nil {
		b.fail("start evmd: %v", err)
		return 1
	}
	defer d.stop()
	refs := make(map[uint64][]evmd.EventRecord, len(seeds))
	for _, seed := range seeds {
		recs, err := evmd.SerialEvents(evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: seed, Horizon: serviceHorizon})
		if err != nil {
			b.fail("serial reference of seed %d: %v", seed, err)
			return 1
		}
		refs[seed] = recs
	}
	mk := func(i int) submission {
		return submission{tenant: fmt.Sprintf("tenant-%d", i%serviceTenants), seed: seeds[i/serviceTenants%len(seeds)]}
	}
	seen := make(map[string]bool)
	for i := 0; i < warmupRuns; i++ {
		s := mk(i)
		d.cycle(&s, refs)
		b.checkSubmission(s, seen)
	}

	// The warm-up has filled the daemon's run table, as it stays while
	// serving, and the client holds no submissions yet.
	b.values["peak_heap_mb"] = liveHeapMB()
	// Submission i carries the same request as submission i+cycle, so each
	// position of the cycle is one distinct input; every input is submitted
	// equally often. After each cycle a second daemon is started and
	// stopped, for the set-up time; its allocations are not counted.
	cycle := serviceTenants * len(seeds)
	var (
		subs    []submission
		setups  []float64
		allocMB float64
	)
	repeat(budget, func() {
		start := markMem()
		for range cycle {
			s := mk(warmupRuns + len(subs))
			d.cycle(&s, refs)
			subs = append(subs, s)
		}
		allocMB += markMem().allocMB(start)
		setupStart := time.Now()
		d2, err := startDaemon()
		if err != nil {
			b.fail("start evmd: %v", err)
			return
		}
		setups = append(setups, time.Since(setupStart).Seconds())
		d2.stop()
	})
	b.values["setup_s"] = slices.Min(append(setups, math.Inf(1)))
	best := make([]float64, cycle)
	for i := range best {
		best[i] = math.Inf(1)
	}
	var stream []float64
	for i, s := range subs {
		b.checkSubmission(s, seen)
		p := (warmupRuns + i) % cycle
		best[p] = min(best[p], ms(s.done))
		stream = append(stream, ms(s.stream))
		b.spanSubmission(s)
	}
	b.runTimes(best, time.Duration(cycle)*serviceHorizon)
	b.values["alloc_mb"] = allocMB / float64(max(len(subs), 1))
	b.values["evmd.stream_ms_p50"] = quantile(stream, 0.5)
	runs := len(subs)
	if b.traced {
		i := warmupRuns + runs
		next := func() submission { i++; return mk(i - 1) }
		runs += b.openLoop(d, next, refs, seen) + b.burst(d, next, refs, seen)
	}

	var list struct {
		Runs []evmd.RunStatus `json:"runs"`
	}
	if err := d.get("/v1/runs", &list); err != nil {
		b.fail("run table: %v", err)
	}
	for _, st := range list.Runs {
		if !seen[st.ID] {
			b.fail("run %s was never acknowledged", st.ID)
		}
	}
	if st := d.srv.Stats(); st.Failed != 0 || st.Completed != st.Accepted || int64(len(list.Runs))+st.Evicted != st.Accepted {
		b.fail("run accounting: %d accepted, %d completed, %d failed, %d listed, %d evicted",
			st.Accepted, st.Completed, st.Failed, len(list.Runs), st.Evicted)
	}
	b.values["evmd.peak_queue"] = float64(d.srv.Stats().PeakQueueDepth)
	return max(runs, 1)
}

// openLoop submits runs at openRate for openSeconds, each from when it is
// due and without waiting for earlier runs, as independent users would.
// It reports admission, queueing and completion from the due time, and
// how late the generator ran. It returns how many runs it submitted.
func (b *bench) openLoop(d *daemon, next func() submission, refs map[uint64][]evmd.EventRecord, seen map[string]bool) int {
	subs := d.load(b.size.openRuns, time.Second/openRate, next, refs)
	var admit, wait, wall, done, late []float64
	for _, s := range subs {
		b.checkSubmission(s, seen)
		b.spanSubmission(s)
		admit = append(admit, ms(s.rtt))
		late = append(late, ms(s.sent.Sub(s.due)))
		if st := s.status; st.FinishedAt != nil {
			wait = append(wait, st.QueueWaitMS)
			wall = append(wall, st.WallMS)
			done = append(done, ms(st.FinishedAt.Sub(s.due)))
		}
	}
	b.values["evmd.admit_ms_p50"] = quantile(admit, 0.5)
	b.values["evmd.admit_ms_p99"] = quantile(admit, 0.99)
	b.values["evmd.queue_wait_ms_p50"] = quantile(wait, 0.5)
	b.values["evmd.queue_wait_ms_p99"] = quantile(wait, 0.99)
	b.values["evmd.run_wall_ms_p50"] = quantile(wall, 0.5)
	b.values["evmd.done_ms_p50"] = quantile(done, 0.5)
	b.values["evmd.done_ms_p99"] = quantile(done, 0.99)
	b.values["gen.late_ms_p99"] = quantile(late, 0.99)
	return len(subs)
}

// burst submits burstRuns runs back to back, which fills the admission
// queue, and reports completed runs per second from the first submission
// to the last finish. It returns how many runs it submitted.
func (b *bench) burst(d *daemon, next func() submission, refs map[uint64][]evmd.EventRecord, seen map[string]bool) int {
	subs := d.load(b.size.burstRuns, 0, next, refs)
	var last time.Time
	for _, s := range subs {
		b.checkSubmission(s, seen)
		b.spanSubmission(s)
		if f := s.status.FinishedAt; f != nil && f.After(last) {
			last = *f
		}
	}
	if len(subs) > 0 && !last.IsZero() {
		b.values["evmd.burst_runs_per_s"] = float64(len(subs)) / last.Sub(subs[0].sent).Seconds()
	}
	return len(subs)
}

// load submits n runs from next, one every interval from now, on one
// connection, while a second connection follows each accepted run's
// events in submission order. It returns once every run has been followed.
func (d *daemon) load(n int, interval time.Duration, next func() submission, refs map[uint64][]evmd.EventRecord) []submission {
	subs := make([]submission, n)
	// Sized to the number of sends, so the generator never waits.
	follow := make(chan *submission, n)
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		for s := range follow {
			d.follow(s, refs)
		}
	}()
	start := time.Now()
	for i := range subs {
		s := &subs[i]
		*s = next()
		s.due = start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(s.due))
		d.submit(s)
		if s.err == nil {
			follow <- s
		}
	}
	close(follow)
	<-followed
	return subs
}

// spanSubmission records the benchmark-side spans of one submission.
func (b *bench) spanSubmission(s submission) {
	b.spans.add("POST /v1/runs", "evmd", 1, s.sent, s.sent.Add(s.rtt), s.id)
	b.spans.add("GET events", "evmd", 1, s.followed, s.followed.Add(s.stream), s.id)
	if st := s.status; st.StartedAt != nil && st.FinishedAt != nil {
		b.spans.add("queue wait", "evmd", 2, st.SubmittedAt, *st.StartedAt, s.id)
		b.spans.add("run", "runner", 3, *st.StartedAt, *st.FinishedAt, s.id)
	}
}

// checkSubmission fails a submission that was not admitted, was
// acknowledged under a run ID already seen, did not finish, or streamed
// other events than its serial reference. seen collects every
// acknowledged run ID.
func (b *bench) checkSubmission(s submission, seen map[string]bool) {
	b.attempted++
	switch {
	case s.id != "" && seen[s.id]:
		b.fail("run %s acknowledged twice", s.id)
	case s.code == http.StatusTooManyRequests:
		b.values["evmd.rejected_429"]++
		b.fail("submit: rejected with HTTP 429")
	case s.code != http.StatusAccepted || s.id == "":
		b.fail("submit: HTTP %d, run %q, error %v", s.code, s.id, s.err)
	case s.err != nil:
		b.fail("run %s: %v", s.id, s.err)
	case s.status.State != evmd.RunDone:
		b.fail("run %s ended %s: %s", s.id, s.status.State, s.status.Error)
	}
	if s.id != "" {
		seen[s.id] = true
	}
}

// daemon is an in-process evmd serving on a loopback port.
type daemon struct {
	srv    *evmd.Server
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// startDaemon starts evmd and returns once it answers its readiness probe.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := evmd.NewServer(evmd.Config{Workers: serviceWorkers, MaxRuns: retainedRuns})
	d := &daemon{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		// Two connections: an open loop submits on one while it follows
		// runs on the other.
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		}},
	}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed once stopped
	}()
	if err := d.get("/v1/readyz", nil); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener and every connection, then drains evmd; it
// returns once the server goroutine and the workers have exited.
func (d *daemon) stop() {
	_ = d.http.Close()
	<-d.served
	d.srv.Drain(time.Minute)
	d.client.CloseIdleConnections()
}

// get fetches path and decodes its JSON body into v (nil discards it).
func (d *daemon) get(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// events streams a run's events as NDJSON until the run ends.
func (d *daemon) events(id string) ([]evmd.EventRecord, error) {
	resp, err := d.client.Get(d.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events of %s: HTTP %d", id, resp.StatusCode)
	}
	var recs []evmd.EventRecord
	for dec := json.NewDecoder(resp.Body); dec.More(); {
		var rec evmd.EventRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("events of %s: %w", id, err)
		}
		recs = append(recs, rec)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return recs, err
}

// submission is one run as the client saw it.
type submission struct {
	tenant   string
	seed     uint64
	due      time.Time // when an open loop was to send it
	sent     time.Time
	rtt      time.Duration // POST /v1/runs round trip
	followed time.Time     // when the event stream was requested
	stream   time.Duration // event stream, from its request to its end
	done     time.Duration // from the POST until the stream ended (closed loop)
	code     int           // HTTP status of the POST
	id       string
	status   evmd.RunStatus
	err      error
}

// cycle submits s and follows its run to the end.
func (d *daemon) cycle(s *submission, refs map[uint64][]evmd.EventRecord) {
	d.submit(s)
	if s.err == nil {
		d.follow(s, refs)
		s.done = s.followed.Add(s.stream).Sub(s.sent)
	}
}

// submit POSTs s and records its acknowledgement.
func (d *daemon) submit(s *submission) {
	body, err := json.Marshal(evmd.SubmitRequest{
		Tenant: s.tenant, Scenario: evm.ScenarioEightController,
		Seed: s.seed, HorizonMS: serviceHorizon.Milliseconds(),
	})
	if err != nil {
		s.err = err
		return
	}
	s.sent = time.Now()
	resp, err := d.client.Post(d.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	s.code = resp.StatusCode
	var ack evmd.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&ack)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.rtt = time.Since(s.sent)
	if err != nil || len(ack.Runs) != 1 {
		s.err = fmt.Errorf("submit: %v, %d runs acknowledged", err, len(ack.Runs))
		return
	}
	s.id = ack.Runs[0].ID
}

// follow streams s's run's events until the run ends, compares them with
// the serial reference of its seed, and reads the run's status.
func (d *daemon) follow(s *submission, refs map[uint64][]evmd.EventRecord) {
	s.followed = time.Now()
	recs, err := d.events(s.id)
	s.stream = time.Since(s.followed)
	if err == nil && !slices.Equal(recs, refs[s.seed]) {
		err = fmt.Errorf("streamed %d events that differ from the %d-event serial reference", len(recs), len(refs[s.seed]))
	}
	if err == nil {
		err = d.get("/v1/runs/"+s.id, &s.status)
	}
	s.err = err
}
