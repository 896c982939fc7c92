// Command evmd runs the campus-as-a-service daemon: a multi-tenant HTTP
// front end over the evm library. Tenants POST scenario submissions to
// /v1/runs, follow them as SSE/NDJSON event streams and flat telemetry
// samples, and read per-run / per-tenant status snapshots. SIGTERM (or
// SIGINT) drains gracefully: new submissions get 503, queued runs are
// cancelled, in-flight runs finish within the drain deadline and flush
// their event CSVs.
//
//	evmd -addr :8080 -workers 8 -queue 4096 -event-dir /tmp/evmd-events
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"evm/evmd"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "run concurrency (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 4096, "admission queue bound across tenants (backpressure past it)")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant queue share (0 = no per-tenant bound)")
	eventDir := flag.String("event-dir", "", "flush each completed run's telemetry CSV to <dir>/<run-id>.csv (same bytes as /v1/runs/{id}/telemetry)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "bound on waiting for in-flight runs at shutdown")
	runTTL := flag.Duration("run-ttl", 0, "evict finished runs this long after completion (410 Gone; 0 = keep forever)")
	maxRuns := flag.Int("max-runs", 0, "cap the run table, evicting the oldest finished runs (0 = unbounded)")
	maxHorizon := flag.Duration("max-horizon", evmd.DefaultMaxHorizon, "refuse submissions whose horizon_ms exceeds this much virtual time (400)")
	traceRuns := flag.Bool("trace", true, "record per-run causal traces, served at /v1/runs/{id}/trace")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Parse()

	srv := evmd.NewServer(evmd.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		TenantQueueDepth: *tenantQueue,
		EventDir:         *eventDir,
		DrainTimeout:     *drain,
		RunTTL:           *runTTL,
		MaxRuns:          *maxRuns,
		MaxHorizon:       *maxHorizon,
		Trace:            *traceRuns,
		EnablePprof:      *pprofOn,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		log.Printf("evmd: %v — draining (deadline %v)", sig, *drain)
		rep := srv.Drain(*drain)
		if rep.TimedOut {
			log.Printf("evmd: drain deadline hit with runs still in flight")
		}
		log.Printf("evmd: drained (%d queued runs cancelled)", rep.Cancelled)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		close(done)
	}()

	log.Printf("evmd: serving on %s (workers=%d queue=%d)", *addr, srv.Stats().Workers, *queue)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("evmd: %v", err)
	}
	<-done
	st := srv.Stats()
	log.Printf("evmd: exit — accepted=%d completed=%d failed=%d cancelled=%d rejected=%d",
		st.Accepted, st.Completed, st.Failed, st.Cancelled, st.RejectedBackpressur+st.RejectedDraining)
}
