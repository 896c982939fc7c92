package main

// metricDef declares one printed metric. BENCHMARK.json declares the same
// names, units and better directions, in the same order; the self-test
// checks that they agree.
type metricDef struct{ name, unit, better string }

// endToEnd is printed with --trace 0 and measured with tracing off. Every
// workload measures each one; README.md gives the meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_p90", "ms", "lower"},
	{"sim_x", "sim_s/s", "higher"},
	{"alloc_mb", "MiB/run", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer is printed with --trace 1. Counters are exact totals over one
// round of the workload's inputs; a layer the workload does not exercise
// reads zero. README.md names the end-to-end metric each should move.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"radio.sent", "count", "lower"},
	{"radio.delivered", "count", "higher"},
	{"radio.dropped", "count", "lower"},
	{"radio.delivery_ratio", "ratio", "higher"},
	{"rtlink.frames", "count", "lower"},
	{"rtlink.frags_sent", "count", "lower"},
	{"rtlink.frags_relayed", "count", "lower"},
	{"rtlink.msg_delivery_ratio", "ratio", "higher"},
	{"rtlink.queue_drops", "count", "lower"},
	{"rtlink.reserve_deferrals", "count", "lower"},
	{"core.cycles_run", "count", "lower"},
	{"core.health_sent", "count", "lower"},
	{"core.stale_inputs", "count", "lower"},
	{"core.send_errors", "count", "lower"},
	{"core.failovers", "count", "lower"},
	{"core.reports_ignored", "count", "lower"},
	{"core.failover_ms_p50", "ms", "lower"},
	{"core.failover_ms_p90", "ms", "lower"},
	{"gateway.actuations_ok", "count", "higher"},
	{"gateway.actuations_denied", "count", "lower"},
	{"backbone.sent", "count", "lower"},
	{"backbone.delivered", "count", "higher"},
	{"backbone.dropped", "count", "lower"},
	{"backbone.forwarded", "count", "lower"},
	{"backbone.delivery_ratio", "ratio", "higher"},
	{"federation.escalations", "count", "lower"},
	{"federation.handshakes", "count", "lower"},
	{"federation.rebalance_aborts", "count", "lower"},
	{"federation.intercell_migrations", "count", "lower"},
	{"ota.capsule_frames", "count", "lower"},
	{"ota.rollbacks", "count", "lower"},
	{"ota.stage_ms_p95", "ms", "lower"},
	{"ota.rollout_s", "s", "lower"},
	{"invariants.check_ms", "ms", "lower"},
	{"span.overhead_pct", "%", "lower"},
	{"runner.build_ms_p50", "ms", "lower"},
	{"evmd.admit_ms_p50", "ms", "lower"},
	{"evmd.admit_ms_p99", "ms", "lower"},
	{"evmd.queue_wait_ms_p50", "ms", "lower"},
	{"evmd.queue_wait_ms_p99", "ms", "lower"},
	{"evmd.run_wall_ms_p50", "ms", "lower"},
	{"evmd.stream_ms_p50", "ms", "lower"},
	{"evmd.done_ms_p50", "ms", "lower"},
	{"evmd.done_ms_p99", "ms", "lower"},
	{"evmd.burst_runs_per_s", "1/s", "higher"},
	{"evmd.peak_queue", "count", "lower"},
	{"evmd.rejected_429", "count", "lower"},
	{"gen.late_ms_p99", "ms", "lower"},
	{"host.allocs_k", "k/run", "lower"},
	{"host.gc_cycles", "1/run", "lower"},
	{"host.gc_cpu_pct", "%", "lower"},
	{"host_share.sim", "ratio", "lower"},
	{"host_share.radio", "ratio", "lower"},
	{"host_share.rtlink", "ratio", "lower"},
	{"host_share.wire", "ratio", "lower"},
	{"host_share.core", "ratio", "lower"},
	{"host_share.vm", "ratio", "lower"},
	{"host_share.gateway", "ratio", "lower"},
	{"host_share.evm", "ratio", "lower"},
	{"host_share.evmd", "ratio", "lower"},
	{"host_share.runtime_gc", "ratio", "lower"},
	{"host_share.other", "ratio", "lower"},
}
