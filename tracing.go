package evm

import (
	"strconv"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
)

// Causal tracing facade: EnableTracing attaches a seeded span.Tracer to a
// cell or campus engine, turning on the span recording threaded through
// the simulation layers (engine dispatch, rtlink frames/slots, radio
// transmissions and drops, backbone transfers/hops/reroutes, federation
// escalations and rebalance handshakes, OTA rollout stages), and derives
// two more span families from the event bus:
//
//   - "failover": the outage interval from a node's crash fault to the
//     first fail-over promoting a new master away from it — the paper's
//     headline recovery-latency metric, now measurable per run as a
//     distribution instead of a single first_failover_s scalar.
//   - "actuation-interval": the gap between consecutive accepted
//     actuations of each task; its upper percentiles expose control-loop
//     stalls that a mean actuation count hides.
//
// Everything runs in virtual time on the run's own engine, so traces are
// byte-identical across same-seed runs and identical whether the Runner
// executes serially or across workers.

// EnableTracing attaches a fresh tracer seeded with seed to the cell's
// engine and installs the event-derived span families. Call it once,
// before the cell runs; the returned tracer exports via WriteJSON.
func (c *Cell) EnableTracing(seed uint64) *span.Tracer { return enableTracing(c.eng, c.Events(), seed) }

// EnableTracing is Cell.EnableTracing for the campus's shared engine,
// with the span families installed over the merged campus stream.
func (c *Campus) EnableTracing(seed uint64) *span.Tracer {
	return enableTracing(c.eng, c.Events(), seed)
}

func enableTracing(eng *sim.Engine, bus *Bus, seed uint64) *span.Tracer {
	t := span.New(seed)
	eng.SetTracer(t)
	installEventSpans(bus, t)
	return t
}

// installEventSpans subscribes the event-derived span families to a cell
// or campus bus. Failover spans key on (cell, crashed node): the span
// opens at the crash fault and closes at the first fail-over away from
// that node; re-crashes of a node already being measured fold into the
// open span.
func installEventSpans(bus *Bus, t *span.Tracer) {
	crashOpen := make(map[string]span.ID)
	lastAct := make(map[string]time.Duration)
	bus.Subscribe(func(ev Event) {
		cell, inner := splitEvent(ev)
		switch e := inner.(type) {
		case FaultEvent:
			if e.Kind != FaultCrash {
				return
			}
			key := cell + "/" + strconv.Itoa(int(e.Node))
			if _, open := crashOpen[key]; open {
				return
			}
			crashOpen[key] = t.Open("failover", "evm", "failover", e.At,
				span.Arg{Key: "cell", Val: cell},
				span.Arg{Key: "node", Val: strconv.Itoa(int(e.Node))})
		case FailoverEvent:
			key := cell + "/" + strconv.Itoa(int(e.From))
			if id, open := crashOpen[key]; open {
				t.Close(id, e.At,
					span.Arg{Key: "task", Val: e.Task},
					span.Arg{Key: "to", Val: strconv.Itoa(int(e.To))})
				delete(crashOpen, key)
			}
		case *ActuationEvent:
			if last, ok := lastAct[e.Task]; ok {
				t.Complete("actuation-interval", "evm", "actuation", last, e.At,
					span.Arg{Key: "task", Val: e.Task})
			}
			lastAct[e.Task] = e.At
		}
	})
}

// TraceMetrics summarizes a tracer's closed spans into latency metrics:
// for every span name with at least one closed duration it reports
// span_<name>_count plus p50/p95/p99 in milliseconds. Spans carry virtual
// timestamps, so the summaries are deterministic and merge safely into
// RunResult.Metrics alongside the event counts.
func TraceMetrics(t *span.Tracer) map[string]float64 {
	if t == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, name := range t.Names() {
		ds := t.DurationsMS(name)
		if len(ds) == 0 {
			continue
		}
		st := Summarize(ds)
		out["span_"+name+"_count"] = float64(st.N)
		out["span_"+name+"_p50_ms"] = st.P50
		out["span_"+name+"_p95_ms"] = st.P95
		out["span_"+name+"_p99_ms"] = st.P99
	}
	return out
}

// mergeSorted copies src into dst in sorted key order (plain overwrites,
// no accumulation; the sort keeps the write order reproducible for
// debugging, not for correctness).
func mergeSorted(dst, src map[string]float64) {
	for _, k := range sim.SortedKeys(src) {
		dst[k] = src[k]
	}
}
