package evmd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"evm"
)

// referenceLine is the events endpoint's line for ev as json.Encoder
// writes it, the reference appendEventLine must match byte for byte:
// the record through reflection, framed as "data: <record>\n" when sse.
func referenceLine(t testing.TB, ev evm.Event, sse bool) []byte {
	var b bytes.Buffer
	if sse {
		b.WriteString("data: ")
	}
	if err := json.NewEncoder(&b).Encode(record(ev)); err != nil {
		t.Fatal(err)
	}
	if sse {
		b.WriteString("\n")
	}
	return b.Bytes()
}

// keptEvents runs spec serially and returns the events evmd logs for it.
func keptEvents(t testing.TB, spec evm.RunSpec) []evm.Event {
	t.Helper()
	ref, err := serialStream(spec)
	if err != nil {
		t.Fatal(err)
	}
	evs, _ := ref.from(0, nil)
	return evs
}

// TestEventLinesMatchEncoder: for every event of every built-in scenario
// at seeds 1–3 over 20 s, the line the events endpoint appends, as NDJSON
// and as SSE, is exactly the line json.Encoder writes for its record.
func TestEventLinesMatchEncoder(t *testing.T) {
	var line []byte
	n := 0
	for _, name := range evm.Scenarios() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, ev := range keptEvents(t, evm.RunSpec{Scenario: name, Seed: seed, Horizon: 20 * time.Second}) {
				for _, sse := range []bool{false, true} {
					line = appendEventLine(line[:0], ev, sse)
					if want := referenceLine(t, ev, sse); !bytes.Equal(line, want) {
						t.Fatalf("%s seed %d, sse %t:\n got %q\nwant %q", name, seed, sse, line, want)
					}
				}
				n++
			}
		}
	}
	t.Logf("%d events, each byte-identical as NDJSON and as SSE", n)
}

// TestEventsEndpointServesSSE: a finished run's events served as SSE are
// its SerialEvents records, each framed as one "data:" message.
func TestEventsEndpointServesSSE(t *testing.T) {
	spec := evm.RunSpec{Scenario: evm.ScenarioCampusFailover, Seed: 7, Horizon: 20 * time.Second}
	var want []byte
	for _, ev := range keptEvents(t, spec) {
		want = append(want, referenceLine(t, ev, true)...)
	}
	s := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer s.Drain(0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	runs, err := s.Submit("acme", spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, runs[0]); st != RunDone {
		t.Fatalf("run ended %s", st)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + runs[0].ID + "/events?format=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SSE body differs from the reference framing:\n%s", firstDiff(got, want))
	}
}

// TestEventLinesDoNotAllocate: rendering a warm eight-controller run's
// events (the service benchmark's input: seed 7, 2 s) into a reused
// buffer allocates nothing, as NDJSON or as SSE. Through record and
// json.Encoder the same 28 events cost 224 allocations.
func TestEventLinesDoNotAllocate(t *testing.T) {
	evs := keptEvents(t, evm.RunSpec{Scenario: evm.ScenarioEightController, Seed: 7, Horizon: 2 * time.Second})
	if len(evs) == 0 {
		t.Fatal("the run published no events")
	}
	for _, sse := range []bool{false, true} {
		var line []byte
		allocs := testing.AllocsPerRun(10, func() {
			for _, ev := range evs {
				line = appendEventLine(line[:0], ev, sse)
			}
		})
		t.Logf("sse %t: %.0f allocations to render %d events", sse, allocs, len(evs))
		if allocs != 0 {
			t.Errorf("sse %t: rendering %d events allocates %.0f times, want 0", sse, len(evs), allocs)
		}
	}
}

// FuzzEventLine: for any finite time and any cell, series and event text,
// the record line built from appendRecordHead and endRecord is exactly
// json.Marshal of the EventRecord plus a newline, however much of it
// needs escaping.
func FuzzEventLine(f *testing.F) {
	f.Add(1.5, "", "actuations", "1.5s actuation node=2 task=lts port=1 value=11.48")
	f.Add(20.0, "east", "backbone_routes", "20s backbone-route from=east to=west path=east>mid>west bytes=2069")
	f.Add(1e-7, "zürich", "fäults", "0s fault kind=crash ü \u2028 \u2029")
	f.Add(1e-6, "a\x00b", "\x1f\t\n", "\"quoted\" back\\slash \x7f")
	f.Add(1e20, "<cell>", "&series", "a<b>c&d")
	f.Add(1e21, "\xff\xfe", "bad\xc3", "invalid \xed\xa0\x80 utf-8")
	f.Add(-2.5e-9, "", "", "")
	f.Add(math.Copysign(0, -1), "x", "y", "z")
	f.Fuzz(func(t *testing.T, ts float64, cell, series, text string) {
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			t.Skip("encoding/json rejects non-finite numbers")
		}
		head := appendRecordHead(nil, ts, cell, series)
		got := endRecord(append(head, text...), len(head))
		want, err := json.Marshal(EventRecord{T: ts, Cell: cell, Series: series, Event: text})
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("\n got %q\nwant %q", got, want)
		}
	})
}
