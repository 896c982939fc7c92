package evm

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// counterKeys lists the Runner counter keys in set, sorted.
func counterKeys(set counterSet) []string {
	var keys []string
	for i, key := range runnerCounters {
		if set&(1<<i) != 0 {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}

// TestEventKindDeclarations pins every event kind's declared telemetry
// series and Runner counters, across the field variants they depend on.
// The package source is parsed so that a new kind, fault kind, rollout
// phase or backbone kind without a row here fails the test.
func TestEventKindDeclarations(t *testing.T) {
	injected := []string{MetricFaultsInjected}
	cases := []struct {
		ev       Event
		series   string
		counters []string
	}{
		{FailoverEvent{}, "failovers", []string{MetricFailovers}},
		{&ActuationEvent{}, "actuations", []string{MetricActuations}},
		{MigrationEvent{}, "migrations", []string{MetricMigrations}},
		{JoinEvent{}, "joins", []string{MetricJoins}},
		{ModeChangeEvent{}, "mode_changes", []string{MetricModeChanges}},
		{FaultEvent{Kind: FaultCrash}, "faults", injected},
		{FaultEvent{Kind: FaultRecover}, "faults", nil},
		{FaultEvent{Kind: FaultCompute}, "faults", injected},
		{FaultEvent{Kind: FaultComputeClear}, "faults", nil},
		{FaultEvent{Kind: FaultPERBurst}, "faults", injected},
		{FaultEvent{Kind: FaultPERRestore}, "faults", nil},
		{FaultEvent{Kind: FaultBatteryDrain}, "faults", injected},
		{FaultEvent{Kind: FaultClockDrift}, "faults", injected},
		{CellOverloadEvent{}, "cell_overloads", []string{MetricCellOverloads}},
		{CellRecoveredEvent{}, "cell_recoveries", []string{MetricCellRecoveries}},
		{InterCellMigrationEvent{}, "intercell_migrations", []string{MetricInterCellMigrations}},
		{InterCellMigrationEvent{Rebalance: true}, "intercell_migrations",
			[]string{MetricInterCellMigrations, MetricRebalances}},
		{RebalanceAbortEvent{}, "rebalance_aborts", []string{MetricRebalanceAborts}},
		{BackboneEvent{Kind: BackboneSend}, "backbone_sent", nil},
		{BackboneEvent{Kind: BackboneDeliver}, "backbone_delivered", []string{MetricBackboneDelivered}},
		{BackboneEvent{Kind: BackboneDrop}, "backbone_dropped", []string{MetricBackboneDropped}},
		{BackboneEvent{Kind: BackboneFail}, "backbone_failed", nil},
		{BackboneRouteEvent{}, "backbone_routes", nil},
		{BackboneRouteEvent{Reroute: true}, "backbone_routes", []string{MetricBackboneReroutes}},
		{BackboneLinkEvent{}, "backbone_links", []string{MetricBackboneLinkFaults}},
		{BackboneLinkEvent{Up: true}, "backbone_links", nil},
		{RolloutEvent{Phase: RolloutPhaseStart}, "rollout_phase.start", []string{MetricRollouts}},
		{RolloutEvent{Phase: RolloutPhaseStaged}, "rollout_phase.staged", nil},
		{RolloutEvent{Phase: RolloutPhaseActivated}, "rollout_phase.activated", nil},
		{RolloutEvent{Phase: RolloutPhaseComplete}, "rollout_phase.complete", nil},
		{RolloutEvent{Phase: RolloutPhaseAborted}, "rollout_phase.aborted", nil},
		{RolloutEvent{Phase: RolloutPhaseRolledBack}, "rollout_phase.rolled-back", nil},
		{CapsuleDeliveryEvent{}, "capsule_deliveries", []string{MetricCapsuleFrames}},
		{RollbackEvent{}, "rollbacks", []string{MetricRollbacks}},
		{CellEvent{Cell: "east", Inner: FailoverEvent{}}, "failovers", []string{MetricFailovers}},
		{CellEvent{Cell: "east", Inner: FaultEvent{Kind: FaultRecover}}, "faults", nil},
	}
	kinds := make(map[string]bool)
	values := make(map[string]bool)
	bumped := make(map[string]bool)
	for _, c := range cases {
		rv := reflect.Indirect(reflect.ValueOf(c.ev))
		kinds[rv.Type().Name()] = true
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); f.Kind() == reflect.String {
				values[f.Type().Name()+"="+f.String()] = true
			}
		}
		if got := SeriesName(c.ev); got != c.series || got == "other" {
			t.Errorf("%T %+v: series %q, want %q", c.ev, c.ev, got, c.series)
		}
		got := counterKeys(c.ev.counters())
		want := append([]string(nil), c.counters...)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T %+v: counters %v, want %v", c.ev, c.ev, got, want)
		}
		for _, k := range got {
			bumped[k] = true
		}
	}

	kindTypes, consts := declaredKinds(t)
	for _, k := range kindTypes {
		if !kinds[k] {
			t.Errorf("event kind %s has no row in the declaration table", k)
		}
	}
	for _, v := range consts {
		if !values[v] {
			t.Errorf("%s has no row in the declaration table", v)
		}
	}

	// The Runner reports exactly these counters (the golden hashes them),
	// each bumped by some kind.
	want := []string{
		MetricActuations, MetricBackboneDelivered, MetricBackboneDropped,
		MetricBackboneLinkFaults, MetricBackboneReroutes, MetricCapsuleFrames,
		MetricCellOverloads, MetricCellRecoveries, MetricFailovers,
		MetricFaultsInjected, MetricInterCellMigrations, MetricJoins,
		MetricMigrations, MetricModeChanges, MetricRebalanceAborts,
		MetricRebalances, MetricRollbacks, MetricRollouts,
	}
	sort.Strings(want)
	keys := append([]string(nil), runnerCounters...)
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("Runner counters = %v, want %v", keys, want)
	}
	for _, k := range want {
		if !bumped[k] {
			t.Errorf("no event kind bumps %s", k)
		}
	}
}

// declaredKinds parses the package's non-test sources and returns the
// receiver type of every series method (the event kinds) and every
// FaultKind, RolloutPhase and BackboneEventKind constant as "Type=value".
func declaredKinds(t *testing.T) (kinds, consts []string) {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	enumTypes := map[string]bool{"FaultKind": true, "RolloutPhase": true, "BackboneEventKind": true}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && d.Name.Name == "series" {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					kinds = append(kinds, recv.(*ast.Ident).Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || d.Tok != token.CONST || vs.Type == nil {
						continue
					}
					typ, ok := vs.Type.(*ast.Ident)
					if !ok || !enumTypes[typ.Name] {
						continue
					}
					for _, v := range vs.Values {
						consts = append(consts, typ.Name+"="+strings.Trim(v.(*ast.BasicLit).Value, `"`))
					}
				}
			}
		}
	}
	if len(kinds) < 16 || len(consts) < 18 {
		t.Fatalf("parsed %d kinds and %d enum constants; the source scan is broken", len(kinds), len(consts))
	}
	return kinds, consts
}

// TestTelemetrySamples checks the flat sample stream: cumulative counts
// per (cell, series) pair, run identity on every row, final metrics in
// sorted order, and the CSV layout.
func TestTelemetrySamples(t *testing.T) {
	tel := NewTelemetry("r-1", "acme", RunSpec{Scenario: "sc", Seed: 3})
	var got []Sample
	for _, ev := range []Event{
		CellEvent{Cell: "a", Inner: BackboneEvent{At: time.Second, Kind: BackboneDrop}},
		CellEvent{Cell: "b", Inner: BackboneEvent{At: 2 * time.Second, Kind: BackboneDrop}},
		CellEvent{Cell: "a", Inner: BackboneEvent{At: 3 * time.Second, Kind: BackboneDrop}},
		FailoverEvent{At: 4 * time.Second},
	} {
		got = append(got, tel.Sample(ev))
	}
	got = tel.AppendMetricSamples(got, 5*time.Second, map[string]float64{"z": 1, "a": 2})
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, got); err != nil {
		t.Fatal(err)
	}
	want := `t,run,tenant,scenario,seed,cell,series,value
1,r-1,acme,sc,3,a,backbone_dropped,1
2,r-1,acme,sc,3,b,backbone_dropped,1
3,r-1,acme,sc,3,a,backbone_dropped,2
4,r-1,acme,sc,3,,failovers,1
5,r-1,acme,sc,3,,metric.a,2
5,r-1,acme,sc,3,,metric.z,1
`
	if buf.String() != want {
		t.Fatalf("samples CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
