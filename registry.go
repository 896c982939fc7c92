package evm

import (
	"fmt"
	"time"

	"evm/internal/sim"
	"evm/internal/span"
)

// RunSpec names one point of an experiment grid: a scenario (built-in,
// or one the Runner's Build resolves), a seed, a fault plan and a
// horizon. Specs are plain data — build them
// by hand or with SpecGrid and hand them to a Runner.
type RunSpec struct {
	Scenario string
	Seed     uint64
	// Horizon bounds the run in virtual time (zero = the scenario's
	// default).
	Horizon time.Duration
	// Faults is applied to the scenario's cell before the run starts.
	Faults FaultPlan
	// FaultCell names the cell the plan targets in campus scenarios
	// ("" = the first cell). Ignored by single-cell scenarios.
	FaultCell string
	// Policy names the placement policy of campus scenarios, one of
	// PlacementPolicies ("" = least-loaded); a campus scenario refuses
	// an unknown name. Ignored by single-cell scenarios.
	Policy string
}

// Label renders the spec as a stable one-line identifier.
func (s RunSpec) Label() string {
	label := fmt.Sprintf("%s/seed=%d/plan=%s", s.Scenario, s.Seed, s.Faults.Label())
	if s.FaultCell != "" {
		label += "@" + s.FaultCell
	}
	if s.Policy != "" {
		label += "/policy=" + s.Policy
	}
	return label
}

// Experiment is one runnable scenario instance, produced by a
// ScenarioBuilder. Builders set exactly one of Cell and Campus; the
// Runner applies the spec's fault plan, advances it to the horizon,
// collects Metrics and calls Cleanup.
type Experiment struct {
	// Cell is the instrumented cell the run advances. Leave nil for
	// campus scenarios, which set Campus instead.
	Cell *Cell
	// Campus is the instrumented campus for federation scenarios; the
	// Runner drives its shared engine and observes the merged campus
	// event stream.
	Campus *Campus
	// DefaultHorizon is used when the spec leaves Horizon zero.
	DefaultHorizon time.Duration
	// Metrics extracts the per-run measurements after the horizon.
	Metrics func() map[string]float64
	// QoS, when non-nil, evaluates the component's control quality after
	// the horizon (EvaluateQoS over the deployed VC). The Runner folds
	// the report into every run's metrics as qos_coverage /
	// qos_redundancy_mean — the shared signal for OTA health-window
	// gates and evmd telemetry dashboards.
	QoS func() QoSReport
	// Cleanup releases the experiment (stop feeds, runtimes); may be nil.
	Cleanup func()
}

// runTarget is what a run advances: a campus, or a single cell adapted
// by cellTarget. Runner, evmd and fuzz drive every experiment through
// it, so none of them branches on the experiment's shape.
type runTarget interface {
	Events() *Bus
	Now() time.Duration
	Run(d time.Duration)
	EnableTracing(seed uint64) *span.Tracer
	// ApplyFaultPlan applies plan to the named cell ("" = the first).
	ApplyFaultPlan(cell string, plan FaultPlan) error
	Cells() []*Cell
}

// cellTarget runs a single cell as a one-cell target; the fault plan's
// cell name is ignored.
type cellTarget struct{ *Cell }

func (t cellTarget) ApplyFaultPlan(_ string, plan FaultPlan) error {
	return t.Cell.ApplyFaultPlan(plan)
}

func (t cellTarget) Cells() []*Cell { return []*Cell{t.Cell} }

// target resolves what the experiment runs: Campus when set, else Cell.
func (e *Experiment) target() runTarget {
	if e.Campus != nil {
		return e.Campus
	}
	return cellTarget{e.Cell}
}

// Events returns the experiment's event bus: the merged campus stream,
// or the single cell's.
func (e *Experiment) Events() *Bus { return e.target().Events() }

// Cells lists the experiment's cells: the campus's, or the single cell.
func (e *Experiment) Cells() []*Cell { return e.target().Cells() }

// Now returns the experiment's virtual time.
func (e *Experiment) Now() time.Duration { return e.target().Now() }

// ScenarioBuilder constructs a fresh Experiment for one spec. Builders
// must derive every random stream from spec.Seed so equal specs reproduce
// equal runs, and must not share mutable state between invocations — the
// Runner calls builders from several goroutines.
type ScenarioBuilder func(spec RunSpec) (*Experiment, error)

// lookup returns the table entry under name; kind names the table in the
// error for an unknown name.
func lookup[T any](kind string, table map[string]T, name string) (T, error) {
	v, ok := table[name]
	if !ok {
		return v, fmt.Errorf("evm: unknown %s %q (built-in: %v)", kind, name, sim.SortedKeys(table))
	}
	return v, nil
}

// scenarios is the fixed table of built-in scenarios, the names
// RunSpec.Scenario resolves through BuildScenario. A custom or generated
// scenario is a ScenarioBuilder handed to Runner.Build instead.
var scenarios = map[string]ScenarioBuilder{
	ScenarioGasPlant:          buildGasPlantScenario,
	ScenarioEightController:   buildEightControllerScenario,
	ScenarioCapacity:          buildCapacityScenario,
	ScenarioRefinery:          buildRefineryScenario,
	ScenarioCampusFailover:    buildCampusFailoverScenario,
	ScenarioRefineryRing:      buildRefineryRingScenario,
	ScenarioRefineryRingSever: buildRefineryRingSeverScenario,
	ScenarioOTACampus:         buildOTACampusScenario,
	ScenarioModeChangeLine:    buildModeChangeLineScenario,
	ScenarioPipeline:          buildPipelineScenario,
	ScenarioRandomField:       buildRandomFieldScenario,
}

// Scenarios lists the built-in scenario names, sorted.
func Scenarios() []string { return sim.SortedKeys(scenarios) }

// LookupScenario returns the built-in scenario's builder by name.
func LookupScenario(name string) (ScenarioBuilder, error) {
	return lookup("scenario", scenarios, name)
}

// BuildScenario instantiates the spec's built-in scenario.
func BuildScenario(spec RunSpec) (*Experiment, error) {
	build, err := LookupScenario(spec.Scenario)
	if err != nil {
		return nil, err
	}
	return buildChecked(build, spec)
}

// buildChecked runs build and rejects an experiment with nothing to run.
func buildChecked(build ScenarioBuilder, spec RunSpec) (*Experiment, error) {
	exp, err := build(spec)
	if err != nil {
		return nil, err
	}
	if exp == nil || (exp.Cell == nil && exp.Campus == nil) {
		return nil, fmt.Errorf("evm: scenario %q built no cell or campus", spec.Scenario)
	}
	return exp, nil
}
