package evm

import (
	"evm/internal/bqp"
	"evm/internal/sim"
)

// Built-in placement policy names for CampusConfig.Placement and
// RunSpec.Policy.
const (
	PolicyLeastLoaded = "least-loaded"
	PolicyCampusBQP   = "campus-bqp"
	PolicyAffinity    = "affinity"
)

// cellCondition is one cell's entry in a placement request: the
// coordinator's deterministic snapshot of the cell's load, capacity and
// backbone distance at decision time.
type cellCondition struct {
	// Index is the cell's position in campus declaration order.
	Index int
	// Placed counts the tasks the coordinator currently places in the
	// cell, including transfers already in flight toward it.
	Placed int
	// EligibleHosts is the number of live runtimes able to take the task
	// (alive and not already holding a replica of it).
	EligibleHosts int
	// Utilization is the total CPU utilization demand of the tasks
	// placed in the cell.
	Utilization float64
	// Capacity is the total CPU capacity of the cell's live runtimes.
	Capacity float64
	// Hops is the backbone hop count from the cell the task currently
	// occupies; -1 means the backbone has no route.
	Hops int
	// Origin marks the task's declared home cell.
	Origin bool
}

// placementRequest is what a placement policy sees of one stranded task.
// Cells lists every cell except the one the task is stranded in, in
// campus declaration order.
type placementRequest struct {
	// Task is the stranded task's spec.
	Task TaskSpec
	// Cells are the candidate destinations.
	Cells []cellCondition
	// Displaced lists every other task currently placed outside its
	// origin cell (or in flight), in "<origin-cell>/<task-id>" order —
	// context for campus-bqp, which reoptimizes the whole assignment.
	Displaced []displacedTask
}

// displacedTask is one task running outside its origin cell.
type displacedTask struct {
	// Cell is the index of the cell currently hosting the task (the
	// transfer destination if a move is in flight).
	Cell int
	// Util is the task's CPU utilization demand.
	Util float64
}

// viable reports whether a cell can take the task at all. Every built-in
// picks only viable cells, so a pick always has a route and a host.
func (c cellCondition) viable() bool { return c.EligibleHosts > 0 && c.Hops >= 0 }

// pickLeastLoaded picks the live cell carrying the fewest tasks
// (counting transfers in flight), lowest index on ties — the campus
// default.
func pickLeastLoaded(req placementRequest) (int, bool) {
	best, bestLoad, found := 0, 0, false
	for _, cc := range req.Cells {
		if !cc.viable() {
			continue
		}
		if !found || cc.Placed < bestLoad {
			best, bestLoad, found = cc.Index, cc.Placed, true
		}
	}
	return best, found
}

// pickAffinity is sticky-home with spillover: a task goes back to its
// origin cell whenever the origin can host it; otherwise it spills to
// the nearest cell by backbone hops, fewest placed tasks then lowest
// index on ties.
func pickAffinity(req placementRequest) (int, bool) {
	for _, cc := range req.Cells {
		if cc.Origin && cc.viable() {
			return cc.Index, true
		}
	}
	best := cellCondition{}
	found := false
	for _, cc := range req.Cells {
		if !cc.viable() {
			continue
		}
		better := !found ||
			cc.Hops < best.Hops ||
			(cc.Hops == best.Hops && cc.Placed < best.Placed)
		if better {
			best, found = cc, true
		}
	}
	return best.Index, found
}

// hopCostWeight prices one backbone hop in units of placed tasks: a
// two-hop destination must be at least eight tasks lighter than an
// adjacent one before the solver prefers it.
const hopCostWeight = 8

// pickCampusBQP reoptimizes task placement across cells with the
// internal BQP solver (the paper's §3.1.1 op 7 lifted to campus scope):
// cells are the assignment targets, every displaced task is a variable,
// placement cost combines backbone distance with cell load, cell CPU
// capacity bounds total placed utilization, and a pairwise penalty
// spreads displaced tasks. The deterministic greedy solver keeps equal
// seeds reproducing equal campuses; infeasible instances fall back to
// least-loaded.
func pickCampusBQP(req placementRequest) (int, bool) {
	var cells []cellCondition
	for _, cc := range req.Cells {
		if cc.viable() {
			cells = append(cells, cc)
		}
	}
	if len(cells) == 0 {
		return 0, false
	}
	nTasks := len(req.Displaced) + 1
	self := nTasks - 1
	p := &bqp.Problem{
		Cost: make([][]float64, nTasks),
		Pair: make([][]float64, nTasks),
		Util: make([]float64, nTasks),
		Cap:  make([]float64, len(cells)),
	}
	// Capacity left after the cell's settled (non-displaced) load; the
	// displaced tasks re-enter as variables.
	for ni, cc := range cells {
		settled := cc.Utilization
		for _, d := range req.Displaced {
			if d.Cell == cc.Index {
				settled -= d.Util
			}
		}
		if settled < 0 {
			settled = 0
		}
		p.Cap[ni] = cc.Capacity - settled
	}
	for ti := 0; ti < nTasks; ti++ {
		p.Cost[ti] = make([]float64, len(cells))
		p.Pair[ti] = make([]float64, nTasks)
	}
	for ti, d := range req.Displaced {
		p.Util[ti] = d.Util
		for ni, cc := range cells {
			// Keeping a displaced task where it is costs nothing; the
			// solver may propose moving it, but only the stranded task's
			// assignment is executed here.
			if cc.Index == d.Cell {
				p.Cost[ti][ni] = 0
			} else {
				p.Cost[ti][ni] = 40
			}
		}
	}
	p.Util[self] = req.Task.RTOSTask().Utilization()
	for ni, cc := range cells {
		p.Cost[self][ni] = float64(hopCostWeight*cc.Hops) + float64(cc.Placed)
	}
	for ti := 0; ti < nTasks; ti++ {
		for tj := ti + 1; tj < nTasks; tj++ {
			p.Pair[ti][tj] = 0.25
			p.Pair[tj][ti] = 0.25
		}
	}
	sol, err := bqp.SolveGreedy(p)
	if err != nil {
		return pickLeastLoaded(req)
	}
	return cells[sol.Assign[self]].Index, true
}

// placementPolicies is the fixed table of placement policies, the names
// CampusConfig.Placement and RunSpec.Policy resolve through. Each pick
// function returns the destination cell index, or false when no listed
// cell can take the task; equal requests give equal picks.
var placementPolicies = map[string]func(placementRequest) (int, bool){
	PolicyLeastLoaded: pickLeastLoaded,
	PolicyCampusBQP:   pickCampusBQP,
	PolicyAffinity:    pickAffinity,
}

// PlacementPolicies lists the built-in policy names, sorted.
func PlacementPolicies() []string { return sim.SortedKeys(placementPolicies) }
