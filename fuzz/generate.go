package fuzz

import (
	"fmt"
	"math"

	"evm/internal/sim"
)

// Profile bounds the generator. The defaults are tuned so that every
// generated spec is *supposed* to pass the invariant harness on a
// correct implementation: faults are diverse but survivable (structural
// faults are serialized, severed links never partition the backbone,
// escalation targets always exist), so any violation a sweep finds is a
// bug in the system under test, not an impossible scenario.
type Profile struct {
	// MinCells/MaxCells bound campus width.
	MinCells, MaxCells int
	// MaxTasks bounds control loops per cell.
	MaxTasks int
	// MaxFaults bounds fault windows per spec (a window may expand to
	// two steps, e.g. crash+recover).
	MaxFaults int
	// MultihopWeight is the probability a spec is a single multi-hop
	// line cell scattered wider than radio range (1 = always).
	MultihopWeight float64
	// RolloutWeight is the probability a campus spec schedules an OTA
	// rollout concurrent with its fault plan.
	RolloutWeight float64
	// HorizonMinMS/HorizonMaxMS bound the virtual run length.
	HorizonMinMS, HorizonMaxMS int64
	// LossGates keeps crashes, recoveries and outages out of lossy
	// cells (genFaultTimeline). Off, the generator places them in any
	// cell: the lossy profile, which measures safety under loss.
	LossGates bool
}

// DefaultProfile is the sweep profile: mostly multi-cell campuses with
// an occasional multi-hop random field.
func DefaultProfile() Profile {
	return Profile{
		MinCells:       2,
		MaxCells:       4,
		MaxTasks:       3,
		MaxFaults:      5,
		MultihopWeight: 0.15,
		RolloutWeight:  0.2,
		HorizonMinMS:   20_000,
		HorizonMaxMS:   32_000,
		LossGates:      true,
	}
}

// MultihopProfile makes every spec a single multi-hop line cell — the
// profile behind the pinned random-field-multihop scenario.
func MultihopProfile() Profile {
	p := DefaultProfile()
	p.MultihopWeight = 1
	return p
}

// Generate derives a complete scenario spec from one seed with the
// default profile. Equal seeds yield byte-identical specs.
func Generate(seed uint64) Spec { return GenerateWith(seed, DefaultProfile()) }

// GenerateWith derives a spec from a seed under a profile. The
// generator consumes a dedicated splitmix64 stream, so the mapping
// seed → spec is a pure function.
func GenerateWith(seed uint64, p Profile) Spec {
	rng := sim.NewRNG(seed)
	if rng.Float64() < p.MultihopWeight {
		return genMultihop(seed, rng, p)
	}
	return genCampus(seed, rng, p)
}

// RadioRangeM mirrors the radio medium's default maximum communication
// distance; multi-hop fields are scattered wider than this on purpose.
const RadioRangeM = 30

// genMultihop builds a single-cell spec whose members are scattered as
// a random walk wider than radio range: consecutive stations stay
// within ~22 m (a reliable hop) while the field end-to-end spans well
// past 30 m, so gateway↔controller traffic must relay hop by hop over
// the TDMA line schedule. This is the carried PR-4 "RandomUniform wider
// than radio range + line routing" item in generated form.
func genMultihop(seed uint64, rng *sim.RNG, p Profile) Spec {
	// One loop and 1–2 relay spares keep the line at 5–6 stations — the
	// pipeline-scenario length. Longer lines push the worst-case relay
	// latency of a far-end actuation past the invariant grace and the
	// feed's first delivery past the silence window, so a *correct*
	// implementation starts tripping checkers on pure physics.
	tasks := 1
	spares := 1 + rng.Intn(2)
	// With the loss gates on, the channel stays perfect: per-hop loss
	// compounds down the line and the Gilbert-Elliott overlay (active at
	// any rate > 0) can swallow enough consecutive frames to fake a
	// silent primary. The multi-hop exercise is then relaying over the
	// schedule, not loss. With the gates off the cell gets a PER, drawn
	// last so the rest of the spec matches the gated one.
	cell := CellGen{
		Name:      "field",
		Tasks:     tasks,
		Spares:    spares,
		PeriodMS:  250,
		Placement: PlacementScatter,
		Multihop:  true,
	}
	n := cell.Nodes()
	// Random-walk scatter: headings stay within ±45° of +X so the walk
	// always advances, hops span 14–22 m (< the 30 m range), and with
	// n ≥ 6 stations the end-to-end span exceeds the range.
	x := rng.Float64() * 5
	y := rng.Float64() * 5
	heading := (rng.Float64()*2 - 1) * math.Pi / 6
	pos := make([]Point, n)
	pos[0] = Point{X: round2(x), Y: round2(y)}
	for i := 1; i < n; i++ {
		heading += (rng.Float64()*2 - 1) * math.Pi / 5
		if heading > math.Pi/4 {
			heading = math.Pi / 4
		}
		if heading < -math.Pi/4 {
			heading = -math.Pi / 4
		}
		d := 14 + rng.Float64()*8
		x += d * math.Cos(heading)
		y += d * math.Sin(heading)
		pos[i] = Point{X: round2(x), Y: round2(y)}
	}
	cell.Positions = pos
	s := Spec{
		Name:      fmt.Sprintf("fuzz-mh-%016x", seed),
		GenSeed:   seed,
		Topology:  TopologySingle,
		Cells:     []CellGen{cell},
		HorizonMS: 25_000 + int64(rng.Intn(10))*1000,
	}
	// At most one crash (primary only, never recovered: the backup takes
	// over in-cell, and a recovered far-end master would resume
	// actuating before a line-relayed re-demotion could reach it), plus
	// an optional light PER burst or clock drift. Burst loss compounds
	// per hop on a line, so it stays mild and short.
	t := int64(8000 + rng.Intn(3000))
	if rng.Float64() < 0.6 {
		task := rng.Intn(tasks)
		primary := 3 + 2*task
		s.Faults = append(s.Faults, FaultGen{AtMS: t, Kind: KindCrash, Cell: cell.Name, Node: primary})
		t += int64(4000 + rng.Intn(2000))
	}
	if t < s.HorizonMS-8000 && rng.Float64() < 0.5 {
		s.Faults = append(s.Faults, FaultGen{
			AtMS: t, Kind: KindDrift, Cell: cell.Name,
			Node: 2 + 2*tasks + 1 + rng.Intn(spares), PPM: round2((rng.Float64()*2 - 1) * 250),
		})
	}
	if !p.LossGates {
		s.Cells[0].PER = round3(rng.Float64() * 0.12)
	}
	return s
}

// genCampus builds a multi-cell campus spec: random cell compositions,
// a random backbone topology, random policy choices and a serialized
// random fault timeline (optionally concurrent with an OTA rollout).
func genCampus(seed uint64, rng *sim.RNG, p Profile) Spec {
	nc := p.MinCells + rng.Intn(p.MaxCells-p.MinCells+1)
	doRollout := rng.Float64() < p.RolloutWeight
	s := Spec{
		Name:    fmt.Sprintf("fuzz-%016x", seed),
		GenSeed: seed,
	}
	for i := 0; i < nc; i++ {
		c := CellGen{
			Name:     fmt.Sprintf("c%d", i),
			Tasks:    1 + rng.Intn(p.MaxTasks),
			Spares:   3 + rng.Intn(3),
			PeriodMS: []int64{250, 500}[rng.Intn(2)],
			VM:       doRollout,
		}
		if rng.Float64() < 0.3 {
			c.PER = round3(rng.Float64() * 0.12)
		}
		switch w := rng.Float64(); {
		case w < 0.5:
			c.Placement = PlacementGrid
		case w < 0.7:
			c.Placement = PlacementLine
		default:
			// In-range scatter: an 18 m box keeps every pair well inside
			// the 30 m radio range, so the mesh schedule stays reliable.
			c.Placement = PlacementScatter
			c.Positions = make([]Point, c.Nodes())
			for j := range c.Positions {
				c.Positions[j] = Point{X: round2(rng.Float64() * 18), Y: round2(rng.Float64() * 18)}
			}
		}
		s.Cells = append(s.Cells, c)
	}
	s.Topology, s.Links = genTopology(rng, s.Cells)
	switch w := rng.Float64(); {
	case w < 0.55:
		s.Policy = ""
	case w < 0.75:
		s.Policy = "least-loaded"
	case w < 0.9:
		s.Policy = "campus-bqp"
	default:
		s.Policy = "affinity"
	}
	s.Rebalance = rng.Float64() < 0.4
	span := p.HorizonMaxMS - p.HorizonMinMS
	s.HorizonMS = p.HorizonMinMS + int64(rng.Intn(int(span/500)+1))*500
	if doRollout {
		r := &RolloutGen{AtMS: int64(8000 + rng.Intn(4000)), Version: 2}
		if rng.Float64() < 0.2 {
			r.Version = 3 // seeded bad law: the health window must roll back
		}
		switch rng.Intn(3) {
		case 0:
			r.Strategy = "" // canary-cell
		case 1:
			r.Strategy = "cell-by-cell"
		case 2:
			r.Strategy = "all-at-once"
		}
		s.Rollout = r
	}
	genFaultTimeline(rng, &s, p)
	return s
}

// genTopology picks the backbone shape. Lossy links only appear where
// routing has an alternative (ring) or retries can absorb them; a
// chain's only path stays nearly clean.
func genTopology(rng *sim.RNG, cells []CellGen) (string, []LinkGen) {
	nc := len(cells)
	lat := func() int64 { return int64(5 + rng.Intn(35)) }
	per := func(max float64) float64 {
		if rng.Float64() < 0.65 {
			return 0
		}
		return round3(rng.Float64() * max)
	}
	if nc == 2 {
		if rng.Float64() < 0.5 {
			return TopologyMesh, nil
		}
		return TopologyLine, []LinkGen{{A: cells[0].Name, B: cells[1].Name, LatencyMS: lat(), PER: per(0.15)}}
	}
	switch w := rng.Float64(); {
	case w < 0.3:
		return TopologyMesh, nil
	case w < 0.6:
		links := make([]LinkGen, 0, nc)
		for i := 0; i < nc; i++ {
			links = append(links, LinkGen{
				A: cells[i].Name, B: cells[(i+1)%nc].Name, LatencyMS: lat(), PER: per(0.3),
			})
		}
		return TopologyRing, links
	case w < 0.8:
		links := make([]LinkGen, 0, nc-1)
		for i := 0; i < nc-1; i++ {
			links = append(links, LinkGen{
				A: cells[i].Name, B: cells[i+1].Name, LatencyMS: lat(), PER: per(0.15),
			})
		}
		return TopologyLine, links
	default:
		// Random spanning tree plus up to nc-1 extra edges.
		links := make([]LinkGen, 0, 2*nc)
		have := make(map[[2]string]bool)
		for i := 1; i < nc; i++ {
			peer := rng.Intn(i)
			links = append(links, LinkGen{
				A: cells[peer].Name, B: cells[i].Name, LatencyMS: lat(), PER: per(0.15),
			})
			have[linkKey(cells[peer].Name, cells[i].Name)] = true
		}
		for e := rng.Intn(nc); e > 0; e-- {
			a, b := rng.Intn(nc), rng.Intn(nc)
			if a == b || have[linkKey(cells[a].Name, cells[b].Name)] {
				continue
			}
			have[linkKey(cells[a].Name, cells[b].Name)] = true
			links = append(links, LinkGen{
				A: cells[a].Name, B: cells[b].Name, LatencyMS: lat(), PER: per(0.3),
			})
		}
		return TopologyRandom, links
	}
}

// genFaultTimeline appends a serialized random fault plan to the spec.
// Windows never overlap (each structural disturbance resolves before
// the next begins) and every crash leaves the task a way back — the
// backup, a recovery, or a campus peer to escalate into — so a correct
// implementation rides out the whole timeline within the timing bounds.
func genFaultTimeline(rng *sim.RNG, s *Spec, p Profile) {
	budget := rng.Intn(p.MaxFaults + 1)
	if budget == 0 {
		return
	}
	// aliveCands[cell][task] = candidate nodes not crashed-without-recovery.
	aliveCands := make([][][]int, len(s.Cells))
	for i, c := range s.Cells {
		aliveCands[i] = make([][]int, c.Tasks)
		for t := 0; t < c.Tasks; t++ {
			aliveCands[i][t] = []int{3 + 2*t, 4 + 2*t}
		}
	}
	outageDone, exhaustDone := false, false
	// Cells that ever see a PER burst are excluded from crash windows:
	// the burst's correlated losses can trigger a spontaneous silence
	// fail-over, after which the generator's master bookkeeping — and
	// therefore its guarantee that every crash leaves a usable candidate
	// — no longer holds. The same goes for cells with baseline loss.
	// These loss gates hold while p.LossGates is on.
	bursted := make([]bool, len(s.Cells))
	t := int64(6000 + rng.Intn(2000))
	for windows := 0; windows < budget && t < s.HorizonMS-9000; windows++ {
		switch rng.Intn(6) {
		case 0: // whole-cell outage → escalation → recovery → demotion
			// Loss-free victims only: the recovery-time stale-master
			// demotion is a radio exchange, and baseline loss can delay
			// it past the invariant grace.
			if outageDone {
				continue
			}
			victim := rng.Intn(len(s.Cells))
			if p.LossGates && s.Cells[victim].PER > 0 {
				continue
			}
			outageDone = true
			forMS := int64(6000 + rng.Intn(3000))
			s.Faults = append(s.Faults, FaultGen{
				AtMS: t, Kind: KindOutage, Cell: s.Cells[victim].Name, ForMS: forMS,
			})
			t += forMS
		case 1: // candidate crash (± recovery), loss-free cells only
			ci := rng.Intn(len(s.Cells))
			if p.LossGates && (s.Cells[ci].PER > 0 || bursted[ci]) {
				continue
			}
			task := rng.Intn(s.Cells[ci].Tasks)
			cands := aliveCands[ci][task]
			if len(cands) == 0 || (len(cands) == 1 && exhaustDone) {
				continue
			}
			node := cands[rng.Intn(len(cands))]
			s.Faults = append(s.Faults, FaultGen{AtMS: t, Kind: KindCrash, Cell: s.Cells[ci].Name, Node: node})
			// Recovery only in loss-free cells: a recovered stale master
			// resumes actuating until the head's re-demotion reaches it,
			// and baseline loss can push that exchange past the
			// invariant grace.
			if (!p.LossGates || s.Cells[ci].PER == 0) && rng.Float64() < 0.6 {
				rec := t + int64(3000+rng.Intn(4000))
				s.Faults = append(s.Faults, FaultGen{AtMS: rec, Kind: KindRecover, Cell: s.Cells[ci].Name, Node: node})
				t = rec
			} else {
				kept := make([]int, 0, 1)
				for _, c := range cands {
					if c != node {
						kept = append(kept, c)
					}
				}
				aliveCands[ci][task] = kept
				if len(kept) == 0 {
					exhaustDone = true // the task escalates; allow that once per spec
				}
			}
		case 2: // cell-wide PER burst
			// Bursts stay below the loss level where the head's demotion
			// handshake itself starts getting swallowed: a demoted master
			// that never hears its demotion keeps actuating, and no
			// implementation can stay safe against unbounded loss.
			ci := rng.Intn(len(s.Cells))
			bursted[ci] = true
			forMS := int64(2000 + rng.Intn(2000))
			s.Faults = append(s.Faults, FaultGen{
				AtMS: t, Kind: KindPERBurst, Cell: s.Cells[ci].Name,
				PER: round3(0.15 + rng.Float64()*0.15), ForMS: forMS,
			})
			t += forMS
		case 3: // battery drain on a candidate
			ci := rng.Intn(len(s.Cells))
			task := rng.Intn(s.Cells[ci].Tasks)
			cands := aliveCands[ci][task]
			if len(cands) == 0 {
				continue
			}
			s.Faults = append(s.Faults, FaultGen{
				AtMS: t, Kind: KindBattery, Cell: s.Cells[ci].Name,
				Node: cands[rng.Intn(len(cands))], Fraction: round3(0.5 + rng.Float64()*0.49),
			})
		case 4: // clock drift on a spare
			ci := rng.Intn(len(s.Cells))
			c := s.Cells[ci]
			s.Faults = append(s.Faults, FaultGen{
				AtMS: t, Kind: KindDrift, Cell: c.Name,
				Node: 2 + 2*c.Tasks + 1 + rng.Intn(c.Spares), PPM: round2((rng.Float64()*2 - 1) * 250),
			})
		case 5: // backbone link sever window (never partitions)
			if len(s.Links) == 0 {
				continue
			}
			var severable []LinkGen
			for _, l := range s.Links {
				if s.connectedWithout(l.A, l.B) {
					severable = append(severable, l)
				}
			}
			if len(severable) == 0 {
				continue
			}
			l := severable[rng.Intn(len(severable))]
			up := t + int64(4000+rng.Intn(3000))
			s.Faults = append(s.Faults,
				FaultGen{AtMS: t, Kind: KindLinkDown, A: l.A, B: l.B},
				FaultGen{AtMS: up, Kind: KindLinkUp, A: l.A, B: l.B},
			)
			t = up
		}
		t += int64(2000 + rng.Intn(2500))
	}
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
