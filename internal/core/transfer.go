// Package core implements the Embedded Virtual Machine runtime: Virtual
// Components spanning physical nodes, primary/backup control replication,
// passive fault detection, head arbitration and fail-over, task state
// migration in attested capsules, membership management, mode changes and
// BQP-based runtime re-optimization.
//
// This is the paper's primary contribution (§3): "an EVM is the
// distributed runtime system that dynamically selects primary-backup sets
// of controllers to guarantee QoS given spatial and temporal constraints
// of the underlying wireless network".
package core

import (
	"fmt"
	"time"

	"evm/internal/radio"
)

// TransferType classifies the five elementary object-transfer relations
// of §3.1.2: disjoint, (bi)directional, temporal-conditional,
// causal-conditional and health assessment.
type TransferType int

// Transfer types.
const (
	TransferDisjoint TransferType = iota + 1
	TransferDirectional
	TransferBidirectional
	TransferTemporal
	TransferCausal
	TransferHealth
)

// String implements fmt.Stringer.
func (t TransferType) String() string {
	switch t {
	case TransferDisjoint:
		return "disjoint"
	case TransferDirectional:
		return "directional"
	case TransferBidirectional:
		return "bidirectional"
	case TransferTemporal:
		return "temporal-conditional"
	case TransferCausal:
		return "causal-conditional"
	case TransferHealth:
		return "health-assessment"
	default:
		return fmt.Sprintf("transfer(%d)", int(t))
	}
}

// Transfer is one edge of the Virtual Component's object-transfer graph.
type Transfer struct {
	Type TransferType
	From radio.NodeID
	To   radio.NodeID
	// MaxAge bounds data staleness for temporal-conditional transfers
	// (data older than MaxAge must be discarded by the consumer).
	MaxAge time.Duration
	// After names the task whose output must precede this transfer in
	// the same cycle (causal-conditional).
	After string
}

// Validate checks a single transfer edge.
func (t Transfer) Validate() error {
	switch t.Type {
	case TransferDisjoint:
		// Valid: declares explicit independence.
	case TransferDirectional, TransferBidirectional, TransferHealth:
		if t.From == t.To {
			return fmt.Errorf("core: %v transfer from node to itself", t.Type)
		}
	case TransferTemporal:
		if t.MaxAge <= 0 {
			return fmt.Errorf("core: temporal transfer needs MaxAge > 0")
		}
	case TransferCausal:
		if t.After == "" {
			return fmt.Errorf("core: causal transfer needs After")
		}
	default:
		return fmt.Errorf("core: unknown transfer type %d", t.Type)
	}
	return nil
}

// TransferGraph is the set of object-transfer relations inside one
// Virtual Component.
type TransferGraph struct {
	edges []Transfer
}

// NewTransferGraph validates and assembles a graph.
func NewTransferGraph(edges []Transfer) (*TransferGraph, error) {
	g := &TransferGraph{edges: append([]Transfer(nil), edges...)}
	for i, e := range g.edges {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	// Disjoint pairs must not also have a communicating edge.
	for _, d := range g.edges {
		if d.Type != TransferDisjoint {
			continue
		}
		for _, e := range g.edges {
			if e.Type == TransferDisjoint {
				continue
			}
			if samePair(d, e) {
				return nil, fmt.Errorf("core: nodes %v and %v declared disjoint but share a %v transfer",
					d.From, d.To, e.Type)
			}
		}
	}
	return g, nil
}

func samePair(a, b Transfer) bool {
	return (a.From == b.From && a.To == b.To) || (a.From == b.To && a.To == b.From)
}

// AllowedSend reports whether data may flow from -> to under the graph
// (directional respects direction; bidirectional and health allow both).
func (g *TransferGraph) AllowedSend(from, to radio.NodeID) bool {
	for _, e := range g.edges {
		switch e.Type {
		case TransferDirectional, TransferTemporal, TransferCausal:
			if e.From == from && e.To == to {
				return true
			}
		case TransferBidirectional, TransferHealth:
			if (e.From == from && e.To == to) || (e.From == to && e.To == from) {
				return true
			}
		}
	}
	return false
}

// MaxAgeFor returns the tightest temporal bound on data flowing
// from -> to, or 0 if unconstrained.
func (g *TransferGraph) MaxAgeFor(from, to radio.NodeID) time.Duration {
	var tightest time.Duration
	for _, e := range g.edges {
		if e.Type != TransferTemporal || e.From != from || e.To != to {
			continue
		}
		if tightest == 0 || e.MaxAge < tightest {
			tightest = e.MaxAge
		}
	}
	return tightest
}

// HealthPeers returns the nodes that monitor node id through health-
// assessment transfers.
func (g *TransferGraph) HealthPeers(id radio.NodeID) []radio.NodeID {
	var out []radio.NodeID
	seen := make(map[radio.NodeID]bool)
	for _, e := range g.edges {
		if e.Type != TransferHealth {
			continue
		}
		var peer radio.NodeID
		switch {
		case e.From == id:
			peer = e.To
		case e.To == id:
			peer = e.From
		default:
			continue
		}
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	return out
}
