package gateway

import (
	"maps"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/wire"
)

// Switch is the operation switch: per task, only the node named by the
// last RoleActive role change reaches the plant; a task with no entry
// passes any sender. A cell's sink starts empty, since a seeded one that
// missed a promotion (broadcasts are single-hop) would pin the old primary
// for good. Head.AdoptTask sends no RoleActive: adopted tasks pass unfenced.
type Switch struct {
	ids    wire.Interner // canonical task IDs, boxed once, not per message
	active map[string]radio.NodeID
	denied int
}

// NewSwitch returns a switch over task IDs ids, set to a copy of active.
func NewSwitch(ids wire.IDs, active map[string]radio.NodeID) Switch {
	return Switch{ids: ids, active: maps.Collect(maps.All(active))}
}

// Pass feeds the switch one received message. It returns an actuation
// and true only if the switch lets it through, and counts a refused one.
func (s *Switch) Pass(msg rtlink.Message) (wire.Actuate, bool) {
	switch msg.Kind {
	case wire.KindRoleChange:
		if rc, err := wire.DecodeRoleChangeInterned(msg.Payload, s.ids); err == nil && rc.Role == wire.RoleActive {
			s.active[rc.TaskID] = radio.NodeID(rc.Node)
		}
	case wire.KindActuate:
		act, err := wire.DecodeActuateInterned(msg.Payload, s.ids)
		if allowed, ok := s.active[act.TaskID]; err == nil && ok && allowed != msg.Src {
			s.denied++
			break
		}
		return act, err == nil
	}
	return wire.Actuate{}, false
}

// Denied counts the actuations the switch refused.
func (s *Switch) Denied() int { return s.denied }
