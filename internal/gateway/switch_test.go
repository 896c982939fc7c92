package gateway

import (
	"testing"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/wire"
)

func actuateMsg(t testing.TB, src radio.NodeID, task string) rtlink.Message {
	t.Helper()
	payload, err := wire.Actuate{Port: PortLTSValve, Value: 1, TaskID: task, Seq: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return rtlink.Message{Src: src, Dst: 1, Kind: wire.KindActuate, Payload: payload}
}

func roleMsg(t testing.TB, node radio.NodeID, task string, role wire.Role) rtlink.Message {
	t.Helper()
	payload, err := wire.RoleChange{Node: uint16(node), TaskID: task, Role: role, Seq: 1}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return rtlink.Message{Src: 9, Dst: radio.Broadcast, Kind: wire.KindRoleChange, Payload: payload}
}

func TestEmptySwitchAllows(t *testing.T) {
	sw := NewSwitch(wire.IDs{"lts"}, nil)
	for _, src := range []radio.NodeID{2, 3} {
		act, ok := sw.Pass(actuateMsg(t, src, "lts"))
		if !ok || act.TaskID != "lts" || act.Port != PortLTSValve {
			t.Fatalf("empty switch: sender %v got %+v, %v", src, act, ok)
		}
	}
	if sw.Denied() != 0 {
		t.Fatalf("denied = %d", sw.Denied())
	}
}

func TestOnlyRoleActiveMovesSwitch(t *testing.T) {
	sw := NewSwitch(wire.IDs{"lts"}, map[string]radio.NodeID{"lts": 2})
	for _, role := range []wire.Role{wire.RoleBackup, wire.RoleIndicator, wire.RoleDormant} {
		if _, ok := sw.Pass(roleMsg(t, 3, "lts", role)); ok {
			t.Fatalf("%v role change returned an actuation", role)
		}
		if n := sw.active["lts"]; n != 2 {
			t.Fatalf("%v moved the switch to %v", role, n)
		}
	}
	sw.Pass(roleMsg(t, 3, "lts", wire.RoleActive))
	if n, ok := sw.active["lts"]; !ok || n != 3 {
		t.Fatalf("RoleActive left the switch at %v, %v", n, ok)
	}
	if _, ok := sw.Pass(actuateMsg(t, 3, "lts")); !ok {
		t.Fatal("new Active node denied")
	}
}

func TestSwitchDeniesAndCountsNonActive(t *testing.T) {
	sw := NewSwitch(wire.IDs{"lts"}, nil)
	sw.Pass(roleMsg(t, 4, "lts", wire.RoleActive))
	for i := 1; i <= 2; i++ {
		if _, ok := sw.Pass(actuateMsg(t, 3, "lts")); ok {
			t.Fatal("non-active sender passed")
		}
		if sw.Denied() != i {
			t.Fatalf("denied = %d, want %d", sw.Denied(), i)
		}
	}
	if _, ok := sw.Pass(actuateMsg(t, 4, "lts")); !ok || sw.Denied() != 2 {
		t.Fatalf("Active sender: ok %v, denied %d", ok, sw.Denied())
	}
}

func TestSwitchAllowsUnknownTask(t *testing.T) {
	sw := NewSwitch(wire.IDs{"lts"}, map[string]radio.NodeID{"lts": 2})
	act, ok := sw.Pass(actuateMsg(t, 5, "foreign"))
	if !ok || act.TaskID != "foreign" || sw.Denied() != 0 {
		t.Fatalf("unknown task: %+v, %v, denied %d", act, ok, sw.Denied())
	}
}

func TestSwitchDoesNotAllocate(t *testing.T) {
	sw := NewSwitch(wire.IDs{"chiller", "lts"}, nil)
	promote, act, stale := roleMsg(t, 2, "lts", wire.RoleActive), actuateMsg(t, 2, "lts"), actuateMsg(t, 3, "lts")
	n := testing.AllocsPerRun(100, func() {
		sw.Pass(promote)
		sw.Pass(act)
		sw.Pass(stale)
	})
	if n != 0 {
		t.Fatalf("a role change and two actuations on a known task allocate %.0f times", n)
	}
}
