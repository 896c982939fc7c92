package core

import (
	"bytes"
	"testing"
	"time"

	"evm/internal/vm"
	"evm/internal/wire"
)

// otaCapsule assembles a proportional law out = gain x (setpoint - in)
// as an attested capsule.
func otaCapsule(t *testing.T, taskID string, version uint8, setpoint, gain string) vm.Capsule {
	t.Helper()
	code, err := vm.Assemble(`
		PUSHQ ` + setpoint + `
		IN 0
		SUB
		PUSHQ ` + gain + `
		MULQ
		PUSH 0
		MAX
		PUSHQ 100.0
		MIN
		OUT 0
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	return vm.Capsule{TaskID: taskID, Version: version, Code: code}
}

// verified encodes a capsule and verifies it, as a prepare leg does.
func verified(t *testing.T, c vm.Capsule) *VerifiedCapsule {
	t.Helper()
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerifyCapsule(enc)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// vmRig builds the standard rig with the lts task running capsule v1
// (out = 2 x (50 - in)) instead of the PID law.
func vmRig(t *testing.T) *rig {
	t.Helper()
	cfg := defaultCfg()
	spec := testSpec()
	spec.MakeLogic = func() (TaskLogic, error) {
		return NewVMLogic(otaCapsule(t, "lts", 1, "50.0", "2.0"))
	}
	cfg.Tasks = []TaskSpec{spec}
	r := newRig(t, cfg)
	r.sensor = func() float64 { return 40 }
	return r
}

// TestStageActivateSwapsLaw drives the per-node half of a rollout:
// staging leaves the old law running, activation swaps both code and
// version at one instant, and the new law's commands flow immediately.
func TestStageActivateSwapsLaw(t *testing.T) {
	r := vmRig(t)
	r.run(t, 3*time.Second)
	primary := r.nodes[ctrlA]
	if out, ok := primary.LastOutput("lts"); !ok || out != 20 {
		t.Fatalf("v1 output = %v, %t, want 2 x (50-40) = 20", out, ok)
	}
	if v, ok := primary.CapsuleVersion("lts"); !ok || v != 1 {
		t.Fatalf("capsule version = %d, %t, want v1", v, ok)
	}

	if err := primary.StageCapsule(verified(t, otaCapsule(t, "lts", 2, "70.0", "3.0"))); err != nil {
		t.Fatal(err)
	}
	if v, ok := primary.StagedVersion("lts"); !ok || v != 2 {
		t.Fatalf("staged version = %d, %t, want v2", v, ok)
	}
	// Staged-but-inactive: the running law and version are untouched.
	r.run(t, time.Second)
	if v, _ := primary.CapsuleVersion("lts"); v != 1 {
		t.Fatalf("running version = %d after staging, want still v1", v)
	}
	if out, _ := primary.LastOutput("lts"); out != 20 {
		t.Fatalf("output = %v after staging, want still 20", out)
	}

	if err := primary.ActivateStaged("lts"); err != nil {
		t.Fatal(err)
	}
	if v, _ := primary.CapsuleVersion("lts"); v != 2 {
		t.Fatalf("running version = %d after activation, want v2", v)
	}
	if _, staged := primary.StagedVersion("lts"); staged {
		t.Fatal("capsule still staged after activation")
	}
	r.run(t, time.Second)
	if out, _ := primary.LastOutput("lts"); out != 90 {
		t.Fatalf("v2 output = %v, want 3 x (70-40) = 90", out)
	}
}

// TestRevertRestoresPriorLaw checks the rollback half: reverting swaps
// the prior version's law back in and reverting twice is an error. Both
// candidates upgrade together — exactly what a rollout commit does —
// because a lone v2 primary against a v1 backup trips the deviation
// detector (|90 - 20| > tol) and gets demoted.
func TestRevertRestoresPriorLaw(t *testing.T) {
	r := vmRig(t)
	r.run(t, 3*time.Second)
	replicas := []*Node{r.nodes[ctrlA], r.nodes[ctrlB]}
	for _, n := range replicas {
		if err := n.StageCapsule(verified(t, otaCapsule(t, "lts", 2, "70.0", "3.0"))); err != nil {
			t.Fatal(err)
		}
		if err := n.ActivateStaged("lts"); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, time.Second)
	if out, _ := r.nodes[ctrlA].LastOutput("lts"); out != 90 {
		t.Fatalf("v2 output = %v, want 3 x (70-40) = 90", out)
	}
	for _, n := range replicas {
		if err := n.RevertCapsule("lts"); err != nil {
			t.Fatal(err)
		}
		if v, _ := n.CapsuleVersion("lts"); v != 1 {
			t.Fatalf("version after revert = %d, want v1", v)
		}
	}
	r.run(t, time.Second)
	if out, _ := r.nodes[ctrlA].LastOutput("lts"); out != 20 {
		t.Fatalf("output after revert = %v, want the v1 law's 20", out)
	}
	if err := r.nodes[ctrlA].RevertCapsule("lts"); err == nil {
		t.Fatal("second revert succeeded with no prior version retained")
	}
}

// TestStagingErrorPaths covers the refusal surface: unknown tasks,
// malformed capsules, activation without a stage, and ClearStaged.
func TestStagingErrorPaths(t *testing.T) {
	r := vmRig(t)
	r.run(t, time.Second)
	primary := r.nodes[ctrlA]
	if err := primary.StageCapsule(verified(t, otaCapsule(t, "ghost", 2, "70.0", "3.0"))); err == nil {
		t.Fatal("staged a capsule for a task the node does not hold")
	}
	if err := primary.StageCapsule(verified(t, vm.Capsule{TaskID: "lts", Version: 2})); err == nil {
		t.Fatal("staged an empty capsule")
	}
	if err := primary.ActivateStaged("lts"); err == nil {
		t.Fatal("activated with nothing staged")
	}
	if err := primary.ActivateStaged("ghost"); err == nil {
		t.Fatal("activated a task the node does not hold")
	}
	// Re-staging replaces; ClearStaged drops.
	if err := primary.StageCapsule(verified(t, otaCapsule(t, "lts", 2, "70.0", "3.0"))); err != nil {
		t.Fatal(err)
	}
	if err := primary.StageCapsule(verified(t, otaCapsule(t, "lts", 3, "60.0", "1.0"))); err != nil {
		t.Fatal(err)
	}
	if v, _ := primary.StagedVersion("lts"); v != 3 {
		t.Fatalf("staged version after re-stage = %d, want v3", v)
	}
	primary.ClearStaged("lts")
	if _, staged := primary.StagedVersion("lts"); staged {
		t.Fatal("capsule survived ClearStaged")
	}
	// A task running native (non-VM) logic reports no capsule version.
	if _, ok := primary.CapsuleVersion("ghost"); ok {
		t.Fatal("unknown task reported a capsule version")
	}
}

// counterCapsule assembles a stateful law: each cycle adds step to
// memory word 0 and outputs the sum.
func counterCapsule(t *testing.T, version uint8, step string) vm.Capsule {
	t.Helper()
	code, err := vm.Assemble(`
		PUSH 0
		LOAD
		PUSHQ ` + step + `
		ADD
		PUSH 0
		STORE
		PUSH 0
		LOAD
		OUT 0
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	return vm.Capsule{TaskID: "lts", Version: version, Code: code}
}

// counterRig builds the standard rig with the lts task running the v1
// counter law, stepping by 1.0.
func counterRig(t *testing.T) *rig {
	t.Helper()
	cfg := defaultCfg()
	spec := testSpec()
	spec.MakeLogic = func() (TaskLogic, error) { return NewVMLogic(counterCapsule(t, 1, "1.0")) }
	cfg.Tasks = []TaskSpec{spec}
	return newRig(t, cfg)
}

// TestActivateCarriesStateAcrossCompatibleLayouts proves controller
// state survives an upgrade between capsules sharing the persistent-
// memory convention: a law accumulating into memory keeps its
// accumulator through ActivateStaged.
func TestActivateCarriesStateAcrossCompatibleLayouts(t *testing.T) {
	r := counterRig(t)
	r.run(t, 3*time.Second)
	primary := r.nodes[ctrlA]
	before, ok := primary.LastOutput("lts")
	if !ok || before <= 0 {
		t.Fatalf("accumulator output = %v, %t", before, ok)
	}
	if err := primary.StageCapsule(verified(t, counterCapsule(t, 2, "2.0"))); err != nil {
		t.Fatal(err)
	}
	if err := primary.ActivateStaged("lts"); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Second)
	after, _ := primary.LastOutput("lts")
	if after <= before {
		t.Fatalf("accumulator reset across activation: %v -> %v", before, after)
	}
}

// TestRevertContinuesFromCurrentState pins the revert semantics: the
// interpreter keeps running with the state it has, so after a revert
// the prior law continues from the count the new law reached, not from
// the count at activation. Both replicas upgrade and revert together,
// as a rollout's commit and rollback do.
func TestRevertContinuesFromCurrentState(t *testing.T) {
	r := counterRig(t)
	r.run(t, 3*time.Second)
	replicas := []*Node{r.nodes[ctrlA], r.nodes[ctrlB]}
	atActivation, _ := replicas[0].LastOutput("lts")
	v2 := verified(t, counterCapsule(t, 2, "2.0"))
	for _, n := range replicas {
		if err := n.StageCapsule(v2); err != nil {
			t.Fatal(err)
		}
		if err := n.ActivateStaged("lts"); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, time.Second)
	atRevert, _ := replicas[0].LastOutput("lts")
	if atRevert <= atActivation {
		t.Fatalf("v2 did not carry the count: %v at activation, %v at revert", atActivation, atRevert)
	}
	for _, n := range replicas {
		if err := n.RevertCapsule("lts"); err != nil {
			t.Fatal(err)
		}
	}
	r.run(t, time.Second)
	after, _ := replicas[0].LastOutput("lts")
	if v, _ := replicas[0].CapsuleVersion("lts"); v != 1 {
		t.Fatalf("version after revert = %d, want v1", v)
	}
	if steps := after - atRevert; steps <= 0 || steps != float64(int(steps)) {
		t.Fatalf("v1 after revert went %v -> %v, want whole 1.0 steps up from the count at revert", atRevert, after)
	}
}

// TestActivateRefusedStateStartsFresh: when the outgoing interpreter's
// state does not fit the staged capsule (here its pc lies past the new,
// shorter code), activation starts the new code from a fresh state
// instead of carrying a partial one.
func TestActivateRefusedStateStartsFresh(t *testing.T) {
	reader, err := vm.Assemble(`
		PUSH 0
		LOAD
		OUT 0
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	r := counterRig(t)
	r.run(t, 3*time.Second)
	primary := r.nodes[ctrlA]
	if out, ok := primary.LastOutput("lts"); !ok || out <= 0 {
		t.Fatalf("accumulator output = %v, %t", out, ok)
	}
	if err := primary.StageCapsule(verified(t, vm.Capsule{TaskID: "lts", Version: 2, Code: reader})); err != nil {
		t.Fatal(err)
	}
	if err := primary.ActivateStaged("lts"); err != nil {
		t.Fatal(err)
	}
	r.run(t, time.Second)
	if out, _ := primary.LastOutput("lts"); out != 0 {
		t.Fatalf("reader output = %v after a refused state, want 0 from fresh memory", out)
	}
}

// TestNativeActivationAndRevert: a replica running native logic gets
// its one interpreter at the commit point, and a revert hands the task
// back to that same native logic.
func TestNativeActivationAndRevert(t *testing.T) {
	r := newRig(t, defaultCfg())
	r.sensor = func() float64 { return 40 }
	r.run(t, 3*time.Second)
	replicas := []*Node{r.nodes[ctrlA], r.nodes[ctrlB]}
	native := replicas[0].replica("lts").logic
	if _, isVM := native.(*VMLogic); isVM {
		t.Fatal("the default rig runs a capsule, want native logic")
	}
	v2 := verified(t, otaCapsule(t, "lts", 2, "70.0", "3.0"))
	for _, n := range replicas {
		if err := n.StageCapsule(v2); err != nil {
			t.Fatal(err)
		}
		if err := n.ActivateStaged("lts"); err != nil {
			t.Fatal(err)
		}
	}
	vl, isVM := replicas[0].replica("lts").logic.(*VMLogic)
	if !isVM || &vl.interp.Code()[0] != &v2.Code[0] {
		t.Fatal("activation did not run the staged code in a new interpreter")
	}
	r.run(t, time.Second)
	if out, _ := replicas[0].LastOutput("lts"); out != 90 {
		t.Fatalf("v2 output = %v, want 3 x (70-40) = 90", out)
	}
	for _, n := range replicas {
		if err := n.RevertCapsule("lts"); err != nil {
			t.Fatal(err)
		}
	}
	if replicas[0].replica("lts").logic != native {
		t.Fatal("revert did not restore the native logic")
	}
	if _, ok := replicas[0].CapsuleVersion("lts"); ok {
		t.Fatal("a reverted native replica reports a capsule version")
	}
}

// TestVMActivationDoesNotAllocate gates the commit point of a VM-to-VM
// upgrade and its rollback at zero allocations: staging keeps the
// caller's capsule, and activation and revert swap code in the running
// interpreter. Each round stages one of two capsules in turn.
func TestVMActivationDoesNotAllocate(t *testing.T) {
	r := vmRig(t)
	r.run(t, time.Second)
	primary := r.nodes[ctrlA]
	caps := [2]*VerifiedCapsule{
		verified(t, otaCapsule(t, "lts", 2, "50.0", "2.0")),
		verified(t, otaCapsule(t, "lts", 3, "50.0", "2.0")),
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if err := primary.StageCapsule(caps[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
		if err := primary.ActivateStaged("lts"); err != nil {
			t.Fatal(err)
		}
		if err := primary.RevertCapsule("lts"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("VM-to-VM activation and revert allocate %v times, want 0", allocs)
	}
}

// TestStageCapsuleDoesNotAllocate gates staging at zero allocations and
// checks that the capsule is code, not a second interpreter: the replica
// keeps the caller's capsule, and after activation the running
// interpreter executes its Code slice and checkpoints ship its Encoded
// bytes, neither copied.
func TestStageCapsuleDoesNotAllocate(t *testing.T) {
	r := vmRig(t)
	primary := r.nodes[ctrlA]
	c := verified(t, otaCapsule(t, "lts", 2, "70.0", "3.0"))
	allocs := testing.AllocsPerRun(100, func() {
		if err := primary.StageCapsule(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("StageCapsule allocates %v times, want 0", allocs)
	}
	rep := primary.replica("lts")
	if rep.staged != c {
		t.Fatal("the replica does not keep the staged capsule itself")
	}
	if err := primary.ActivateStaged("lts"); err != nil {
		t.Fatal(err)
	}
	vl := rep.logic.(*VMLogic)
	if &vl.interp.Code()[0] != &c.Code[0] {
		t.Error("the interpreter runs a copy of the staged code")
	}
	var ex wire.TaskExport
	if err := primary.ExportTask("lts", &ex); err != nil || !bytes.Equal(ex.Capsule, c.Encoded) || vl.code.Encoded == nil || &vl.code.Encoded[0] != &c.Encoded[0] {
		t.Errorf("the checkpoint does not ship the attested encoding (err %v)", err)
	}
}
