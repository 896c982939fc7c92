package core

import (
	"testing"
	"time"

	"evm/internal/vm"
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

	v2 := otaCapsule(t, "lts", 2, "70.0", "3.0")
	if err := primary.StageCapsule(v2); err != nil {
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

// TestRevertRestoresPriorLaw checks the rollback half: reverting resumes
// the prior version's logic (state intact) and reverting twice is an
// error. Both candidates upgrade together — exactly what a rollout
// commit does — because a lone v2 primary against a v1 backup trips the
// deviation detector (|90 - 20| > tol) and gets demoted.
func TestRevertRestoresPriorLaw(t *testing.T) {
	r := vmRig(t)
	r.run(t, 3*time.Second)
	replicas := []*Node{r.nodes[ctrlA], r.nodes[ctrlB]}
	for _, n := range replicas {
		if err := n.StageCapsule(otaCapsule(t, "lts", 2, "70.0", "3.0")); err != nil {
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
	if err := primary.StageCapsule(otaCapsule(t, "ghost", 2, "70.0", "3.0")); err == nil {
		t.Fatal("staged a capsule for a task the node does not hold")
	}
	if err := primary.StageCapsule(vm.Capsule{TaskID: "lts", Version: 2}); err == nil {
		t.Fatal("staged an empty capsule")
	}
	if err := primary.ActivateStaged("lts"); err == nil {
		t.Fatal("activated with nothing staged")
	}
	if err := primary.ActivateStaged("ghost"); err == nil {
		t.Fatal("activated a task the node does not hold")
	}
	// Re-staging replaces; ClearStaged drops.
	if err := primary.StageCapsule(otaCapsule(t, "lts", 2, "70.0", "3.0")); err != nil {
		t.Fatal(err)
	}
	if err := primary.StageCapsule(otaCapsule(t, "lts", 3, "60.0", "1.0")); err != nil {
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

// TestActivateCarriesStateAcrossCompatibleLayouts proves controller
// state survives an upgrade between capsules sharing the persistent-
// memory convention: a law accumulating into memory keeps its
// accumulator through ActivateStaged.
func TestActivateCarriesStateAcrossCompatibleLayouts(t *testing.T) {
	counter := func(version uint8, step string) vm.Capsule {
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
	cfg := defaultCfg()
	spec := testSpec()
	spec.MakeLogic = func() (TaskLogic, error) { return NewVMLogic(counter(1, "1.0")) }
	cfg.Tasks = []TaskSpec{spec}
	r := newRig(t, cfg)
	r.run(t, 3*time.Second)
	primary := r.nodes[ctrlA]
	before, ok := primary.LastOutput("lts")
	if !ok || before <= 0 {
		t.Fatalf("accumulator output = %v, %t", before, ok)
	}
	if err := primary.StageCapsule(counter(2, "2.0")); err != nil {
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

// TestActivateRefusedStateStartsFresh: when the outgoing interpreter's
// state does not fit the staged capsule (here its pc lies past the new,
// shorter code), activation leaves the staged logic fresh instead of
// carrying a partial state.
func TestActivateRefusedStateStartsFresh(t *testing.T) {
	counter, err := vm.Assemble(`
		PUSH 0
		LOAD
		PUSHQ 1.0
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
	reader, err := vm.Assemble(`
		PUSH 0
		LOAD
		OUT 0
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	spec := testSpec()
	spec.MakeLogic = func() (TaskLogic, error) { return NewVMLogic(vm.Capsule{TaskID: "lts", Version: 1, Code: counter}) }
	cfg.Tasks = []TaskSpec{spec}
	r := newRig(t, cfg)
	r.run(t, 3*time.Second)
	primary := r.nodes[ctrlA]
	if out, ok := primary.LastOutput("lts"); !ok || out <= 0 {
		t.Fatalf("accumulator output = %v, %t", out, ok)
	}
	if err := primary.StageCapsule(vm.Capsule{TaskID: "lts", Version: 2, Code: reader}); err != nil {
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

// TestVMActivationDoesNotAllocate gates the commit point of a VM-to-VM
// upgrade at zero allocations: the outgoing interpreter's state is copied
// into the staged one, with no snapshot blob in between. Each activation
// stages the logic that is not running, so the two alternate.
func TestVMActivationDoesNotAllocate(t *testing.T) {
	r := vmRig(t)
	r.run(t, time.Second)
	primary := r.nodes[ctrlA]
	var logics [2]*VMLogic
	for i := range logics {
		l, err := NewVMLogic(otaCapsule(t, "lts", uint8(i+2), "50.0", "2.0"))
		if err != nil {
			t.Fatal(err)
		}
		logics[i] = l
	}
	rep := primary.replica("lts")
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		rep.staged, rep.stagedVersion = logics[i%2], uint8(i%2+2)
		i++
		if err := primary.ActivateStaged("lts"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("VM-to-VM activation allocates %v times, want 0", allocs)
	}
}

// stageCapsuleAllocs is what staging a capsule costs: the VMLogic and
// the interpreter, plus the interpreter's code copy, two stacks and
// memory. The logic keeps no second copy of the code, and an
// interpreter without extension opcodes makes no opcode table.
const stageCapsuleAllocs = 6

// TestStageCapsuleAllocs pins the allocations of staging one capsule
// and checks that the staged logic's capsule shares the interpreter's
// code.
func TestStageCapsuleAllocs(t *testing.T) {
	r := vmRig(t)
	primary := r.nodes[ctrlA]
	c := otaCapsule(t, "lts", 2, "70.0", "3.0")
	allocs := testing.AllocsPerRun(100, func() {
		if err := primary.StageCapsule(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != stageCapsuleAllocs {
		t.Errorf("StageCapsule allocates %v times, want %d", allocs, stageCapsuleAllocs)
	}
	staged := primary.replica("lts").staged
	if code := staged.Capsule().Code; &code[0] != &staged.interp.Code()[0] || &code[0] == &c.Code[0] {
		t.Error("the staged capsule's code is not the interpreter's own copy")
	}
}
