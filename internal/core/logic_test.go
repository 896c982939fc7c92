package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"evm/internal/radio"
	"evm/internal/rtlink"
	"evm/internal/vm"
	"evm/internal/wire"
)

func TestPIDLogicStepAndSnapshot(t *testing.T) {
	a, err := pidFactory()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := a.Step(45+float64(i%3), 0.25); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pidFactory()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	// Identical futures after restore.
	for i := 0; i < 10; i++ {
		in := 48.0 + float64(i)
		outA, err := a.Step(in, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		outB, err := b.Step(in, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if outA != outB {
			t.Fatalf("step %d: %f vs %f", i, outA, outB)
		}
	}
}

func TestPIDLogicRestoreRejectsGarbage(t *testing.T) {
	l, err := pidFactory()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("short state accepted")
	}
}

// proportionalCapsule returns byte code implementing out = Kp*(SP - in)
// in Q16.16: setpoint 50, Kp 2, clamped to [0,100].
func proportionalCapsule(t *testing.T) vm.Capsule {
	t.Helper()
	src := `
	PUSHQ 50.0
	IN 0
	SUB        ; error = sp - in  (Q16.16)
	PUSHQ 2.0
	MULQ       ; Kp * error
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`
	code, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return vm.Capsule{TaskID: "lts", Version: 1, Code: code}
}

func TestVMLogicControlLaw(t *testing.T) {
	l, err := NewVMLogic(proportionalCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.Step(45, 0.25) // error 5 * 2 = 10
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out-10) > 0.01 {
		t.Fatalf("out = %f, want 10", out)
	}
	out, err = l.Step(100, 0.25) // error -50*2 = -100, clamp 0
	if err != nil {
		t.Fatal(err)
	}
	if out != 0 {
		t.Fatalf("clamped out = %f, want 0", out)
	}
}

func TestVMLogicSnapshotRestore(t *testing.T) {
	a, err := NewVMLogic(proportionalCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Step(40, 0.25); err != nil {
		t.Fatal(err)
	}
	blob, err := a.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVMLogic(proportionalCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	outA, err := a.Step(42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.Step(42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if outA != outB {
		t.Fatalf("restored VM diverged: %f vs %f", outA, outB)
	}
}

// piCapsule is a stateful PI controller: the integral lives in VM memory
// word 0, which persists across cycles (Reset clears stacks, not memory)
// and travels with the state snapshot on migration.
func piCapsule(t *testing.T) vm.Capsule {
	t.Helper()
	src := `
	IN 0
	PUSHQ 50.0
	SUB          ; e = level - sp (reverse acting)
	DUP
	PUSHQ 0.02
	MULQ
	PUSH 0
	LOAD
	ADD          ; integ' = integ + Ki*e
	DUP
	PUSH 0
	STORE
	SWAP
	PUSHQ 1.2
	MULQ
	ADD          ; u = integ' + Kp*e
	PUSH 0
	MAX
	PUSHQ 100.0
	MIN
	OUT 0
	HALT`
	code, err := vm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return vm.Capsule{TaskID: "lts", Version: 2, Code: code}
}

func TestVMPIControllerAccumulatesIntegral(t *testing.T) {
	l, err := NewVMLogic(piCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	// Constant positive error: output must ramp cycle over cycle
	// (integral action), proving memory persists across Reset.
	var prev float64
	for i := 0; i < 10; i++ {
		out, err := l.Step(55, 0.25) // e = +5
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && out <= prev {
			t.Fatalf("cycle %d: output %f did not ramp past %f", i, out, prev)
		}
		prev = out
	}
	// First-cycle output: Kp*5 + Ki*5 = 6 + 0.1.
	if prev < 6.5 || prev > 8 {
		t.Fatalf("output after 10 cycles = %f, want ~6.1+9*0.1", prev)
	}
}

func TestVMPIControllerIntegralMigrates(t *testing.T) {
	a, err := NewVMLogic(piCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.Step(55, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := a.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewVMLogic(piCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	outA, err := a.Step(55, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := b.Step(55, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if outA != outB {
		t.Fatalf("integral lost in migration: %f vs %f", outA, outB)
	}
	// A fresh replica without the state behaves differently (proves the
	// state actually matters).
	fresh, err := NewVMLogic(piCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	outFresh, err := fresh.Step(55, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if outFresh == outA {
		t.Fatal("fresh replica matched migrated one — integral not exercised")
	}
}

func TestVMLogicNoOutputErrors(t *testing.T) {
	code, err := vm.Assemble("PUSH 1\nHALT")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewVMLogic(vm.Capsule{TaskID: "x", Code: code})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Step(1, 0.25); err == nil {
		t.Fatal("capsule with no OUT accepted")
	}
}

func TestVMLogicEmptyCapsuleRejected(t *testing.T) {
	if _, err := NewVMLogic(vm.Capsule{TaskID: "x"}); err == nil {
		t.Fatal("empty capsule accepted")
	}
}

func TestCorruptedCapsuleDroppedOnAir(t *testing.T) {
	// A capsule whose bytes were corrupted in transit must fail
	// attestation at the receiver and never install a replica.
	r := newRig(t, defaultCfg())
	r.run(t, 2*time.Second)
	c := proportionalCapsule(t)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0xFF // break the checksum
	r.nodes[spareID].onMessage(rtlink.Message{
		Src: ctrlA, Kind: wire.KindCapsule, Payload: enc,
	})
	r.run(t, time.Second)
	if r.nodes[spareID].replica("lts") != nil {
		t.Fatal("corrupted capsule installed a replica")
	}
}

func TestMigrationDeniedBySchedulability(t *testing.T) {
	// The destination already carries a heavy task set; an incoming
	// migration that would overload it must be rejected by admission.
	cfg := defaultCfg()
	heavy := testSpec()
	heavy.ID = "heavy"
	heavy.WCET = 200 * time.Millisecond // 0.8 utilization at 250ms
	heavy.Candidates = []radio.NodeID{spareID}
	big := testSpec()
	big.ID = "lts"
	big.WCET = 100 * time.Millisecond // would push spare past 1.0
	cfg.Tasks = []TaskSpec{big, heavy}
	r := newRig(t, cfg)
	r.run(t, 2*time.Second)
	if err := r.nodes[ctrlA].MigrateTask("lts", spareID); err != nil {
		t.Fatal(err)
	}
	r.run(t, 3*time.Second)
	if r.nodes[spareID].Stats().MigrationsIn != 0 {
		t.Fatal("overloading migration admitted")
	}
	if r.nodes[spareID].replica("lts") != nil {
		t.Fatal("unschedulable replica installed")
	}
}

func TestVMCapsuleMigrationOverNetwork(t *testing.T) {
	// End-to-end VM task migration: a node holding a VM-backed task
	// ships capsule + state to a spare; the spare attests, admits and
	// installs it.
	cfg := defaultCfg()
	cap := proportionalCapsule(t)
	cfg.Tasks[0].MakeLogic = func() (TaskLogic, error) { return NewVMLogic(cap) }
	r := newRig(t, cfg)
	r.run(t, 3_000_000_000) // 3s
	if err := r.nodes[ctrlA].MigrateTask("lts", spareID); err != nil {
		t.Fatal(err)
	}
	r.run(t, 3_000_000_000)
	if r.nodes[spareID].Stats().MigrationsIn != 1 {
		t.Fatal("VM migration did not complete")
	}
	if _, ok := r.nodes[spareID].replica("lts").logic.(*VMLogic); !ok {
		t.Fatal("spare's replica is not VM-backed")
	}
}

// TestSnapshotRoundTripProperty: after a random run of random inputs, a
// PID or byte-code task's snapshot restores into a fresh logic that
// re-snapshots to the same bytes and steps identically. Restore borrows
// its input: the blob is overwritten right after it returns. The
// snapshot appends: a prefix already in dst survives.
func TestSnapshotRoundTripProperty(t *testing.T) {
	factories := map[string]func() (TaskLogic, error){
		"pid":   pidFactory,
		"vm-pi": func() (TaskLogic, error) { return NewVMLogic(piCapsule(t)) },
		"vm-p":  func() (TaskLogic, error) { return NewVMLogic(proportionalCapsule(t)) },
	}
	rng := rand.New(rand.NewPCG(7, 11))
	for name, mk := range factories {
		for trial := range 100 {
			a, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for range rng.IntN(60) {
				if _, err := a.Step(100*rng.Float64(), 0.05+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			prefix := []byte{0xAB}
			snap, err := a.AppendSnapshot(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if snap[0] != 0xAB {
				t.Fatalf("%s trial %d: AppendSnapshot overwrote dst", name, trial)
			}
			blob := snap[1:]
			want := bytes.Clone(blob)
			b, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Restore(blob); err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			for i := range blob {
				blob[i] = 0xFF
			}
			got, err := b.AppendSnapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trial %d: restored state re-snapshots differently", name, trial)
			}
			for range 5 {
				in, dt := 100*rng.Float64(), 0.25
				outA, errA := a.Step(in, dt)
				outB, errB := b.Step(in, dt)
				if outA != outB || (errA == nil) != (errB == nil) {
					t.Fatalf("%s trial %d: futures diverge: %v/%v vs %v/%v", name, trial, outA, errA, outB, errB)
				}
			}
		}
	}
}

// vmLogicByteBudget caps the heap bytes of one NewVMLogic on a small
// capsule: the logic with its capsule encoding, and an interpreter whose
// stacks and memory are built on first use. It measures 336 B; it was
// 3,408 B while every interpreter got a 2 KiB memory and two 512 B
// stacks up front, although no shipped law touches memory.
const vmLogicByteBudget = 512

func TestNewVMLogicAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := proportionalCapsule(t)
	logics := make([]*VMLogic, 100)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range logics {
		l, err := NewVMLogic(c)
		if err != nil {
			t.Fatal(err)
		}
		logics[i] = l
	}
	runtime.ReadMemStats(&m1)
	per := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(logics))
	t.Logf("NewVMLogic: %d B per logic (budget %d)", per, vmLogicByteBudget)
	if per > vmLogicByteBudget {
		t.Fatalf("NewVMLogic takes %d B per logic, budget %d: an interpreter builds state before it is used again", per, vmLogicByteBudget)
	}
}

// TestSnapshotRestoreDoesNotAllocate: both built-in logics snapshot into
// a buffer the caller keeps and restore without allocating.
func TestSnapshotRestoreDoesNotAllocate(t *testing.T) {
	pid, err := pidFactory()
	if err != nil {
		t.Fatal(err)
	}
	vml, err := NewVMLogic(piCapsule(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []TaskLogic{pid, vml} {
		if _, err := l.Step(55, 0.25); err != nil {
			t.Fatal(err)
		}
		buf, err := l.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = l.AppendSnapshot(buf[:0])
			if err := l.Restore(buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%T: AppendSnapshot + Restore made %v allocs, want 0", l, allocs)
		}
	}
}
