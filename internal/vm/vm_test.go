package vm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// testHost records OUT writes and serves IN reads from a map.
type testHost struct {
	inputs  map[uint8]int64
	outputs map[uint8][]int64
}

func newTestHost() *testHost {
	return &testHost{inputs: make(map[uint8]int64), outputs: make(map[uint8][]int64)}
}

func (h *testHost) In(port uint8) (int64, error) { return h.inputs[port], nil }

func (h *testHost) Out(port uint8, v int64) error {
	h.outputs[port] = append(h.outputs[port], v)
	return nil
}

func mustAssemble(t *testing.T, src string) []byte {
	t.Helper()
	code, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return code
}

func run(t *testing.T, src string, host Host) *Interp {
	t.Helper()
	in := New(mustAssemble(t, src), host)
	if err := in.Run(DefaultGas); err != nil {
		t.Fatalf("run: %v", err)
	}
	return in
}

func top(t *testing.T, in *Interp) int64 {
	t.Helper()
	v, err := in.Peek()
	if err != nil {
		t.Fatalf("peek: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"PUSH 2\nPUSH 3\nADD\nHALT", 5},
		{"PUSH 10\nPUSH 3\nSUB\nHALT", 7},
		{"PUSH 4\nPUSH 5\nMUL\nHALT", 20},
		{"PUSH 17\nPUSH 5\nDIV\nHALT", 3},
		{"PUSH 17\nPUSH 5\nMOD\nHALT", 2},
		{"PUSH 5\nNEG\nHALT", -5},
		{"PUSH -9\nABS\nHALT", 9},
		{"PUSH 3\nPUSH 8\nMIN\nHALT", 3},
		{"PUSH 3\nPUSH 8\nMAX\nHALT", 8},
		{"PUSH 4\nPUSH 4\nEQ\nHALT", 1},
		{"PUSH 3\nPUSH 4\nLT\nHALT", 1},
		{"PUSH 3\nPUSH 4\nGT\nHALT", 0},
		{"PUSH 1\nPUSH 0\nAND\nHALT", 0},
		{"PUSH 1\nPUSH 0\nOR\nHALT", 1},
		{"PUSH 0\nNOT\nHALT", 1},
	}
	for _, c := range cases {
		in := run(t, c.src, nil)
		if got := top(t, in); got != c.want {
			t.Errorf("%q = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestStackManipulation(t *testing.T) {
	in := run(t, "PUSH 1\nPUSH 2\nSWAP\nHALT", nil)
	if top(t, in) != 1 {
		t.Fatal("SWAP failed")
	}
	in = run(t, "PUSH 1\nPUSH 2\nOVER\nHALT", nil)
	if top(t, in) != 1 {
		t.Fatal("OVER failed")
	}
	in = run(t, "PUSH 1\nPUSH 2\nPUSH 3\nROT\nHALT", nil) // ( 1 2 3 -- 2 3 1 )
	if top(t, in) != 1 {
		t.Fatal("ROT failed")
	}
	in = run(t, "PUSH 7\nDUP\nADD\nHALT", nil)
	if top(t, in) != 14 {
		t.Fatal("DUP failed")
	}
}

func TestPush64(t *testing.T) {
	in := run(t, "PUSH 100000\nPUSH 3\nMUL\nHALT", nil)
	if top(t, in) != 300000 {
		t.Fatalf("PUSH64 path = %d", top(t, in))
	}
	in = run(t, "PUSH -100000\nHALT", nil)
	if top(t, in) != -100000 {
		t.Fatal("negative 64-bit literal")
	}
}

func TestMemory(t *testing.T) {
	in := run(t, "PUSH 42\nPUSH 7\nSTORE\nPUSH 7\nLOAD\nHALT", nil)
	if top(t, in) != 42 {
		t.Fatal("STORE/LOAD round trip failed")
	}
}

func TestMemoryBounds(t *testing.T) {
	in := New(mustAssemble(t, "PUSH 1\nPUSH 9999\nSTORE\nHALT"), nil)
	if err := in.Run(DefaultGas); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("err = %v, want ErrBadAddress", err)
	}
}

func TestLoopSumsToTen(t *testing.T) {
	// sum = 0; for i = 5; i > 0; i-- { sum += ... }: compute 5+4+3+2+1.
	src := `
	PUSH 0      ; sum at mem[0]
	PUSH 0
	STORE
	PUSH 5      ; i at mem[1]
	PUSH 1
	STORE
loop:
	PUSH 1
	LOAD
	JZ done
	PUSH 0
	LOAD
	PUSH 1
	LOAD
	ADD
	PUSH 0
	STORE
	PUSH 1
	LOAD
	PUSH 1
	SUB
	PUSH 1
	STORE
	JMP loop
done:
	PUSH 0
	LOAD
	HALT`
	in := run(t, src, nil)
	if got := top(t, in); got != 15 {
		t.Fatalf("loop sum = %d, want 15", got)
	}
}

func TestCallRet(t *testing.T) {
	src := `
	PUSH 3
	CALL double
	PUSH 1
	ADD
	HALT
double:
	PUSH 2
	MUL
	RET`
	in := run(t, src, nil)
	if got := top(t, in); got != 7 {
		t.Fatalf("call/ret = %d, want 7", got)
	}
}

func TestHostIO(t *testing.T) {
	h := newTestHost()
	h.inputs[0] = 50
	in := run(t, "IN 0\nPUSH 2\nMUL\nOUT 1\nHALT", h)
	if in.Depth() != 0 {
		t.Fatal("stack not consumed")
	}
	if len(h.outputs[1]) != 1 || h.outputs[1][0] != 100 {
		t.Fatalf("outputs = %v", h.outputs)
	}
}

func TestIOWithoutHost(t *testing.T) {
	in := New(mustAssemble(t, "IN 0\nHALT"), nil)
	if err := in.Run(DefaultGas); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v, want ErrNoHost", err)
	}
}

func TestFixedPoint(t *testing.T) {
	in := run(t, "PUSHQ 1.5\nPUSHQ 2.5\nMULQ\nHALT", nil)
	if got := FromQ(top(t, in)); math.Abs(got-3.75) > 0.001 {
		t.Fatalf("1.5*2.5 = %f", got)
	}
	in = run(t, "PUSHQ 1.0\nPUSHQ 4.0\nDIVQ\nHALT", nil)
	if got := FromQ(top(t, in)); math.Abs(got-0.25) > 0.001 {
		t.Fatalf("1/4 = %f", got)
	}
}

func TestDivByZero(t *testing.T) {
	for _, src := range []string{"PUSH 1\nPUSH 0\nDIV\nHALT", "PUSH 1\nPUSH 0\nMOD\nHALT", "PUSHQ 1.0\nPUSH 0\nDIVQ\nHALT"} {
		in := New(mustAssemble(t, src), nil)
		if err := in.Run(DefaultGas); !errors.Is(err, ErrDivByZero) {
			t.Fatalf("%q err = %v, want ErrDivByZero", src, err)
		}
	}
}

func TestGasExhaustion(t *testing.T) {
	in := New(mustAssemble(t, "loop:\nJMP loop"), nil)
	if err := in.Run(1000); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("err = %v, want ErrGasExhausted", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	in := New(mustAssemble(t, "ADD\nHALT"), nil)
	if err := in.Run(10); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v, want underflow", err)
	}
}

// TestStackOverflow: the stacks grow by append, so the bound is
// DefaultStackDepth, not a capacity: the 65th push, by PUSH or Push, and
// the 65th nested CALL overflow, and the stack keeps its 64 values.
func TestStackOverflow(t *testing.T) {
	for _, c := range []struct {
		src   string
		depth func(in *Interp) int
	}{
		{"start:\nPUSH 1\nJMP start", (*Interp).Depth},
		{"start:\nCALL start", func(in *Interp) int { return len(in.ret) }},
	} {
		in := New(mustAssemble(t, c.src), nil)
		if err := in.Run(10000); !errors.Is(err, ErrStackOverflow) || c.depth(in) != DefaultStackDepth {
			t.Fatalf("%q: %v at depth %d, want overflow at %d", c.src, err, c.depth(in), DefaultStackDepth)
		}
	}
	in := New(nil, nil)
	for i := range DefaultStackDepth {
		if err := in.Push(int64(i)); err != nil {
			t.Fatalf("push %d: %v", i+1, err)
		}
	}
	if err := in.Push(0); !errors.Is(err, ErrStackOverflow) || in.Depth() != DefaultStackDepth {
		t.Fatalf("push %d: %v at depth %d, want overflow at %d", DefaultStackDepth+1, err, in.Depth(), DefaultStackDepth)
	}
}

func TestRuntimeExtensionOpcode(t *testing.T) {
	// The EVM's instruction set is extensible at runtime: register a
	// custom "square" op and call it from byte code.
	code := append(mustAssemble(t, "PUSH 9"), byte(ExtBase), byte(OpHalt))
	in := New(code, nil)
	err := in.RegisterOp(ExtBase, "SQUARE", func(i *Interp) error {
		v, err := i.Pop()
		if err != nil {
			return err
		}
		return i.Push(v * v)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Run(DefaultGas); err != nil {
		t.Fatal(err)
	}
	if got := top(t, in); got != 81 {
		t.Fatalf("ext op = %d, want 81", got)
	}
	// Below ExtBase and duplicates rejected.
	if err := in.RegisterOp(OpAdd, "X", nil); err == nil {
		t.Fatal("low opcode registration accepted")
	}
	if err := in.RegisterOp(ExtBase, "DUP2", nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestUnknownOpcode(t *testing.T) {
	in := New([]byte{byte(ExtBase + 5)}, nil)
	if err := in.Run(10); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v, want unknown op", err)
	}
}

func TestResetPreservesMemory(t *testing.T) {
	in := run(t, "PUSH 5\nPUSH 0\nSTORE\nHALT", nil)
	in.Reset()
	if in.Halted() {
		t.Fatal("still halted after reset")
	}
	v, err := in.Mem(0)
	if err != nil || v != 5 {
		t.Fatalf("mem[0] = %d after reset, want 5", v)
	}
	// Re-running the same program works.
	if err := in.Run(DefaultGas); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := "PUSH 1\nPUSH 2\nPUSH 3\nHALT"
	in := New(mustAssemble(t, src), nil)
	// Execute only two instructions, then snapshot mid-program.
	if err := in.Run(2); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("expected gas exhaustion, got %v", err)
	}
	_ = in.SetMem(3, 77)
	snap := in.AppendState(nil)

	// "Migrate": load into a fresh interpreter with the same code.
	dst := New(mustAssemble(t, src), nil)
	if err := dst.LoadState(snap); err != nil {
		t.Fatal(err)
	}
	if err := dst.Run(DefaultGas); err != nil {
		t.Fatal(err)
	}
	if got := top(t, dst); got != 3 {
		t.Fatalf("resumed top = %d, want 3", got)
	}
	if dst.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", dst.Depth())
	}
	v, _ := dst.Mem(3)
	if v != 77 {
		t.Fatal("memory lost in migration")
	}
}

// goldenCallSrc, run two steps, stops inside sub before PUSH 7;
// goldenCallInterp then sets mem[3] = 77 and mem[255] = -2.
const goldenCallSrc = "PUSH -5\nCALL sub\nHALT\nsub:\nPUSH 7\nRET"

// goldenCallState pins the state encoding: a migration's payload length
// sets its backbone transfer time, so any drift in the format would move
// the scenario goldens. Magic "EVMS", pc 6, not halted, data [-5],
// ret [5], then the memory up to its last nonzero word: all 256 words,
// since mem[255] is set.
var goldenCallState = "45564d53" + "00000006" + "00" +
	"00000001" + "fffffffffffffffb" +
	"00000001" + "0000000000000005" +
	"00000100" + strings.Repeat("0000000000000000", 3) + "000000000000004d" +
	strings.Repeat("0000000000000000", 251) + "fffffffffffffffe"

func goldenCallInterp(t *testing.T) *Interp {
	t.Helper()
	in := New(mustAssemble(t, goldenCallSrc), nil)
	if err := in.Run(2); !errors.Is(err, ErrGasExhausted) {
		t.Fatalf("expected gas exhaustion, got %v", err)
	}
	if err := in.SetMem(3, 77); err != nil {
		t.Fatal(err)
	}
	if err := in.SetMem(255, -2); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestStateBinaryRoundTrip(t *testing.T) {
	in := goldenCallInterp(t)
	b := in.AppendState(nil)
	if got := hex.EncodeToString(b); got != goldenCallState {
		t.Fatalf("state encoding drifted:\n got %s\nwant %s", got, goldenCallState)
	}
	// Appending keeps what dst already holds.
	if got := in.AppendState([]byte{0xAA}); got[0] != 0xAA || !bytes.Equal(got[1:], b) {
		t.Fatal("AppendState overwrote its destination's prefix")
	}
	dst := New(mustAssemble(t, goldenCallSrc), nil)
	if err := dst.LoadState(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.AppendState(nil), b) {
		t.Fatal("loaded state re-encodes differently")
	}
	// The loaded interpreter finishes the call like the original.
	for _, it := range []*Interp{in, dst} {
		if err := it.Run(DefaultGas); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(in.AppendState(nil), dst.AppendState(nil)) {
		t.Fatal("resumed runs diverge")
	}
}

// TestLoadStateRejects: every malformed, oversized or non-canonical
// state is refused and leaves the interpreter exactly as it was. A
// memory section that ends in a zero word is refused, the old 256-word
// form of a zero memory among them, so each state has one encoding.
// An empty memory section is the canonical zero memory and loads.
func TestLoadStateRejects(t *testing.T) {
	good := goldenCallInterp(t).AppendState(nil)
	memAt := stateHeader + 4 + 8 + 4 + 8 // offset of the memory length
	withMem := func(mem ...int64) []byte {
		b := append([]byte(nil), good[:memAt]...)
		return appendWords(b, mem)
	}
	zeros := func(n int) []int64 { return make([]int64, n) }
	set := func(off int, v byte) []byte {
		b := append([]byte(nil), good...)
		b[off] = v
		return b
	}
	deepStack := binary.BigEndian.AppendUint32(append([]byte(nil), good[:stateHeader]...), DefaultStackDepth+1)
	deepStack = append(deepStack, make([]byte, 8*(DefaultStackDepth+1))...)
	deepStack = append(deepStack, good[stateHeader+4+8:]...)
	cases := map[string][]byte{
		"empty":                       nil,
		"truncated":                   good[:len(good)-1],
		"header only":                 good[:stateHeader],
		"trailing byte":               append(append([]byte(nil), good...), 0),
		"bad magic":                   set(0, 0x00),
		"halted 2":                    set(8, 2),
		"pc past code":                set(7, byte(len(mustAssemble(t, goldenCallSrc))+1)),
		"255-word mem":                withMem(zeros(DefaultMemWords - 1)...),
		"257-word mem":                withMem(append(zeros(DefaultMemWords), 1)...),
		"trailing zero word":          withMem(0, 0, 0, 77, 0),
		"256 zero words (old format)": withMem(zeros(DefaultMemWords)...),
		"deep stack":                  deepStack,
	}
	for name, b := range cases {
		in := New(mustAssemble(t, goldenCallSrc), nil)
		if err := in.Run(1); !errors.Is(err, ErrGasExhausted) {
			t.Fatal(err)
		}
		before := in.AppendState(nil)
		if err := in.LoadState(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(in.AppendState(nil), before) {
			t.Errorf("%s: rejected state changed the interpreter", name)
		}
	}
	// A 0-word memory loads as all zeros, over a memory that held words.
	in := goldenCallInterp(t)
	zeroMem := withMem()
	if err := in.LoadState(zeroMem); err != nil {
		t.Fatalf("0-word mem: %v", err)
	}
	for _, addr := range []int{3, DefaultMemWords - 1} {
		if v, _ := in.Mem(addr); v != 0 {
			t.Fatalf("0-word mem: Mem(%d) = %d after load, want 0", addr, v)
		}
	}
	if got := in.AppendState(nil); !bytes.Equal(got, zeroMem) {
		t.Fatalf("0-word mem re-encodes as %x", got)
	}
}

// TestStateCodecDoesNotAllocate: a checkpoint appends into a buffer its
// owner keeps, and a load decodes into the interpreter's own slices.
func TestStateCodecDoesNotAllocate(t *testing.T) {
	in := goldenCallInterp(t)
	buf := in.AppendState(nil)
	dst := New(mustAssemble(t, goldenCallSrc), nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = in.AppendState(buf[:0])
		if err := dst.LoadState(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendState + LoadState: %v allocs, want 0", allocs)
	}
}

// freshState is the encoding of a fresh interpreter's state: magic, pc
// 0, not halted, two empty stacks and 0 memory words.
var freshState = "45564d53" + "00000000" + "00" + "00000000" + "00000000" + "00000000"

// TestFreshInterpreterIsLazy: a fresh interpreter has no memory and no
// stacks, and encodes the same state as one whose memory was written
// back to zero, so checkpoints, migrations and their transfer times do
// not depend on whether the memory was ever allocated. Loading, and storing zero, allocate nothing
// and leave the memory unallocated.
func TestFreshInterpreterIsLazy(t *testing.T) {
	in := New(mustAssemble(t, "PUSH 3\nLOAD\nPUSH 0\nPUSH 5\nSTORE\nHALT"), nil)
	if in.mem != nil || in.data != nil || in.ret != nil {
		t.Fatalf("fresh interpreter holds mem %d, data %d, ret %d words", len(in.mem), cap(in.data), cap(in.ret))
	}
	if got := hex.EncodeToString(in.AppendState(nil)); got != freshState {
		t.Fatalf("fresh state encodes as\n%s\nwant\n%s", got, freshState)
	}
	allocs := testing.AllocsPerRun(100, func() {
		in.Reset()
		if err := in.Run(DefaultGas); err != nil {
			t.Fatal(err)
		}
		if v, err := in.Mem(7); v != 0 || err != nil {
			t.Fatalf("Mem(7) = %d, %v on a fresh memory", v, err)
		}
		if err := in.SetMem(DefaultMemWords-1, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || in.mem != nil {
		t.Fatalf("LOAD and zero stores: %v allocs, memory allocated %v; want 0 and false", allocs, in.mem != nil)
	}
	for _, addr := range []int{-1, DefaultMemWords} {
		if _, err := in.Mem(addr); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("Mem(%d) on a fresh memory: %v, want ErrBadAddress", addr, err)
		}
		if err := in.SetMem(addr, 0); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("SetMem(%d, 0) on a fresh memory: %v, want ErrBadAddress", addr, err)
		}
	}
}

// TestMemoryAllocatesOnceOnFirstNonzeroWrite: an all-zero state loads
// without making the memory; the first nonzero STORE, SetMem or loaded
// memory makes it, in one allocation, and later writes reuse it.
func TestMemoryAllocatesOnceOnFirstNonzeroWrite(t *testing.T) {
	code := mustAssemble(t, goldenCallSrc)
	zero := New(code, nil)
	if err := zero.Run(2); !errors.Is(err, ErrGasExhausted) {
		t.Fatal(err)
	}
	zeroState := zero.AppendState(nil)
	nonzero := goldenCallInterp(t).AppendState(nil)

	in := New(code, nil)
	if err := in.LoadState(zeroState); err != nil {
		t.Fatal(err)
	}
	if in.mem != nil {
		t.Fatal("an all-zero memory was allocated on load")
	}
	if got := in.AppendState(nil); !bytes.Equal(got, zeroState) {
		t.Fatalf("loaded zero state re-encodes as %x", got)
	}
	for _, c := range []struct {
		name  string
		in    *Interp
		write func(in *Interp) error
	}{
		{"STORE", New(mustAssemble(t, "PUSH 9\nPUSH 5\nSTORE\nHALT"), nil), func(in *Interp) error {
			in.Reset()
			return in.Run(DefaultGas)
		}},
		{"SetMem", New(code, nil), func(in *Interp) error {
			if err := in.SetMem(5, 9); err != nil {
				return err
			}
			return in.SetMem(6, 10)
		}},
		{"LoadState", New(code, nil), func(in *Interp) error { return in.LoadState(nonzero) }},
	} {
		// AllocsPerRun's warm-up run grows the stacks, so only the
		// memory is left to count.
		n := testing.AllocsPerRun(10, func() {
			c.in.mem = nil
			if err := c.write(c.in); err != nil {
				t.Fatal(err)
			}
		})
		if n != 1 || c.in.mem == nil {
			t.Errorf("%s into a fresh memory: %v allocs, memory allocated %v; want 1 and true", c.name, n, c.in.mem != nil)
		}
	}
	// A memory written back to zero stays allocated and encodes the same.
	in = New(code, nil)
	_ = in.SetMem(5, 9)
	_ = in.SetMem(5, 0)
	if got := hex.EncodeToString(in.AppendState(nil)); got != freshState {
		t.Fatalf("zeroed memory encodes as\n%s\nwant\n%s", got, freshState)
	}
}

// TestStateMarshalProperty: after a random run of random byte code, the
// state loads into a fresh interpreter on the same code and re-encodes
// to the same bytes, whatever the run left (mid-call, halted, faulted).
func TestStateMarshalProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range 2000 {
		code := make([]byte, 1+rng.IntN(48))
		for j := range code {
			// Mostly core opcodes, so runs get somewhere.
			code[j] = byte(rng.IntN(int(OpDivQ) + 2))
		}
		in := New(code, &countingHost{})
		for a := range 4 {
			_ = in.SetMem(rng.IntN(DefaultMemWords), rng.Int64()>>a)
		}
		_ = in.Run(rng.IntN(64))
		b := in.AppendState(nil)
		dst := New(code, &countingHost{})
		if err := dst.LoadState(b); err != nil {
			t.Fatalf("run %d (code %x): %v", i, code, err)
		}
		if got := dst.AppendState(nil); !bytes.Equal(got, b) {
			t.Fatalf("run %d (code %x): state re-encodes differently", i, code)
		}
	}
}

func TestCapsuleRoundTrip(t *testing.T) {
	code := mustAssemble(t, "PUSH 1\nHALT")
	c := Capsule{TaskID: "lts-level-pid", Version: 3, Code: code}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskID != c.TaskID || got.Version != 3 || len(got.Code) != len(code) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCapsuleAttestationDetectsCorruption(t *testing.T) {
	c := Capsule{TaskID: "t", Version: 1, Code: mustAssemble(t, "PUSH 5\nHALT")}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte position in turn: every single-bit-level corruption
	// of the body must be caught.
	caught := 0
	for i := 2; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x01
		if _, err := Decode(bad); err != nil {
			caught++
		}
	}
	if caught != len(enc)-2 {
		t.Fatalf("caught %d corruptions of %d", caught, len(enc)-2)
	}
}

func TestCapsuleStructuralErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrBadCapsule) {
		t.Fatal("short capsule accepted")
	}
	long := Capsule{TaskID: strings.Repeat("x", 300)}
	if _, err := long.Encode(); err == nil {
		t.Fatal("oversize task ID accepted")
	}
}

func TestAssemblerErrors(t *testing.T) {
	bad := []string{
		"BOGUS",
		"PUSH",
		"PUSH abc",
		"JMP",          // missing label
		"JMP nowhere",  // undefined label
		"x:\nx:\nHALT", // duplicate label
		"ADD 5",        // operand on no-operand op
		"IN",           // missing port
		"IN 300",       // port out of range
		"PUSH 1 2",     // too many operands
		":",            // empty label
	}
	for _, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembler accepted %q", src)
		}
	}
}

func TestDisassembleRoundTripish(t *testing.T) {
	src := "PUSH 5\nPUSH 1000\nloop:\nDUP\nJZ end\nPUSH 1\nSUB\nJMP loop\nend:\nIN 2\nOUT 3\nHALT"
	code := mustAssemble(t, src)
	dis := Disassemble(code)
	for _, want := range []string{"PUSH 5", "PUSH 1000", "JZ", "JMP", "IN 2", "OUT 3", "HALT"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
	; a comment line
	PUSH 4   ; trailing comment

	HALT`
	in := run(t, src, nil)
	if top(t, in) != 4 {
		t.Fatal("comments broke assembly")
	}
}

func TestHaltedRunReturnsError(t *testing.T) {
	in := run(t, "HALT", nil)
	if err := in.Run(10); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
}

func TestProgramFallsOffEndHalts(t *testing.T) {
	in := New(mustAssemble(t, "PUSH 1"), nil)
	if err := in.Run(10); err != nil {
		t.Fatal(err)
	}
	if !in.Halted() {
		t.Fatal("program end did not halt")
	}
}

// TestSwapCodeKeepsOrResetsState: swapping in code that the pc fits
// keeps the whole execution state, and code too short for the pc resets
// it to a fresh interpreter's, memory included. Either way the
// interpreter runs the caller's slice, not a copy, and the swap
// allocates nothing.
func TestSwapCodeKeepsOrResetsState(t *testing.T) {
	code, err := Assemble(`
		PUSH 7
		PUSH 0
		STORE
		PUSH 1
		PUSH 2
		HALT`)
	if err != nil {
		t.Fatal(err)
	}
	longer := append(append([]byte(nil), code...), byte(OpNop))
	short := code[:1]
	in := New(code, nil)
	if err := in.Run(DefaultGas); err != nil {
		t.Fatal(err)
	}
	state := in.AppendState(nil)
	if err := in.SwapCode(longer); err != nil {
		t.Fatalf("swap with the pc in the new code: %v", err)
	}
	if got := in.AppendState(nil); !bytes.Equal(got, state) {
		t.Fatalf("state after a fitting swap %x, want %x", got, state)
	}
	if &in.Code()[0] != &longer[0] {
		t.Fatal("SwapCode copied the code")
	}
	if err := in.SwapCode(short); err == nil {
		t.Fatal("SwapCode kept a pc past the new code")
	}
	if got, want := in.AppendState(nil), New(short, nil).AppendState(nil); !bytes.Equal(got, want) {
		t.Fatalf("state after a refused swap %x, want a fresh interpreter's %x", got, want)
	}
	if &in.Code()[0] != &short[0] {
		t.Fatal("SwapCode did not install the code it refused the state for")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = in.SwapCode(code)
		_ = in.Run(DefaultGas)
		_ = in.SwapCode(longer) // keeps
		_ = in.SwapCode(short)  // resets
	})
	if allocs != 0 {
		t.Fatalf("SwapCode allocates %v times, want 0", allocs)
	}
}
