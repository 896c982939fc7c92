package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// fuzzCap is FuzzVMDecodeRun's step cap.
const fuzzCap = 2000

// countingHost serves IN reads and takes OUT writes, counting both, so
// the fuzz target can check that no run made more host calls than it had
// steps.
type countingHost struct{ calls int }

func (h *countingHost) In(port uint8) (int64, error) {
	h.calls++
	return int64(port) * QOne, nil
}

func (h *countingHost) Out(uint8, int64) error {
	h.calls++
	return nil
}

// FuzzVMDecodeRun: vm.Decode never panics on arbitrary bytes. Its input,
// or, when it is not an attested capsule, a capsule built around it as
// code, then runs under a step cap: the interpreter never panics and
// never runs past the cap. Run(cap) must leave the interpreter exactly
// where cap single steps leave a second one, and no run may make more
// host calls than steps. Seeds are encoded capsules of small programs,
// an endless loop among them, and short or damaged inputs.
func FuzzVMDecodeRun(f *testing.F) {
	for _, src := range []string{
		"IN 0\nPUSH 2\nMUL\nOUT 1\nHALT",
		"loop:\nIN 0\nOUT 1\nJMP loop",
		"PUSH 1\nPUSH 0\nDIV\nHALT",
		"CALL sub\nHALT\nsub:\nPUSH 7\nPUSH 3\nSTORE\nRET",
	} {
		code, err := Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		c := Capsule{TaskID: "fuzz", Version: 1, Code: code}
		enc, err := c.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(code)
	}
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x56, 1, 200})
	f.Add([]byte{byte(OpPush64), 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Decode(b)
		if err != nil {
			c = Capsule{TaskID: "fuzz", Code: b}
			enc, err := c.Encode()
			if err != nil {
				return // more code than a capsule holds
			}
			if c, err = Decode(enc); err != nil {
				t.Fatalf("a capsule Encode built does not decode: %v", err)
			}
		}
		host := &countingHost{}
		in := New(c.Code, host)
		runErr := in.Run(fuzzCap)
		if host.calls > fuzzCap {
			t.Fatalf("%d host calls under a cap of %d steps", host.calls, fuzzCap)
		}
		stepped := New(c.Code, &countingHost{})
		var stepErr error
		for range fuzzCap {
			if stepErr = stepped.Run(1); !errors.Is(stepErr, ErrGasExhausted) {
				break
			}
		}
		if !bytes.Equal(in.AppendState(nil), stepped.AppendState(nil)) {
			t.Fatalf("Run(%d) ended at pc %d, depth %d; %d single steps at pc %d, depth %d",
				fuzzCap, in.PC(), in.Depth(), fuzzCap, stepped.PC(), stepped.Depth())
		}
		if fmt.Sprint(runErr) != fmt.Sprint(stepErr) {
			t.Fatalf("Run(%d) returned %v, single steps %v", fuzzCap, runErr, stepErr)
		}
	})
}

// FuzzVMLoadState: LoadState never panics on arbitrary bytes. Input it
// rejects leaves the interpreter's state exactly as it was; input it
// accepts re-encodes to itself, so the decoder admits only what
// AppendState can produce. An accepted state then meets SwapCode to
// shorter code, which keeps it or resets it as its pc decides. The
// interpreter is stopped inside a call with some memory set, so
// "unchanged" is not an empty state. Seeds are encodings of reachable
// states and damaged, oversized or non-canonical ones.
func FuzzVMLoadState(f *testing.F) {
	code, err := Assemble("PUSH -5\nCALL sub\nHALT\nsub:\nPUSH 7\nRET")
	if err != nil {
		f.Fatal(err)
	}
	fresh := func() *Interp {
		in := New(code, nil)
		_ = in.Run(2)
		_ = in.SetMem(3, 77)
		return in
	}
	for steps := range 5 {
		in := New(code, nil)
		_ = in.Run(steps)
		good := in.AppendState(nil)
		f.Add(good)
		f.Add(good[:len(good)-8])
	}
	// The old fixed-size form of a zero memory (256 zero words, now
	// refused), and a full-length memory whose last word is set.
	fresh0 := New(code, nil).AppendState(nil)
	memAt := len(fresh0) - 4
	old := binary.BigEndian.AppendUint32(fresh0[:memAt:memAt], DefaultMemWords)
	f.Add(append(old, make([]byte, 8*DefaultMemWords)...))
	full := New(code, nil)
	_ = full.SetMem(DefaultMemWords-1, -1)
	f.Add(full.AppendState(nil))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x56, 0x4d, 0x53, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		in := fresh()
		before := in.AppendState(nil)
		if err := in.LoadState(b); err != nil {
			if !bytes.Equal(in.AppendState(nil), before) {
				t.Fatalf("rejected input (%v) changed the interpreter", err)
			}
			return
		}
		if got := in.AppendState(nil); !bytes.Equal(got, b) {
			t.Fatalf("accepted input re-encodes differently:\n in %x\nout %x", b, got)
		}
		// Swapping in shorter code keeps the loaded state when its pc
		// fits and resets it to a fresh interpreter's otherwise.
		short := code[:len(code)/2]
		pc := in.PC()
		fits := pc <= len(short)
		want := b
		if !fits {
			want = New(short, nil).AppendState(nil)
		}
		if err := in.SwapCode(short); (err == nil) != fits || !bytes.Equal(in.AppendState(nil), want) {
			t.Fatalf("SwapCode of pc %d into %d bytes: err %v, state %x", pc, len(short), err, in.AppendState(nil))
		}
	})
}
