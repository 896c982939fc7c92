// Package vm implements the EVM's FORTH-like byte-code interpreter.
//
// Like Maté, the interpreter is a small stack machine; unlike Maté, the
// instruction set is extensible at runtime (RegisterOp) and the
// instructions are oriented toward node-to-node control: code and state
// travel between nodes in attested capsules (capsule.go), and the complete
// interpreter state (pc, stacks, memory) can be snapshotted and restored
// on another node, which is the mechanism behind the EVM's task migration.
package vm

import (
	"errors"
	"fmt"
)

// Op is a byte-code opcode.
type Op byte

// Core instruction set. Opcodes 0x80 and above are reserved for runtime
// extensions.
const (
	OpNop Op = iota
	OpHalt
	OpPush8  // push sign-extended 1-byte literal
	OpPush64 // push 8-byte big-endian literal
	OpDup
	OpDrop
	OpSwap
	OpOver
	OpRot
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpAbs
	OpMin
	OpMax
	OpEq
	OpLt
	OpGt
	OpAnd
	OpOr
	OpNot
	OpLoad  // ( addr -- mem[addr] )
	OpStore // ( val addr -- )
	OpJmp   // 2-byte absolute target
	OpJz    // pop; jump if zero
	OpCall  // 2-byte absolute target, push return address
	OpRet
	OpIn   // 1-byte port; push host input
	OpOut  // 1-byte port; pop to host output
	OpMulQ // Q16.16 fixed-point multiply
	OpDivQ // Q16.16 fixed-point divide
)

// ExtBase is the first opcode available to runtime extensions.
const ExtBase Op = 0x80

// Interpreter limits.
const (
	DefaultStackDepth = 64
	DefaultMemWords   = 256
	DefaultGas        = 10_000
)

// QOne is 1.0 in Q16.16 fixed point.
const QOne int64 = 1 << 16

// ToQ converts a float to Q16.16.
func ToQ(f float64) int64 { return int64(f * float64(QOne)) }

// FromQ converts Q16.16 to float.
func FromQ(q int64) float64 { return float64(q) / float64(QOne) }

// Interpreter errors.
var (
	ErrStackUnderflow = errors.New("vm: stack underflow")
	ErrStackOverflow  = errors.New("vm: stack overflow")
	ErrBadAddress     = errors.New("vm: memory address out of range")
	ErrBadJump        = errors.New("vm: jump target out of range")
	ErrDivByZero      = errors.New("vm: division by zero")
	ErrGasExhausted   = errors.New("vm: gas exhausted")
	ErrHalted         = errors.New("vm: halted")
	ErrTruncated      = errors.New("vm: truncated instruction")
	ErrUnknownOp      = errors.New("vm: unknown opcode")
	ErrNoHost         = errors.New("vm: IN/OUT without host")
)

// Host provides the node-side environment: sensor inputs and actuator
// outputs addressed by port number.
type Host interface {
	In(port uint8) (int64, error)
	Out(port uint8, value int64) error
}

// ExtOp is a runtime-registered instruction.
type ExtOp struct {
	Name string
	Fn   func(*Interp) error
}

// Interp is one interpreter instance executing one program.
type Interp struct {
	code []byte
	pc   int
	// data and ret grow by append up to DefaultStackDepth values each.
	data []int64
	ret  []int64
	// mem is the DefaultMemWords-word memory. It is nil, and reads as
	// zeros, until the first nonzero write (SetMem, STORE or LoadState),
	// so a program that never stores carries none.
	mem    []int64
	host   Host
	ext    map[Op]ExtOp
	halted bool
}

// New creates an interpreter for the given code with default limits. It
// runs its own copy of the code. The stacks and memory are built on first
// use: the stacks grow as values are pushed, and the memory is allocated
// once, on the first nonzero write, so a program that never stores to
// memory costs no memory at all.
func New(code []byte, host Host) *Interp {
	return &Interp{code: append([]byte(nil), code...), host: host}
}

// Code returns the program the interpreter runs (New's copy or SwapCode's
// slice). Callers may keep and read it but must not modify it.
func (in *Interp) Code() []byte { return in.code }

// RegisterOp installs a runtime extension opcode (>= ExtBase). The
// extension table is made on the first call, so an interpreter without
// extensions carries none.
func (in *Interp) RegisterOp(code Op, name string, fn func(*Interp) error) error {
	if code < ExtBase {
		return fmt.Errorf("vm: extension opcode %#x below ExtBase", byte(code))
	}
	if _, dup := in.ext[code]; dup {
		return fmt.Errorf("vm: opcode %#x already registered", byte(code))
	}
	if in.ext == nil {
		in.ext = make(map[Op]ExtOp)
	}
	in.ext[code] = ExtOp{Name: name, Fn: fn}
	return nil
}

// Halted reports whether the program executed HALT.
func (in *Interp) Halted() bool { return in.halted }

// PC returns the current program counter.
func (in *Interp) PC() int { return in.pc }

// Depth returns the data-stack depth.
func (in *Interp) Depth() int { return len(in.data) }

// Push pushes a value onto the data stack (for host use and extensions).
func (in *Interp) Push(v int64) error {
	if len(in.data) >= DefaultStackDepth {
		return ErrStackOverflow
	}
	in.data = append(in.data, v)
	return nil
}

// Pop pops a value from the data stack.
func (in *Interp) Pop() (int64, error) {
	if len(in.data) == 0 {
		return 0, ErrStackUnderflow
	}
	v := in.data[len(in.data)-1]
	in.data = in.data[:len(in.data)-1]
	return v, nil
}

// Peek returns the top of stack without popping.
func (in *Interp) Peek() (int64, error) {
	if len(in.data) == 0 {
		return 0, ErrStackUnderflow
	}
	return in.data[len(in.data)-1], nil
}

// Mem returns the memory word at addr. An interpreter that has never
// stored a nonzero word reads zeros without allocating.
func (in *Interp) Mem(addr int) (int64, error) {
	if addr < 0 || addr >= DefaultMemWords {
		return 0, ErrBadAddress
	}
	if in.mem == nil {
		return 0, nil
	}
	return in.mem[addr], nil
}

// SetMem writes the memory word at addr. The memory is allocated once, on
// the first nonzero write; writing zero to a memory that is still all
// zeros allocates nothing.
func (in *Interp) SetMem(addr int, v int64) error {
	if addr < 0 || addr >= DefaultMemWords {
		return ErrBadAddress
	}
	if in.mem == nil {
		if v == 0 {
			return nil
		}
		in.mem = make([]int64, DefaultMemWords)
	}
	in.mem[addr] = v
	return nil
}

// Reset rewinds the program to the start, clearing stacks (memory is
// preserved — it is the task's persistent state across activations).
func (in *Interp) Reset() {
	in.pc = 0
	in.data = in.data[:0]
	in.ret = in.ret[:0]
	in.halted = false
}

// Run executes until HALT, gas exhaustion or an error. Each instruction
// costs one gas unit.
func (in *Interp) Run(gas int) error {
	if in.halted {
		return ErrHalted
	}
	for g := 0; g < gas; g++ {
		if in.pc >= len(in.code) {
			in.halted = true
			return nil
		}
		if err := in.step(); err != nil {
			return err
		}
		if in.halted {
			return nil
		}
	}
	return ErrGasExhausted
}

func (in *Interp) fetch8() (byte, error) {
	if in.pc >= len(in.code) {
		return 0, ErrTruncated
	}
	b := in.code[in.pc]
	in.pc++
	return b, nil
}

func (in *Interp) fetch16() (int, error) {
	hi, err := in.fetch8()
	if err != nil {
		return 0, err
	}
	lo, err := in.fetch8()
	if err != nil {
		return 0, err
	}
	return int(hi)<<8 | int(lo), nil
}

func (in *Interp) binop(fn func(a, b int64) (int64, error)) error {
	b, err := in.Pop()
	if err != nil {
		return err
	}
	a, err := in.Pop()
	if err != nil {
		return err
	}
	v, err := fn(a, b)
	if err != nil {
		return err
	}
	return in.Push(v)
}

func (in *Interp) step() error {
	op8, err := in.fetch8()
	if err != nil {
		return err
	}
	op := Op(op8)
	if op >= ExtBase {
		ext, ok := in.ext[op]
		if !ok {
			return fmt.Errorf("%w: %#x", ErrUnknownOp, op8)
		}
		return ext.Fn(in)
	}
	switch op {
	case OpNop:
		return nil
	case OpHalt:
		in.halted = true
		return nil
	case OpPush8:
		b, err := in.fetch8()
		if err != nil {
			return err
		}
		return in.Push(int64(int8(b)))
	case OpPush64:
		var v uint64
		for i := 0; i < 8; i++ {
			b, err := in.fetch8()
			if err != nil {
				return err
			}
			v = v<<8 | uint64(b)
		}
		return in.Push(int64(v))
	case OpDup:
		v, err := in.Peek()
		if err != nil {
			return err
		}
		return in.Push(v)
	case OpDrop:
		_, err := in.Pop()
		return err
	case OpSwap:
		b, err := in.Pop()
		if err != nil {
			return err
		}
		a, err := in.Pop()
		if err != nil {
			return err
		}
		if err := in.Push(b); err != nil {
			return err
		}
		return in.Push(a)
	case OpOver:
		if len(in.data) < 2 {
			return ErrStackUnderflow
		}
		return in.Push(in.data[len(in.data)-2])
	case OpRot: // ( a b c -- b c a )
		if len(in.data) < 3 {
			return ErrStackUnderflow
		}
		n := len(in.data)
		a := in.data[n-3]
		copy(in.data[n-3:], in.data[n-2:])
		in.data[n-1] = a
		return nil
	case OpAdd:
		return in.binop(func(a, b int64) (int64, error) { return a + b, nil })
	case OpSub:
		return in.binop(func(a, b int64) (int64, error) { return a - b, nil })
	case OpMul:
		return in.binop(func(a, b int64) (int64, error) { return a * b, nil })
	case OpDiv:
		return in.binop(func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, ErrDivByZero
			}
			return a / b, nil
		})
	case OpMod:
		return in.binop(func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, ErrDivByZero
			}
			return a % b, nil
		})
	case OpNeg:
		v, err := in.Pop()
		if err != nil {
			return err
		}
		return in.Push(-v)
	case OpAbs:
		v, err := in.Pop()
		if err != nil {
			return err
		}
		if v < 0 {
			v = -v
		}
		return in.Push(v)
	case OpMin:
		return in.binop(func(a, b int64) (int64, error) {
			if a < b {
				return a, nil
			}
			return b, nil
		})
	case OpMax:
		return in.binop(func(a, b int64) (int64, error) {
			if a > b {
				return a, nil
			}
			return b, nil
		})
	case OpEq:
		return in.binop(func(a, b int64) (int64, error) { return b2i(a == b), nil })
	case OpLt:
		return in.binop(func(a, b int64) (int64, error) { return b2i(a < b), nil })
	case OpGt:
		return in.binop(func(a, b int64) (int64, error) { return b2i(a > b), nil })
	case OpAnd:
		return in.binop(func(a, b int64) (int64, error) { return b2i(a != 0 && b != 0), nil })
	case OpOr:
		return in.binop(func(a, b int64) (int64, error) { return b2i(a != 0 || b != 0), nil })
	case OpNot:
		v, err := in.Pop()
		if err != nil {
			return err
		}
		return in.Push(b2i(v == 0))
	case OpLoad:
		addr, err := in.Pop()
		if err != nil {
			return err
		}
		v, err := in.Mem(int(addr))
		if err != nil {
			return err
		}
		return in.Push(v)
	case OpStore:
		addr, err := in.Pop()
		if err != nil {
			return err
		}
		v, err := in.Pop()
		if err != nil {
			return err
		}
		return in.SetMem(int(addr), v)
	case OpJmp:
		tgt, err := in.fetch16()
		if err != nil {
			return err
		}
		return in.jump(tgt)
	case OpJz:
		tgt, err := in.fetch16()
		if err != nil {
			return err
		}
		v, err := in.Pop()
		if err != nil {
			return err
		}
		if v == 0 {
			return in.jump(tgt)
		}
		return nil
	case OpCall:
		tgt, err := in.fetch16()
		if err != nil {
			return err
		}
		if len(in.ret) >= DefaultStackDepth {
			return ErrStackOverflow
		}
		in.ret = append(in.ret, int64(in.pc))
		return in.jump(tgt)
	case OpRet:
		if len(in.ret) == 0 {
			return ErrStackUnderflow
		}
		tgt := in.ret[len(in.ret)-1]
		in.ret = in.ret[:len(in.ret)-1]
		return in.jump(int(tgt))
	case OpIn:
		port, err := in.fetch8()
		if err != nil {
			return err
		}
		if in.host == nil {
			return ErrNoHost
		}
		v, err := in.host.In(port)
		if err != nil {
			return err
		}
		return in.Push(v)
	case OpOut:
		port, err := in.fetch8()
		if err != nil {
			return err
		}
		v, err := in.Pop()
		if err != nil {
			return err
		}
		if in.host == nil {
			return ErrNoHost
		}
		return in.host.Out(port, v)
	case OpMulQ:
		return in.binop(func(a, b int64) (int64, error) { return a * b / QOne, nil })
	case OpDivQ:
		return in.binop(func(a, b int64) (int64, error) {
			if b == 0 {
				return 0, ErrDivByZero
			}
			return a * QOne / b, nil
		})
	default:
		return fmt.Errorf("%w: %#x", ErrUnknownOp, op8)
	}
}

func (in *Interp) jump(tgt int) error {
	if tgt < 0 || tgt > len(in.code) {
		return ErrBadJump
	}
	in.pc = tgt
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
