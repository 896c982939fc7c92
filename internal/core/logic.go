package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"evm/internal/control"
	"evm/internal/vm"
)

// TaskLogic is the executable body of a control task. Its mutable state
// moves only as bytes, so the EVM can migrate a running task between
// nodes, let a backup resume from replicated state and checkpoint it for
// cross-cell transfer. The buffers belong to the caller:
//
//   - AppendSnapshot appends the encoded state to dst and returns the
//     extended slice, like the append built-in. A caller that keeps a
//     buffer and passes buf[:0] each time snapshots without allocating.
//   - Restore borrows b for the call only: the caller may overwrite b
//     once Restore returns, so an implementation copies what it keeps.
//     On error it should leave the task's state as it was.
type TaskLogic interface {
	// Step consumes one sensor sample and produces the actuator command.
	Step(input, dt float64) (float64, error)
	// AppendSnapshot appends the task's mutable state to dst.
	AppendSnapshot(dst []byte) ([]byte, error)
	// Restore loads state produced by AppendSnapshot.
	Restore(b []byte) error
}

// --- PID logic ---------------------------------------------------------------

// PIDLogic is the paper's LTS controller: second-order filtering followed
// by a PID regulator (§4.2).
type PIDLogic struct {
	ctl      *control.FilteredPID
	Setpoint float64
}

var _ TaskLogic = (*PIDLogic)(nil)

// PIDParams configures PIDLogic.
type PIDParams struct {
	Kp, Ki, Kd       float64
	OutMin, OutMax   float64
	Setpoint         float64
	CutoffHz, RateHz float64
	// Reverse selects reverse control action (output grows when the
	// measurement exceeds the setpoint — the LTS level valve).
	Reverse bool
}

// NewPIDLogic builds the composite controller.
func NewPIDLogic(p PIDParams) (*PIDLogic, error) {
	ctl, err := control.NewFilteredPID(p.Kp, p.Ki, p.Kd, p.OutMin, p.OutMax, p.CutoffHz, p.RateHz)
	if err != nil {
		return nil, err
	}
	ctl.PID.Reverse = p.Reverse
	return &PIDLogic{ctl: ctl, Setpoint: p.Setpoint}, nil
}

// Step implements TaskLogic.
func (l *PIDLogic) Step(input, dt float64) (float64, error) {
	return l.ctl.Update(l.Setpoint, input, dt), nil
}

const pidStateLen = 8 * 8

// AppendSnapshot implements TaskLogic: eight big-endian float64s.
func (l *PIDLogic) AppendSnapshot(dst []byte) ([]byte, error) {
	integ, prevErr, primed := l.ctl.PID.State()
	fs := l.ctl.Filter.State()
	dst = slices.Grow(dst, pidStateLen)
	for _, v := range [...]float64{l.Setpoint, integ, prevErr, b2f(primed), fs[0], fs[1], fs[2], fs[3]} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// Restore implements TaskLogic.
func (l *PIDLogic) Restore(b []byte) error {
	if len(b) != pidStateLen {
		return fmt.Errorf("core: pid state of %d bytes, want %d", len(b), pidStateLen)
	}
	var vals [8]float64
	for i := range vals {
		vals[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
	}
	l.Setpoint = vals[0]
	l.ctl.PID.SetState(vals[1], vals[2], vals[3] != 0)
	l.ctl.Filter.SetState([4]float64{vals[4], vals[5], vals[6], vals[7]})
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// --- VM logic ----------------------------------------------------------------

// VM port conventions for control capsules: the interpreter reads the
// sensor sample (Q16.16) from port 0 and the cycle time in milliseconds
// from port 1, and writes its actuator command (Q16.16) to port 0.
const (
	VMPortInput  uint8 = 0
	VMPortDTms   uint8 = 1
	VMPortOutput uint8 = 0
)

// vmHost adapts the per-step I/O to the vm.Host interface.
type vmHost struct {
	input  int64
	dtMS   int64
	output int64
	hasOut bool
}

func (h *vmHost) In(port uint8) (int64, error) {
	switch port {
	case VMPortInput:
		return h.input, nil
	case VMPortDTms:
		return h.dtMS, nil
	default:
		return 0, fmt.Errorf("core: vm read from unknown port %d", port)
	}
}

func (h *vmHost) Out(port uint8, v int64) error {
	if port != VMPortOutput {
		return fmt.Errorf("core: vm write to unknown port %d", port)
	}
	h.output = v
	h.hasOut = true
	return nil
}

// VMLogic runs a control law expressed as EVM byte code. Each Step resets
// the program (memory persists across cycles — it is the controller
// state) and runs it to completion under a gas bound.
type VMLogic struct {
	// code is the capsule the interpreter runs: own, or a staged capsule
	// ActivateStaged swapped in.
	code   *VerifiedCapsule
	own    VerifiedCapsule
	interp *vm.Interp
	host   vmHost
}

var _ TaskLogic = (*VMLogic)(nil)

// NewVMLogic instantiates the capsule after attestation-style re-encoding
// checks (the capsule is assumed already attested by the migration path).
// The logic keeps the encoding, which checkpoints and migrations ship, and
// its interpreter runs the code inside it: one copy of the program. Each
// Step runs under vm.DefaultGas.
func NewVMLogic(c vm.Capsule) (*VMLogic, error) {
	if len(c.Code) == 0 {
		return nil, errors.New("core: empty capsule")
	}
	enc, err := c.Encode()
	if err != nil {
		return nil, err
	}
	// The encoding ends with the code and its 8-byte checksum.
	c.Code = enc[len(enc)-8-len(c.Code) : len(enc)-8]
	l := &VMLogic{own: VerifiedCapsule{Capsule: c, Encoded: enc}}
	l.interp = vm.New(nil, &l.host)
	l.swap(&l.own)
	return l, nil
}

// swap makes c the capsule the logic runs, keeping the interpreter's
// state when its pc lies in c's code and starting fresh otherwise.
func (l *VMLogic) swap(c *VerifiedCapsule) {
	_ = l.interp.SwapCode(c.Code)
	l.code = c
}

// Step implements TaskLogic.
func (l *VMLogic) Step(input, dt float64) (float64, error) {
	l.host.input = vm.ToQ(input)
	l.host.dtMS = int64(dt * 1000)
	l.host.hasOut = false
	l.interp.Reset()
	if err := l.interp.Run(vm.DefaultGas); err != nil {
		return 0, fmt.Errorf("capsule %s: %w", l.code.TaskID, err)
	}
	if !l.host.hasOut {
		return 0, fmt.Errorf("core: capsule %s produced no output", l.code.TaskID)
	}
	return vm.FromQ(l.host.output), nil
}

// AppendSnapshot implements TaskLogic: the interpreter's state as
// vm.Interp.AppendState encodes it.
func (l *VMLogic) AppendSnapshot(dst []byte) ([]byte, error) {
	return l.interp.AppendState(dst), nil
}

// Restore implements TaskLogic.
func (l *VMLogic) Restore(b []byte) error { return l.interp.LoadState(b) }
