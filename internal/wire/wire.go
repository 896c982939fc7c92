// Package wire defines the EVM's on-air message formats: the control,
// data and fault communication exchanged inside a Virtual Component
// (paper §3.1: "The EVM architecture defines explicit mechanisms for
// control, data and fault communication within the virtual component").
//
// Encodings are hand-rolled fixed binary layouts so every message fits a
// single RT-Link slot payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"evm/internal/rtlink"
)

// Message kinds carried over RT-Link.
const (
	KindSensor      rtlink.Kind = 10 // gateway -> all: sensor snapshot
	KindActuate     rtlink.Kind = 11 // active controller -> gateway
	KindHealth      rtlink.Kind = 12 // all -> all: health assessment
	KindFaultReport rtlink.Kind = 13 // backup -> VC head
	KindRoleChange  rtlink.Kind = 14 // head -> member
	KindCapsule     rtlink.Kind = 15 // code migration
	KindState       rtlink.Kind = 16 // task state migration
	KindJoin        rtlink.Kind = 17 // new node -> head
	KindModeChange  rtlink.Kind = 19 // head -> all: planned mode switch
	KindMigrateCmd  rtlink.Kind = 20 // head -> holder: ship task to dest
	KindStateSync   rtlink.Kind = 21 // primary -> backups: active state replication
)

// ErrTruncated is returned when a payload is shorter than its layout.
var ErrTruncated = errors.New("wire: truncated message")

// Role is a controller's role for one task (paper Fig. 6: Active, Backup,
// Dormant; Indicator is the passive display mode the demoted primary
// enters).
type Role uint8

// Roles.
const (
	RoleDormant Role = iota + 1
	RoleBackup
	RoleActive
	RoleIndicator
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleDormant:
		return "dormant"
	case RoleBackup:
		return "backup"
	case RoleActive:
		return "active"
	case RoleIndicator:
		return "indicator"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// FaultReason classifies a detected fault.
type FaultReason uint8

// Fault reasons.
const (
	FaultOutputDeviation FaultReason = iota + 1 // primary output diverges
	FaultSilent                                 // no health heard
	FaultEnergy                                 // battery below threshold
)

// String implements fmt.Stringer.
func (f FaultReason) String() string {
	switch f {
	case FaultOutputDeviation:
		return "output-deviation"
	case FaultSilent:
		return "silent"
	case FaultEnergy:
		return "energy"
	default:
		return fmt.Sprintf("fault(%d)", uint8(f))
	}
}

// --- primitive helpers -----------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)  { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) str(s string) error {
	if len(s) > 255 {
		return fmt.Errorf("wire: string %q too long", s)
	}
	w.u8(uint8(len(s)))
	w.buf = append(w.buf, s...)
	return nil
}

type reader struct {
	buf []byte
	off int
	ids Interner // nil: every decoded string is a fresh allocation
}

func (r *reader) u8() (uint8, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// blob reads a u32-length-prefixed byte slice (copied out of the frame).
func (r *reader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+int(n) > len(r.buf) {
		return nil, ErrTruncated
	}
	b := append([]byte(nil), r.buf[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) {
		return "", ErrTruncated
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	if r.ids != nil {
		return r.ids.Intern(b), nil
	}
	return string(b), nil
}

// An Interner returns a string equal to b, preferably one the caller
// already holds. A receiver decodes the same few task IDs every control
// cycle; decoding through an Interner reuses its canonical strings instead
// of allocating one per message.
type Interner interface {
	Intern(b []byte) string
}

// IDs interns against a fixed set of strings; bytes outside the set get a
// fresh string.
type IDs []string

// Intern implements Interner.
func (ids IDs) Intern(b []byte) string {
	for _, id := range ids {
		if id == string(b) {
			return id
		}
	}
	return string(b)
}

// --- sensor snapshot ---------------------------------------------------------

// SensorReading is one sensor port sample.
type SensorReading struct {
	Port  uint8
	Value float64
}

// SensorSnapshot is a timestamped set of readings. The timestamp (global
// virtual time at sampling) lets consumers enforce temporal-conditional
// transfers: data older than the relation's MaxAge is discarded.
type SensorSnapshot struct {
	At       time.Duration
	Readings []SensorReading
}

// Encode packs the snapshot.
func (s SensorSnapshot) Encode() ([]byte, error) { return s.AppendTo(nil) }

// AppendTo appends the packed snapshot to dst, so a sender that keeps one
// buffer encodes every cycle without allocating. On error it returns dst
// unchanged.
func (s SensorSnapshot) AppendTo(dst []byte) ([]byte, error) {
	if len(s.Readings) > 255 {
		return dst, fmt.Errorf("wire: %d readings exceed 255", len(s.Readings))
	}
	w := writer{buf: dst}
	w.u64(uint64(s.At))
	w.u8(uint8(len(s.Readings)))
	for _, rd := range s.Readings {
		w.u8(rd.Port)
		w.f64(rd.Value)
	}
	return w.buf, nil
}

// DecodeSnapshot unpacks a sensor snapshot.
func DecodeSnapshot(b []byte) (SensorSnapshot, error) {
	var s SensorSnapshot
	err := DecodeSnapshotInto(b, &s)
	return s, err
}

// DecodeSnapshotInto unpacks a snapshot into s, reusing the storage of
// s.Readings, so a receiver that keeps one SensorSnapshot decodes every
// cycle without allocating. On error s holds what was decoded so far.
func DecodeSnapshotInto(b []byte, s *SensorSnapshot) error {
	r := reader{buf: b}
	*s = SensorSnapshot{Readings: s.Readings[:0]}
	at, err := r.u64()
	if err != nil {
		return err
	}
	s.At = time.Duration(at)
	n, err := r.u8()
	if err != nil {
		return err
	}
	if s.Readings == nil {
		s.Readings = make([]SensorReading, 0, n)
	}
	for i := 0; i < int(n); i++ {
		port, err := r.u8()
		if err != nil {
			return err
		}
		v, err := r.f64()
		if err != nil {
			return err
		}
		s.Readings = append(s.Readings, SensorReading{Port: port, Value: v})
	}
	return nil
}

// DecodeSensors unpacks just the readings of a snapshot.
func DecodeSensors(b []byte) ([]SensorReading, error) {
	s, err := DecodeSnapshot(b)
	if err != nil {
		return nil, err
	}
	return s.Readings, nil
}

// --- actuation ---------------------------------------------------------------

// Actuate commands an actuator port.
type Actuate struct {
	Port  uint8
	Value float64
	// TaskID names the control task issuing the command (lets the
	// gateway reject commands from non-active controllers).
	TaskID string
	Seq    uint32
}

// Encode packs the command.
func (a Actuate) Encode() ([]byte, error) { return a.AppendTo(nil) }

// AppendTo appends the packed command to dst. On error it returns dst
// unchanged.
func (a Actuate) AppendTo(dst []byte) ([]byte, error) {
	w := writer{buf: dst}
	w.u8(a.Port)
	w.f64(a.Value)
	w.u32(a.Seq)
	if err := w.str(a.TaskID); err != nil {
		return dst, err
	}
	return w.buf, nil
}

// DecodeActuate unpacks an actuation command.
func DecodeActuate(b []byte) (Actuate, error) { return DecodeActuateInterned(b, nil) }

// DecodeActuateInterned unpacks an actuation command, taking its task ID
// from ids.
func DecodeActuateInterned(b []byte, ids Interner) (Actuate, error) {
	r := reader{buf: b, ids: ids}
	var a Actuate
	var err error
	if a.Port, err = r.u8(); err != nil {
		return a, err
	}
	if a.Value, err = r.f64(); err != nil {
		return a, err
	}
	if a.Seq, err = r.u32(); err != nil {
		return a, err
	}
	if a.TaskID, err = r.str(); err != nil {
		return a, err
	}
	return a, nil
}

// --- health assessment ---------------------------------------------------------

// HealthBundle aggregates all of one node's per-task health records into
// a single frame so a node's per-cycle traffic stays within its slot
// budget regardless of how many tasks it holds.
type HealthBundle struct {
	Node    uint16
	Battery float64
	Records []HealthRecord
}

// HealthRecord is one task's entry in a bundle.
type HealthRecord struct {
	TaskID string
	Role   Role
	Seq    uint32
	Output float64
	HasOut bool
}

// Encode packs the bundle.
func (hb HealthBundle) Encode() ([]byte, error) { return hb.AppendTo(nil) }

// AppendTo appends the packed bundle to dst. On error it returns dst
// unchanged.
func (hb HealthBundle) AppendTo(dst []byte) ([]byte, error) {
	if len(hb.Records) > 255 {
		return dst, fmt.Errorf("wire: %d health records exceed 255", len(hb.Records))
	}
	w := writer{buf: dst}
	w.u16(hb.Node)
	w.f64(hb.Battery)
	w.u8(uint8(len(hb.Records)))
	for _, rec := range hb.Records {
		w.u8(uint8(rec.Role))
		w.u32(rec.Seq)
		if rec.HasOut {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.f64(rec.Output)
		if err := w.str(rec.TaskID); err != nil {
			return dst, err
		}
	}
	return w.buf, nil
}

// DecodeHealthBundle unpacks a bundle.
func DecodeHealthBundle(b []byte) (HealthBundle, error) {
	var hb HealthBundle
	err := DecodeHealthBundleInto(b, &hb, nil)
	return hb, err
}

// HealthBundleSender returns the sender field of an encoded bundle, its
// first two bytes, without decoding the rest, so a receiver can drop a
// bundle it has no use for before paying for its records.
func HealthBundleSender(b []byte) (uint16, error) {
	r := reader{buf: b}
	return r.u16()
}

// DecodeHealthBundleInto unpacks a bundle into hb, reusing the storage of
// hb.Records and taking task IDs from ids, so a receiver that keeps one
// HealthBundle decodes every cycle without allocating. On error hb holds
// what was decoded so far.
func DecodeHealthBundleInto(b []byte, hb *HealthBundle, ids Interner) error {
	r := reader{buf: b, ids: ids}
	*hb = HealthBundle{Records: hb.Records[:0]}
	var err error
	if hb.Node, err = r.u16(); err != nil {
		return err
	}
	if hb.Battery, err = r.f64(); err != nil {
		return err
	}
	n, err := r.u8()
	if err != nil {
		return err
	}
	if hb.Records == nil {
		hb.Records = make([]HealthRecord, 0, n)
	}
	for i := 0; i < int(n); i++ {
		var rec HealthRecord
		role, err := r.u8()
		if err != nil {
			return err
		}
		rec.Role = Role(role)
		if rec.Seq, err = r.u32(); err != nil {
			return err
		}
		hasOut, err := r.u8()
		if err != nil {
			return err
		}
		rec.HasOut = hasOut == 1
		if rec.Output, err = r.f64(); err != nil {
			return err
		}
		if rec.TaskID, err = r.str(); err != nil {
			return err
		}
		hb.Records = append(hb.Records, rec)
	}
	return nil
}

// --- fault report ---------------------------------------------------------------

// FaultReport is sent by a backup to the VC head when it determines the
// primary's outputs are inappropriate (paper §4.2).
type FaultReport struct {
	Reporter  uint16
	Suspect   uint16
	TaskID    string
	Reason    FaultReason
	Deviation float64
	Cycles    uint16 // consecutive deviating cycles observed
}

// Encode packs the report.
func (f FaultReport) Encode() ([]byte, error) {
	var w writer
	w.u16(f.Reporter)
	w.u16(f.Suspect)
	w.u8(uint8(f.Reason))
	w.f64(f.Deviation)
	w.u16(f.Cycles)
	if err := w.str(f.TaskID); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// DecodeFaultReport unpacks a report.
func DecodeFaultReport(b []byte) (FaultReport, error) {
	r := reader{buf: b}
	var f FaultReport
	var err error
	if f.Reporter, err = r.u16(); err != nil {
		return f, err
	}
	if f.Suspect, err = r.u16(); err != nil {
		return f, err
	}
	reason, err := r.u8()
	if err != nil {
		return f, err
	}
	f.Reason = FaultReason(reason)
	if f.Deviation, err = r.f64(); err != nil {
		return f, err
	}
	if f.Cycles, err = r.u16(); err != nil {
		return f, err
	}
	if f.TaskID, err = r.str(); err != nil {
		return f, err
	}
	return f, nil
}

// --- role change ---------------------------------------------------------------

// RoleChange is the head's arbitration decision: node takes the given
// role for the task.
type RoleChange struct {
	Node   uint16
	TaskID string
	Role   Role
	Seq    uint32
}

// Encode packs the role change.
func (rc RoleChange) Encode() ([]byte, error) {
	var w writer
	w.u16(rc.Node)
	w.u8(uint8(rc.Role))
	w.u32(rc.Seq)
	if err := w.str(rc.TaskID); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// DecodeRoleChange unpacks a role change.
func DecodeRoleChange(b []byte) (RoleChange, error) { return DecodeRoleChangeInterned(b, nil) }

// DecodeRoleChangeInterned unpacks a role change, taking its task ID from ids.
func DecodeRoleChangeInterned(b []byte, ids Interner) (RoleChange, error) {
	r := reader{buf: b, ids: ids}
	var rc RoleChange
	var err error
	if rc.Node, err = r.u16(); err != nil {
		return rc, err
	}
	role, err := r.u8()
	if err != nil {
		return rc, err
	}
	rc.Role = Role(role)
	if rc.Seq, err = r.u32(); err != nil {
		return rc, err
	}
	if rc.TaskID, err = r.str(); err != nil {
		return rc, err
	}
	return rc, nil
}

// --- migration ---------------------------------------------------------------

// StateXfer carries a task's serialized execution state (TCB, stacks,
// data and timing metadata) to the node taking the task over.
type StateXfer struct {
	TaskID string
	Seq    uint32
	Blob   []byte
}

// Encode packs the transfer.
func (sx StateXfer) Encode() ([]byte, error) {
	var w writer
	w.u32(sx.Seq)
	if err := w.str(sx.TaskID); err != nil {
		return nil, err
	}
	w.u32(uint32(len(sx.Blob)))
	w.buf = append(w.buf, sx.Blob...)
	return w.buf, nil
}

// DecodeStateXfer unpacks a transfer.
func DecodeStateXfer(b []byte) (StateXfer, error) {
	r := reader{buf: b}
	var sx StateXfer
	var err error
	if sx.Seq, err = r.u32(); err != nil {
		return sx, err
	}
	if sx.TaskID, err = r.str(); err != nil {
		return sx, err
	}
	sx.Blob, err = r.blob()
	return sx, err
}

// --- membership ---------------------------------------------------------------

// Join announces a new node to the VC head with its spare capacity.
type Join struct {
	Node        uint16
	CPUCapacity float64 // spare utilization [0,1]
	Battery     float64 // remaining fraction [0,1]
}

// Encode packs the join request.
func (j Join) Encode() ([]byte, error) {
	var w writer
	w.u16(j.Node)
	w.f64(j.CPUCapacity)
	w.f64(j.Battery)
	return w.buf, nil
}

// DecodeJoin unpacks a join request.
func DecodeJoin(b []byte) (Join, error) {
	r := reader{buf: b}
	var j Join
	var err error
	if j.Node, err = r.u16(); err != nil {
		return j, err
	}
	if j.CPUCapacity, err = r.f64(); err != nil {
		return j, err
	}
	if j.Battery, err = r.f64(); err != nil {
		return j, err
	}
	return j, nil
}

// MigrateCmd instructs the current holder of a task to transfer its code
// and state to another node (paper §3.1.1 op 1: task migration).
type MigrateCmd struct {
	TaskID string
	Dest   uint16
	// WithCapsule requests code transfer ahead of the state.
	WithCapsule bool
}

// Encode packs the command.
func (mc MigrateCmd) Encode() ([]byte, error) {
	var w writer
	w.u16(mc.Dest)
	if mc.WithCapsule {
		w.u8(1)
	} else {
		w.u8(0)
	}
	if err := w.str(mc.TaskID); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// DecodeMigrateCmd unpacks the command.
func DecodeMigrateCmd(b []byte) (MigrateCmd, error) {
	r := reader{buf: b}
	var mc MigrateCmd
	var err error
	if mc.Dest, err = r.u16(); err != nil {
		return mc, err
	}
	wc, err := r.u8()
	if err != nil {
		return mc, err
	}
	mc.WithCapsule = wc == 1
	if mc.TaskID, err = r.str(); err != nil {
		return mc, err
	}
	return mc, nil
}

// ModeChange schedules a synchronized task-set switch at a future TDMA
// frame (planned reconfiguration, §1.1 item 4).
type ModeChange struct {
	Mode    uint8
	AtFrame uint64
}

// Encode packs the mode change.
func (mc ModeChange) Encode() ([]byte, error) {
	var w writer
	w.u8(mc.Mode)
	w.u64(mc.AtFrame)
	return w.buf, nil
}

// DecodeModeChange unpacks a mode change.
func DecodeModeChange(b []byte) (ModeChange, error) {
	r := reader{buf: b}
	var mc ModeChange
	var err error
	if mc.Mode, err = r.u8(); err != nil {
		return mc, err
	}
	if mc.AtFrame, err = r.u64(); err != nil {
		return mc, err
	}
	return mc, nil
}

// --- federation: cross-cell task transfer -------------------------------------

// Rebalance handshake phases. The federation coordinator rehomes a
// foreign task with a two-leg prepare/commit exchange over the backbone:
// the prepare leg ships the checkpoint from the hosting cell to the
// recovered origin (which restores it into an inactive home replica),
// and the commit leg travels back to the hosting cell, whose delivery
// retires the foreign master before the home replica activates. A lost
// leg aborts the handshake and the foreign master keeps actuating.
const (
	RebalancePrepare uint8 = iota + 1
	RebalanceCommit
)

// RebalanceMsg is one leg of the prepare/commit rebalance handshake.
// Prepare carries the encoded TaskExport; Commit carries only the ID.
type RebalanceMsg struct {
	Phase  uint8
	TaskID string
	Export []byte
}

// Encode packs the handshake leg.
func (m RebalanceMsg) Encode() ([]byte, error) {
	if m.Phase != RebalancePrepare && m.Phase != RebalanceCommit {
		return nil, fmt.Errorf("wire: rebalance phase %d", m.Phase)
	}
	var w writer
	w.u8(m.Phase)
	if err := w.str(m.TaskID); err != nil {
		return nil, err
	}
	w.u32(uint32(len(m.Export)))
	w.buf = append(w.buf, m.Export...)
	return w.buf, nil
}

// DecodeRebalanceMsg unpacks a handshake leg.
func DecodeRebalanceMsg(b []byte) (RebalanceMsg, error) {
	r := reader{buf: b}
	var m RebalanceMsg
	var err error
	if m.Phase, err = r.u8(); err != nil {
		return m, err
	}
	if m.Phase != RebalancePrepare && m.Phase != RebalanceCommit {
		return m, fmt.Errorf("wire: rebalance phase %d", m.Phase)
	}
	if m.TaskID, err = r.str(); err != nil {
		return m, err
	}
	if m.Export, err = r.blob(); err != nil {
		return m, err
	}
	return m, nil
}

// Capsule rollout phases. An over-the-air rollout upgrades every replica
// of a task through a two-leg prepare/commit exchange (the same pattern
// as the rebalance handshake): the prepare leg carries the encoded
// capsule to the hosting cell, whose replicas attest and stage it
// without activating; the commit leg, sent once every cell of the
// rollout stage is staged, swaps all of a cell's replicas to the new
// version at one instant — so a task's master and backups never run
// mixed versions past the commit point.
const (
	CapsulePrepare uint8 = iota + 1
	CapsuleCommit
)

// CapsuleMsg is one leg of the capsule rollout handshake on the campus
// backbone. Prepare carries the encoded vm.Capsule; Commit carries only
// the task and version.
type CapsuleMsg struct {
	Phase   uint8
	TaskID  string
	Version uint8
	Capsule []byte
}

// Encode packs the rollout leg.
func (m CapsuleMsg) Encode() ([]byte, error) {
	if m.Phase != CapsulePrepare && m.Phase != CapsuleCommit {
		return nil, fmt.Errorf("wire: capsule phase %d", m.Phase)
	}
	var w writer
	w.u8(m.Phase)
	w.u8(m.Version)
	if err := w.str(m.TaskID); err != nil {
		return nil, err
	}
	w.u32(uint32(len(m.Capsule)))
	w.buf = append(w.buf, m.Capsule...)
	return w.buf, nil
}

// DecodeCapsuleMsg unpacks a rollout leg.
func DecodeCapsuleMsg(b []byte) (CapsuleMsg, error) {
	r := reader{buf: b}
	var m CapsuleMsg
	var err error
	if m.Phase, err = r.u8(); err != nil {
		return m, err
	}
	if m.Phase != CapsulePrepare && m.Phase != CapsuleCommit {
		return m, fmt.Errorf("wire: capsule phase %d", m.Phase)
	}
	if m.Version, err = r.u8(); err != nil {
		return m, err
	}
	if m.TaskID, err = r.str(); err != nil {
		return m, err
	}
	if m.Capsule, err = r.blob(); err != nil {
		return m, err
	}
	return m, nil
}

// TaskExport is the cross-cell capsule: everything a peer cell needs to
// resume a control task after its home cell exhausted local migration
// candidates — the latest state snapshot, the output sequence number and,
// for byte-code tasks, the attested code capsule. TaskExports travel on
// the federation backbone (gateway-to-gateway), not in RT-Link slots.
type TaskExport struct {
	TaskID string
	Seq    uint32
	// Blob is the serialized task state (TaskLogic.AppendSnapshot).
	Blob []byte
	// Capsule is the encoded vm.Capsule for byte-code tasks; empty for
	// tasks re-instantiated from the campus spec catalog.
	Capsule []byte
}

// Encode packs the export.
func (e TaskExport) Encode() ([]byte, error) {
	var w writer
	w.u32(e.Seq)
	if err := w.str(e.TaskID); err != nil {
		return nil, err
	}
	w.u32(uint32(len(e.Blob)))
	w.buf = append(w.buf, e.Blob...)
	w.u32(uint32(len(e.Capsule)))
	w.buf = append(w.buf, e.Capsule...)
	return w.buf, nil
}

// DecodeTaskExport unpacks an export.
func DecodeTaskExport(b []byte) (TaskExport, error) {
	r := reader{buf: b}
	var e TaskExport
	var err error
	if e.Seq, err = r.u32(); err != nil {
		return e, err
	}
	if e.TaskID, err = r.str(); err != nil {
		return e, err
	}
	if e.Blob, err = r.blob(); err != nil {
		return e, err
	}
	if e.Capsule, err = r.blob(); err != nil {
		return e, err
	}
	return e, nil
}
