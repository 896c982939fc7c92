package wire

import (
	"bytes"
	"testing"
	"time"
)

// encoder is any message type with an Encode method.
type encoder interface{ Encode() ([]byte, error) }

// reencoder decodes b as one message type and encodes the result again;
// ok is false when b does not decode or the decoded value does not
// encode.
type reencoder func(b []byte) (out []byte, ok bool)

func reencode[T encoder](decode func([]byte) (T, error)) reencoder {
	return func(b []byte) ([]byte, bool) {
		m, err := decode(b)
		if err != nil {
			return nil, false
		}
		out, err := m.Encode()
		return out, err == nil
	}
}

// codecs lists every decoder whose type has an Encode method.
var codecs = []struct {
	name string
	rt   reencoder
}{
	{"snapshot", reencode(func(b []byte) (SensorSnapshot, error) {
		var s SensorSnapshot
		err := DecodeSnapshotInto(b, &s)
		return s, err
	})},
	{"actuate", reencode(func(b []byte) (Actuate, error) { return DecodeActuateInterned(b, nil) })},
	{"bundle", reencode(func(b []byte) (HealthBundle, error) {
		var hb HealthBundle
		err := DecodeHealthBundleInto(b, &hb, nil)
		return hb, err
	})},
	{"fault-report", reencode(DecodeFaultReport)},
	{"role-change", reencode(func(b []byte) (RoleChange, error) { return DecodeRoleChangeInterned(b, nil) })},
	{"state-xfer", reencode(DecodeStateXfer)},
	{"join", reencode(DecodeJoin)},
	{"migrate-cmd", reencode(DecodeMigrateCmd)},
	{"mode-change", reencode(DecodeModeChange)},
	{"rebalance", reencode(DecodeRebalanceMsg)},
	{"capsule", reencode(DecodeCapsuleMsg)},
	{"task-export", reencode(DecodeTaskExport)},
}

// fuzzSeeds are the round-trip fixtures of the codec tests, one or more
// per message type.
func fuzzSeeds() []encoder {
	ex := TaskExport{TaskID: "loop", Seq: 7, Blob: []byte{1, 2, 3}}
	exBytes, _ := ex.Encode()
	return []encoder{
		SensorSnapshot{Readings: []SensorReading{{Port: 0, Value: 50.25}, {Port: 3, Value: -12.5}}},
		SensorSnapshot{At: 42 * time.Second, Readings: []SensorReading{{Port: 5, Value: -19.5}}},
		Actuate{Port: 2, Value: 11.48, TaskID: "lts-level", Seq: 99},
		HealthBundle{Node: 7, Battery: 0.83, Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleBackup, Seq: 12, Output: 42.5, HasOut: true},
		}},
		HealthBundle{Node: 7, Battery: 0.83, Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleActive, Seq: 12, Output: 42.5, HasOut: true},
			{TaskID: "chiller-temp", Role: RoleBackup, Seq: 11, Output: 50.1, HasOut: true},
			{TaskID: "idle", Role: RoleBackup, Seq: 0, HasOut: false},
		}},
		HealthBundle{Node: 3, Battery: 0.5},
		FaultReport{Reporter: 3, Suspect: 2, TaskID: "t", Reason: FaultOutputDeviation, Deviation: 63.5, Cycles: 4},
		RoleChange{Node: 4, TaskID: "x", Role: RoleActive, Seq: 5},
		StateXfer{TaskID: "pid", Seq: 8, Blob: []byte{1, 2, 3, 4, 5}},
		Join{Node: 9, CPUCapacity: 0.6, Battery: 0.95},
		MigrateCmd{TaskID: "lts-level", Dest: 9, WithCapsule: true},
		ModeChange{Mode: 2, AtFrame: 1234567},
		RebalanceMsg{Phase: RebalancePrepare, TaskID: "loop", Export: exBytes},
		RebalanceMsg{Phase: RebalanceCommit, TaskID: "loop"},
		CapsuleMsg{Phase: CapsulePrepare, TaskID: "loop", Version: 2, Capsule: []byte{9, 8, 7}},
		CapsuleMsg{Phase: CapsuleCommit, TaskID: "loop", Version: 2},
		ex,
	}
}

// FuzzDecode feeds arbitrary bytes to every decoder: none may panic,
// and whatever decodes and re-encodes must be a fixed point of
// decode-then-encode, byte for byte (bytes, not structs, so NaN floats
// compare equal to themselves).
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds() {
		b, err := m.Encode()
		if err != nil {
			f.Fatalf("seed %+v: %v", m, err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// The interning forms: no panic.
		_, _ = DecodeActuateInterned(b, IDs{"lts-level"})
		_, _ = DecodeRoleChangeInterned(b, IDs{"lts-level"})
		_, _ = HealthBundleSender(b)
		var snap SensorSnapshot
		_ = DecodeSnapshotInto(b, &snap)
		var hb HealthBundle
		_ = DecodeHealthBundleInto(b, &hb, IDs{"lts-level"})

		for _, c := range codecs {
			enc, ok := c.rt(b)
			if !ok {
				continue
			}
			again, ok := c.rt(enc)
			if !ok {
				t.Fatalf("%s: re-encoded %x does not decode and encode again", c.name, enc)
			}
			if !bytes.Equal(again, enc) {
				t.Fatalf("%s: encode(decode(%x)) = %x, not a fixed point", c.name, enc, again)
			}
		}
	})
}
