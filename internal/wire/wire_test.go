package wire

import (
	"errors"
	"testing"
)

func TestSensorsRoundTrip(t *testing.T) {
	in := []SensorReading{{Port: 0, Value: 50.25}, {Port: 3, Value: -12.5}}
	b, err := SensorSnapshot{Readings: in}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out SensorSnapshot
	if err := DecodeSnapshotInto(b, &out); err != nil {
		t.Fatal(err)
	}
	if rd := out.Readings; len(rd) != 2 || rd[0] != in[0] || rd[1] != in[1] {
		t.Fatalf("round trip: %+v", rd)
	}
}

func TestSensorsTruncated(t *testing.T) {
	b, err := SensorSnapshot{Readings: []SensorReading{{Port: 1, Value: 5}}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out SensorSnapshot
	if err := DecodeSnapshotInto(b[:4], &out); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestActuateRoundTrip(t *testing.T) {
	in := Actuate{Port: 2, Value: 11.48, TaskID: "lts-level", Seq: 99}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeActuateInterned(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestFaultReportRoundTrip(t *testing.T) {
	in := FaultReport{Reporter: 3, Suspect: 2, TaskID: "t", Reason: FaultOutputDeviation, Deviation: 63.5, Cycles: 4}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeFaultReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestRoleChangeRoundTrip(t *testing.T) {
	in := RoleChange{Node: 4, TaskID: "x", Role: RoleActive, Seq: 5}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRoleChangeInterned(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestStateXferRoundTrip(t *testing.T) {
	in := StateXfer{TaskID: "pid", Seq: 8, Blob: []byte{1, 2, 3, 4, 5}}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeStateXfer(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TaskID != in.TaskID || out.Seq != in.Seq || string(out.Blob) != string(in.Blob) {
		t.Fatalf("round trip: %+v", out)
	}
	// Truncated blob length.
	if _, err := DecodeStateXfer(b[:len(b)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestJoinAndModeChangeRoundTrip(t *testing.T) {
	j := Join{Node: 9, CPUCapacity: 0.6, Battery: 0.95}
	b, err := j.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := DecodeJoin(b)
	if err != nil || gotJ != j {
		t.Fatalf("join round trip: %+v err %v", gotJ, err)
	}
	mc := ModeChange{Mode: 2, AtFrame: 1234567}
	b, err = mc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := DecodeModeChange(b)
	if err != nil || gotM != mc {
		t.Fatalf("mode round trip: %+v err %v", gotM, err)
	}
}

func TestLongTaskIDRejected(t *testing.T) {
	long := make([]byte, 300)
	for i := range long {
		long[i] = 'a'
	}
	a := Actuate{TaskID: string(long)}
	if _, err := a.Encode(); err == nil {
		t.Fatal("300-byte task ID accepted")
	}
}

func TestRoleStrings(t *testing.T) {
	for _, r := range []Role{RoleDormant, RoleBackup, RoleActive, RoleIndicator} {
		if r.String() == "" {
			t.Fatal("empty role string")
		}
	}
	for _, f := range []FaultReason{FaultOutputDeviation, FaultSilent, FaultEnergy} {
		if f.String() == "" {
			t.Fatal("empty reason string")
		}
	}
}

func TestEmptyDecodes(t *testing.T) {
	var hb HealthBundle
	if err := DecodeHealthBundleInto(nil, &hb, nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("nil health bundle decoded")
	}
	if _, err := DecodeActuateInterned([]byte{1}, nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("short actuate decoded")
	}
	if _, err := DecodeJoin([]byte{}); !errors.Is(err, ErrTruncated) {
		t.Fatal("empty join decoded")
	}
}

func TestRebalanceMsgRoundTrip(t *testing.T) {
	ex, err := TaskExport{TaskID: "loop", Seq: 7, Blob: []byte{1, 2, 3}}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []RebalanceMsg{
		{Phase: RebalancePrepare, TaskID: "loop", Export: ex},
		{Phase: RebalanceCommit, TaskID: "loop"},
	} {
		b, err := in.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeRebalanceMsg(b)
		if err != nil {
			t.Fatal(err)
		}
		if out.Phase != in.Phase || out.TaskID != in.TaskID || string(out.Export) != string(in.Export) {
			t.Fatalf("round trip: %+v vs %+v", out, in)
		}
	}
}

func TestRebalanceMsgRejectsBadPhase(t *testing.T) {
	if _, err := (RebalanceMsg{Phase: 9, TaskID: "x"}).Encode(); err == nil {
		t.Fatal("phase 9 encoded")
	}
	b, err := (RebalanceMsg{Phase: RebalanceCommit, TaskID: "x"}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b[0] = 0
	if _, err := DecodeRebalanceMsg(b); err == nil {
		t.Fatal("phase 0 decoded")
	}
	if _, err := DecodeRebalanceMsg(nil); !errors.Is(err, ErrTruncated) {
		t.Fatal("nil rebalance msg decoded")
	}
}
