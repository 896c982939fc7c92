package wire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestHealthBundleRoundTrip(t *testing.T) {
	in := HealthBundle{
		Node:    7,
		Battery: 0.83,
		Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleActive, Seq: 12, Output: 42.5, HasOut: true},
			{TaskID: "chiller-temp", Role: RoleBackup, Seq: 11, Output: 50.1, HasOut: true},
			{TaskID: "idle", Role: RoleBackup, Seq: 0, HasOut: false},
		},
	}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHealthBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Node != in.Node || out.Battery != in.Battery || len(out.Records) != 3 {
		t.Fatalf("bundle mismatch: %+v", out)
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, out.Records[i], in.Records[i])
		}
	}
}

// TestHealthBundleDecodeIntoInterned: decoding into a kept bundle through
// an Interner yields the same records as DecodeHealthBundle, hands back the
// interner's own strings, and allocates nothing once the bundle's record
// storage has grown.
func TestHealthBundleDecodeIntoInterned(t *testing.T) {
	in := HealthBundle{
		Node:    7,
		Battery: 0.83,
		Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleActive, Seq: 12, Output: 42.5, HasOut: true},
			{TaskID: "chiller-temp", Role: RoleBackup, Seq: 11, Output: 50.1, HasOut: true},
		},
	}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ids := IDs{"chiller-temp", "lts-level"}
	var out HealthBundle
	if err := DecodeHealthBundleInto(b, &out, ids); err != nil {
		t.Fatal(err)
	}
	want, _ := DecodeHealthBundle(b)
	if out.Node != want.Node || out.Battery != want.Battery || len(out.Records) != len(want.Records) {
		t.Fatalf("bundle mismatch: %+v vs %+v", out, want)
	}
	for i := range want.Records {
		if out.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, out.Records[i], want.Records[i])
		}
	}
	if unsafe.StringData(out.Records[0].TaskID) != unsafe.StringData(ids[1]) {
		t.Fatal("decoded task ID is not the interned string")
	}
	var interner Interner = ids
	if n := testing.AllocsPerRun(100, func() { _ = DecodeHealthBundleInto(b, &out, interner) }); n != 0 {
		t.Fatalf("interned decode allocates %.0f times", n)
	}
	// An ID outside the set still decodes, into a fresh string.
	in.Records[0].TaskID = "unknown"
	b, _ = in.Encode()
	if err := DecodeHealthBundleInto(b, &out, ids); err != nil || out.Records[0].TaskID != "unknown" {
		t.Fatalf("unknown ID: %v %+v", err, out.Records)
	}
}

func TestHealthBundleTruncation(t *testing.T) {
	in := HealthBundle{Node: 1, Battery: 1, Records: []HealthRecord{{TaskID: "t", Role: RoleActive, Seq: 1, HasOut: true}}}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeHealthBundle(b[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d accepted", cut)
		}
		// The sender field alone survives any cut that keeps it.
		node, err := HealthBundleSender(b[:cut])
		if cut < 2 && !errors.Is(err, ErrTruncated) || cut >= 2 && (err != nil || node != in.Node) {
			t.Fatalf("cut %d: sender %d, %v", cut, node, err)
		}
	}
}

func TestHealthBundleEmpty(t *testing.T) {
	b, err := HealthBundle{Node: 3, Battery: 0.5}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeHealthBundle(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Records) != 0 {
		t.Fatalf("records = %d", len(out.Records))
	}
}

func TestHealthBundleTooManyRecords(t *testing.T) {
	hb := HealthBundle{Records: make([]HealthRecord, 300)}
	if _, err := hb.Encode(); err == nil {
		t.Fatal("300 records accepted")
	}
}

func TestHealthBundleFitsSlot(t *testing.T) {
	// Two realistic records must fit a 96-byte slot payload minus the
	// 9-byte fragment header.
	hb := HealthBundle{
		Node:    65535,
		Battery: 0.5,
		Records: []HealthRecord{
			{TaskID: "lts-level", Role: RoleActive, Seq: 1 << 30, Output: 11.48, HasOut: true},
			{TaskID: "chiller-temp", Role: RoleBackup, Seq: 1 << 30, Output: 50, HasOut: true},
		},
	}
	b, err := hb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 96-9 {
		t.Fatalf("two-record bundle is %d bytes, exceeds slot budget", len(b))
	}
}

func TestMigrateCmdRoundTrip(t *testing.T) {
	in := MigrateCmd{TaskID: "lts-level", Dest: 9, WithCapsule: true}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMigrateCmd(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v", out)
	}
	if _, err := DecodeMigrateCmd(b[:1]); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated cmd accepted")
	}
}

func TestSensorSnapshotTimestamp(t *testing.T) {
	in := SensorSnapshot{
		At:       42 * time.Second,
		Readings: []SensorReading{{Port: 5, Value: -19.5}},
	}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.At != in.At || len(out.Readings) != 1 || out.Readings[0] != in.Readings[0] {
		t.Fatalf("snapshot mismatch: %+v", out)
	}
	// A snapshot encoded without a timestamp decodes with At == 0.
	legacy, err := SensorSnapshot{Readings: in.Readings}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out, err = DecodeSnapshot(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if out.At != 0 {
		t.Fatalf("legacy At = %v, want 0", out.At)
	}
	// Decoding into a kept snapshot gives the same result and, once its
	// readings have grown, allocates nothing.
	kept := SensorSnapshot{Readings: make([]SensorReading, 0, 4)}
	if err := DecodeSnapshotInto(b, &kept); err != nil || kept.At != in.At || len(kept.Readings) != 1 || kept.Readings[0] != in.Readings[0] {
		t.Fatalf("decode into: %+v, %v", kept, err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = DecodeSnapshotInto(b, &kept) }); n != 0 {
		t.Fatalf("decode into a kept snapshot allocates %.0f times", n)
	}
}

func TestBundleProperty(t *testing.T) {
	f := func(node uint16, battery float64, seq uint32, out float64) bool {
		hb := HealthBundle{Node: node, Battery: battery, Records: []HealthRecord{
			{TaskID: "x", Role: RoleBackup, Seq: seq, Output: out, HasOut: true},
		}}
		b, err := hb.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeHealthBundle(b)
		if err != nil {
			return false
		}
		return got.Node == node && got.Battery == battery &&
			got.Records[0].Seq == seq && got.Records[0].Output == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRoleChangeDecodeInterned: an interned role change equals the plain
// decode, carries the interner's own task ID string and allocates nothing.
func TestRoleChangeDecodeInterned(t *testing.T) {
	in := RoleChange{Node: 4, TaskID: "lts-level", Role: RoleActive, Seq: 5}
	b, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var ids Interner = IDs{"chiller-temp", "lts-level"}
	out, err := DecodeRoleChangeInterned(b, ids)
	if err != nil || out != in {
		t.Fatalf("interned decode: %+v, %v", out, err)
	}
	if unsafe.StringData(out.TaskID) != unsafe.StringData(ids.(IDs)[1]) {
		t.Fatal("decoded task ID is not the interned string")
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodeRoleChangeInterned(b, ids) }); n != 0 {
		t.Fatalf("interned role-change decode allocates %.0f times", n)
	}
}
