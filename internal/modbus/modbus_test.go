package modbus

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func newPair() (*Server, *Client) {
	srv := &Server{UnitID: 9, Regs: NewRegisterMap(99)}
	return srv, &Client{UnitID: 9}
}

func TestCRCKnownVector(t *testing.T) {
	// Classic ModBus test vector: 01 03 00 00 00 0A -> CRC C5 CD.
	frame := []byte{0x01, 0x03, 0x00, 0x00, 0x00, 0x0A}
	if got := CRC16(frame); got != 0xCDC5 {
		t.Fatalf("CRC = %#04x, want 0xCDC5", got)
	}
}

// crc16Bitwise is the textbook bit-at-a-time MODBUS CRC the table-driven
// CRC16 must reproduce.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xA001
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

func TestCRCStandardCheckValue(t *testing.T) {
	// CRC-16/MODBUS catalogue check value over the ASCII digits 1..9.
	if got := CRC16([]byte("123456789")); got != 0x4B37 {
		t.Fatalf("CRC(\"123456789\") = %#04x, want 0x4b37", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Fatalf("CRC(empty) = %#04x, want the 0xffff initial value", got)
	}
}

func TestCRCMatchesBitwiseReference(t *testing.T) {
	f := func(frame []byte) bool { return CRC16(frame) == crc16Bitwise(frame) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	srv, cli := newPair()
	resp, err := srv.Handle(cli.WriteSingleRequest(5, 1234))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.CheckWriteResponse(resp); err != nil {
		t.Fatal(err)
	}
	resp, err = srv.Handle(cli.ReadHoldingRequest(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cli.ParseReadResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 1234 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestReadMultiple(t *testing.T) {
	srv, cli := newPair()
	for i := uint16(0); i < 4; i++ {
		srv.Regs.Write(10+i, 100+i)
	}
	resp, err := srv.Handle(cli.ReadHoldingRequest(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cli.ParseReadResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != uint16(100+i) {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestIllegalAddressException(t *testing.T) {
	srv, cli := newPair()
	resp, err := srv.Handle(cli.ReadHoldingRequest(98, 5)) // crosses max 99
	if err != nil {
		t.Fatal(err)
	}
	_, err = cli.ParseReadResponse(resp)
	var exc *ExceptionError
	if !errors.As(err, &exc) || exc.Code != ExcIllegalAddress {
		t.Fatalf("err = %v, want illegal-address exception", err)
	}
}

func TestIllegalFunction(t *testing.T) {
	srv, cli := newPair()
	frame := appendCRC([]byte{9, 0x55, 0, 0})
	resp, err := srv.Handle(frame)
	if err != nil {
		t.Fatal(err)
	}
	err = cli.CheckWriteResponse(resp)
	var exc *ExceptionError
	if !errors.As(err, &exc) || exc.Code != ExcIllegalFunction {
		t.Fatalf("err = %v, want illegal-function exception", err)
	}
}

func TestCorruptedFrameRejected(t *testing.T) {
	srv, cli := newPair()
	req := cli.ReadHoldingRequest(0, 1)
	req[2] ^= 0xFF // damage the body
	if _, err := srv.Handle(req); !errors.Is(err, ErrCRC) {
		t.Fatalf("err = %v, want ErrCRC", err)
	}
	if _, err := srv.Handle([]byte{1, 2}); !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v, want ErrShort", err)
	}
}

func TestWrongUnitSilent(t *testing.T) {
	srv, _ := newPair()
	other := &Client{UnitID: 3}
	resp, err := srv.Handle(other.ReadHoldingRequest(0, 1))
	if err != nil || resp != nil {
		t.Fatalf("resp=%v err=%v, want silence for other unit", resp, err)
	}
}

func TestWriteMultiple(t *testing.T) {
	srv, cli := newPair()
	// Build a write-multiple by hand: addr=20 count=2 values 7,8.
	body := []byte{9, FuncWriteMultiple, 0, 20, 0, 2, 4, 0, 7, 0, 8}
	resp, err := srv.Handle(appendCRC(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.CheckWriteResponse(resp); err != nil {
		t.Fatal(err)
	}
	v, _ := srv.Regs.Read(21)
	if v != 8 {
		t.Fatalf("reg 21 = %d, want 8", v)
	}
	// Mismatched byte count rejected with exception.
	bad := appendCRC([]byte{9, FuncWriteMultiple, 0, 20, 0, 2, 3, 0, 7, 0})
	resp, err = srv.Handle(bad)
	if err != nil {
		t.Fatal(err)
	}
	var exc *ExceptionError
	if err := cli.CheckWriteResponse(resp); !errors.As(err, &exc) {
		t.Fatalf("err = %v, want exception", err)
	}
}

func TestOnWriteHook(t *testing.T) {
	srv, cli := newPair()
	var gotAddr, gotVal uint16
	srv.Regs.OnWrite = func(a, v uint16) { gotAddr, gotVal = a, v }
	if _, err := srv.Handle(cli.WriteSingleRequest(7, 42)); err != nil {
		t.Fatal(err)
	}
	if gotAddr != 7 || gotVal != 42 {
		t.Fatalf("hook saw %d=%d", gotAddr, gotVal)
	}
}

func TestRegisterScaling(t *testing.T) {
	cases := []struct {
		v     float64
		scale float64
	}{
		{50.25, 100}, {11.48, 100}, {0, 100}, {655.35, 100}, {123.4, 10},
	}
	for _, c := range cases {
		got := FromReg(ToReg(c.v, c.scale), c.scale)
		if math.Abs(got-c.v) > 1/c.scale {
			t.Errorf("scale %v: %v -> %v", c.scale, c.v, got)
		}
	}
	if ToReg(-5, 100) != 0 {
		t.Error("negative not clamped")
	}
	if ToReg(1e9, 100) != 65535 {
		t.Error("overflow not clamped")
	}
}

func TestRequestResponseProperty(t *testing.T) {
	// Any written value must read back identically through the protocol.
	srv, cli := newPair()
	f := func(addr uint16, value uint16) bool {
		addr %= 100
		resp, err := srv.Handle(cli.WriteSingleRequest(addr, value))
		if err != nil || cli.CheckWriteResponse(resp) != nil {
			return false
		}
		resp, err = srv.Handle(cli.ReadHoldingRequest(addr, 1))
		if err != nil {
			return false
		}
		vals, err := cli.ParseReadResponse(resp)
		return err == nil && len(vals) == 1 && vals[0] == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseResponseWrongUnit(t *testing.T) {
	srv, _ := newPair()
	cli := &Client{UnitID: 9}
	resp, err := srv.Handle(cli.ReadHoldingRequest(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	wrong := &Client{UnitID: 4}
	if _, err := wrong.ParseReadResponse(resp); !errors.Is(err, ErrUnitID) {
		t.Fatalf("err = %v, want ErrUnitID", err)
	}
}

func TestZeroCountRejected(t *testing.T) {
	srv, cli := newPair()
	resp, err := srv.Handle(cli.ReadHoldingRequest(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var exc *ExceptionError
	if _, err := cli.ParseReadResponse(resp); !errors.As(err, &exc) || exc.Code != ExcIllegalValue {
		t.Fatalf("err = %v, want illegal-value", err)
	}
}

// TestShortExceptionFrameRejected: a CRC-valid response of unit and
// function with the exception bit set, but no exception code, is
// malformed for both parsers; CheckWriteResponse used to read past it.
func TestShortExceptionFrameRejected(t *testing.T) {
	_, cli := newPair()
	frame := appendCRC([]byte{9, FuncWriteSingle | 0x80})
	if err := cli.CheckWriteResponse(frame); !errors.Is(err, ErrMalformed) {
		t.Fatalf("CheckWriteResponse = %v, want ErrMalformed", err)
	}
	if _, err := cli.ParseReadResponse(frame); !errors.Is(err, ErrShort) {
		t.Fatalf("ParseReadResponse = %v, want ErrShort", err)
	}
}

// TestFramesLiveInOwnedBuffers: the client builds every request in one
// buffer and the server every response in another, so a frame is valid
// until its owner builds the next one.
func TestFramesLiveInOwnedBuffers(t *testing.T) {
	srv, cli := newPair()
	req := cli.ReadHoldingRequest(1, 1)
	again := cli.WriteSingleRequest(1, 5)
	if &req[0] != &again[0] {
		t.Fatal("the client built its second request in a new buffer")
	}
	resp, err := srv.Handle(again)
	if err != nil {
		t.Fatal(err)
	}
	next, err := srv.Handle(cli.ReadHoldingRequest(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if &resp[0] != &next[0] {
		t.Fatal("the server built its second response in a new buffer")
	}
	vals, err := cli.ParseReadResponse(next)
	if err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Fatalf("read back %v, %v; want [5]", vals, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		resp, err := srv.Handle(cli.WriteSingleRequest(2, 7))
		if err != nil || cli.CheckWriteResponse(resp) != nil {
			t.Fatal("write failed")
		}
		if resp, err = srv.Handle(cli.ReadHoldingRequest(2, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.ParseReadResponse(resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a write and a read allocated %v times, want 0", allocs)
	}
}

// FuzzModbus: arbitrary frames through Server.Handle, ParseReadResponse
// and CheckWriteResponse never panic, and every response the server
// gives carries a valid CRC. Seeds are well-formed requests of each
// function, exceptions and short frames.
func FuzzModbus(f *testing.F) {
	_, cli := newPair()
	f.Add(append([]byte(nil), cli.ReadHoldingRequest(5, 3)...))
	f.Add(append([]byte(nil), cli.WriteSingleRequest(7, 42)...))
	f.Add(appendCRC([]byte{9, FuncWriteMultiple, 0, 20, 0, 2, 4, 0, 7, 0, 8}))
	f.Add(appendCRC([]byte{9, 0x55, 0, 0}))
	f.Add(appendCRC([]byte{9, FuncReadHolding | 0x80, ExcIllegalAddress}))
	f.Add(appendCRC([]byte{9, FuncWriteSingle | 0x80}))
	f.Add(appendCRC([]byte{9, FuncReadHolding, 4, 0, 1, 0, 2}))
	f.Add([]byte{9, 3})
	f.Fuzz(func(t *testing.T, frame []byte) {
		srv, cli := newPair()
		resp, err := srv.Handle(frame)
		if resp != nil {
			if err != nil {
				t.Fatalf("Handle(%x) returned a response and an error %v", frame, err)
			}
			if _, err := checkCRC(resp); err != nil {
				t.Fatalf("Handle(%x) = %x: %v", frame, resp, err)
			}
		}
		_, _ = cli.ParseReadResponse(frame)
		_ = cli.CheckWriteResponse(frame)
	})
}
