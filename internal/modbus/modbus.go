// Package modbus implements the small subset of the ModBus protocol the
// paper's testbed uses to connect the RT-Link gateway to the UniSim plant
// workstation (§4: "The gateway communicates with Unisim (on the
// workstation) via ModBus"): RTU-style frames with CRC-16, holding-
// register reads (0x03), single writes (0x06) and multiple writes (0x10),
// plus standard exception responses.
package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Function codes.
const (
	FuncReadHolding   = 0x03
	FuncWriteSingle   = 0x06
	FuncWriteMultiple = 0x10
)

// Exception codes.
const (
	ExcIllegalFunction = 0x01
	ExcIllegalAddress  = 0x02
	ExcIllegalValue    = 0x03
)

// Protocol errors.
var (
	ErrCRC       = errors.New("modbus: CRC mismatch")
	ErrShort     = errors.New("modbus: frame too short")
	ErrUnitID    = errors.New("modbus: response from wrong unit")
	ErrMalformed = errors.New("modbus: malformed frame")
)

// ExceptionError is a ModBus exception response.
type ExceptionError struct {
	Function byte
	Code     byte
}

// Error implements the error interface.
func (e *ExceptionError) Error() string {
	return fmt.Sprintf("modbus: exception %#02x on function %#02x", e.Code, e.Function)
}

// crcTable holds the CRC of every byte value, so CRC16 folds in a byte
// per lookup instead of eight shift-and-xor rounds.
var crcTable = func() (t [256]uint16) {
	for b := range t {
		crc := uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xA001
			} else {
				crc >>= 1
			}
		}
		t[b] = crc
	}
	return t
}()

// CRC16 computes the ModBus RTU CRC over data (reflected polynomial
// 0xA001, initial value 0xFFFF).
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc>>8 ^ crcTable[byte(crc)^b]
	}
	return crc
}

// appendCRC appends the little-endian CRC to a frame body.
func appendCRC(frame []byte) []byte {
	crc := CRC16(frame)
	return append(frame, byte(crc), byte(crc>>8))
}

// checkCRC verifies and strips the CRC, returning the body.
func checkCRC(frame []byte) ([]byte, error) {
	if len(frame) < 4 {
		return nil, ErrShort
	}
	body := frame[:len(frame)-2]
	want := uint16(frame[len(frame)-2]) | uint16(frame[len(frame)-1])<<8
	if CRC16(body) != want {
		return nil, ErrCRC
	}
	return body, nil
}

// RegisterMap is a bank of 16-bit holding registers with an allowed
// address window.
type RegisterMap struct {
	regs []uint16 // regs[addr] for every address in the window
	// OnWrite, when set, observes every successful register write.
	OnWrite func(addr, value uint16)
}

// NewRegisterMap creates a map accepting addresses [0, maxAddr].
func NewRegisterMap(maxAddr uint16) *RegisterMap {
	return &RegisterMap{regs: make([]uint16, int(maxAddr)+1)}
}

// Read returns the register value (unset registers read as zero).
func (m *RegisterMap) Read(addr uint16) (uint16, bool) {
	if int(addr) >= len(m.regs) {
		return 0, false
	}
	return m.regs[addr], true
}

// Write sets a register value.
func (m *RegisterMap) Write(addr, value uint16) bool {
	if int(addr) >= len(m.regs) {
		return false
	}
	m.regs[addr] = value
	if m.OnWrite != nil {
		m.OnWrite(addr, value)
	}
	return true
}

// Server answers ModBus requests against a register map.
type Server struct {
	UnitID byte
	Regs   *RegisterMap
	out    []byte // response buffer, reused by every Handle
}

// Handle processes one request frame and returns the response frame.
// Frames addressed to other units return nil (silent, per RTU semantics).
// The response is built in a buffer the server owns: it stays valid until
// the next call to Handle.
func (s *Server) Handle(frame []byte) ([]byte, error) {
	body, err := checkCRC(frame)
	if err != nil {
		return nil, err
	}
	if len(body) < 2 {
		return nil, ErrShort
	}
	if body[0] != s.UnitID {
		return nil, nil
	}
	fn := body[1]
	pdu := body[2:]
	switch fn {
	case FuncReadHolding:
		return s.readHolding(pdu)
	case FuncWriteSingle:
		return s.writeSingle(pdu)
	case FuncWriteMultiple:
		return s.writeMultiple(pdu)
	default:
		return s.exception(fn, ExcIllegalFunction), nil
	}
}

// reply starts a response frame in the server's buffer.
func (s *Server) reply(fn byte) []byte {
	s.out = append(s.out[:0], s.UnitID, fn)
	return s.out
}

// finish appends the CRC to a response frame, keeping its storage for
// the next.
func (s *Server) finish(out []byte) []byte {
	s.out = appendCRC(out)
	return s.out
}

func (s *Server) exception(fn, code byte) []byte {
	return s.finish(append(s.reply(fn|0x80), code))
}

func (s *Server) readHolding(pdu []byte) ([]byte, error) {
	if len(pdu) != 4 {
		return nil, ErrMalformed
	}
	addr := binary.BigEndian.Uint16(pdu[0:2])
	count := binary.BigEndian.Uint16(pdu[2:4])
	if count == 0 || count > 125 {
		return s.exception(FuncReadHolding, ExcIllegalValue), nil
	}
	out := append(s.reply(FuncReadHolding), byte(count*2))
	for i := uint16(0); i < count; i++ {
		v, ok := s.Regs.Read(addr + i)
		if !ok {
			return s.exception(FuncReadHolding, ExcIllegalAddress), nil
		}
		out = binary.BigEndian.AppendUint16(out, v)
	}
	return s.finish(out), nil
}

func (s *Server) writeSingle(pdu []byte) ([]byte, error) {
	if len(pdu) != 4 {
		return nil, ErrMalformed
	}
	addr := binary.BigEndian.Uint16(pdu[0:2])
	value := binary.BigEndian.Uint16(pdu[2:4])
	if !s.Regs.Write(addr, value) {
		return s.exception(FuncWriteSingle, ExcIllegalAddress), nil
	}
	// Echo per spec.
	out := binary.BigEndian.AppendUint16(s.reply(FuncWriteSingle), addr)
	out = binary.BigEndian.AppendUint16(out, value)
	return s.finish(out), nil
}

func (s *Server) writeMultiple(pdu []byte) ([]byte, error) {
	if len(pdu) < 5 {
		return nil, ErrMalformed
	}
	addr := binary.BigEndian.Uint16(pdu[0:2])
	count := binary.BigEndian.Uint16(pdu[2:4])
	byteCount := int(pdu[4])
	if count == 0 || count > 123 || byteCount != int(count)*2 || len(pdu) != 5+byteCount {
		return s.exception(FuncWriteMultiple, ExcIllegalValue), nil
	}
	// Validate the whole window first (atomic write).
	for i := uint16(0); i < count; i++ {
		if _, ok := s.Regs.Read(addr + i); !ok {
			return s.exception(FuncWriteMultiple, ExcIllegalAddress), nil
		}
	}
	for i := uint16(0); i < count; i++ {
		v := binary.BigEndian.Uint16(pdu[5+2*i:])
		s.Regs.Write(addr+i, v)
	}
	out := binary.BigEndian.AppendUint16(s.reply(FuncWriteMultiple), addr)
	out = binary.BigEndian.AppendUint16(out, count)
	return s.finish(out), nil
}

// Client builds requests for and parses responses from a Server. It
// builds every request in one buffer of its own, and parses register
// values into another, so a request stays valid until the next request
// is built and parsed values until the next response is parsed.
type Client struct {
	UnitID byte
	req    []byte
	vals   []uint16
}

// ReadHoldingRequest builds a read request for count registers at addr.
func (c *Client) ReadHoldingRequest(addr, count uint16) []byte {
	return c.request(FuncReadHolding, addr, count)
}

// WriteSingleRequest builds a single-register write.
func (c *Client) WriteSingleRequest(addr, value uint16) []byte {
	return c.request(FuncWriteSingle, addr, value)
}

// request builds a request of two 16-bit fields in the client's buffer.
func (c *Client) request(fn byte, a, b uint16) []byte {
	out := append(c.req[:0], c.UnitID, fn)
	out = binary.BigEndian.AppendUint16(out, a)
	out = binary.BigEndian.AppendUint16(out, b)
	c.req = appendCRC(out)
	return c.req
}

// ParseReadResponse extracts register values from a read response.
func (c *Client) ParseReadResponse(frame []byte) ([]uint16, error) {
	body, err := checkCRC(frame)
	if err != nil {
		return nil, err
	}
	if len(body) < 3 {
		return nil, ErrShort
	}
	if body[0] != c.UnitID {
		return nil, ErrUnitID
	}
	if body[1]&0x80 != 0 {
		return nil, &ExceptionError{Function: body[1] &^ 0x80, Code: body[2]}
	}
	if body[1] != FuncReadHolding {
		return nil, ErrMalformed
	}
	n := int(body[2])
	if n%2 != 0 || len(body) != 3+n {
		return nil, ErrMalformed
	}
	c.vals = c.vals[:0]
	for i := 3; i < len(body); i += 2 {
		c.vals = append(c.vals, binary.BigEndian.Uint16(body[i:]))
	}
	return c.vals, nil
}

// CheckWriteResponse validates a write echo (single or multiple).
func (c *Client) CheckWriteResponse(frame []byte) error {
	body, err := checkCRC(frame)
	if err != nil {
		return err
	}
	if len(body) < 2 {
		return ErrShort
	}
	if body[0] != c.UnitID {
		return ErrUnitID
	}
	if body[1]&0x80 != 0 {
		// An exception carries its code in a third byte.
		if len(body) < 3 {
			return ErrMalformed
		}
		return &ExceptionError{Function: body[1] &^ 0x80, Code: body[2]}
	}
	return nil
}

// --- fixed-point register scaling -----------------------------------------

// ToReg encodes a float into a register with the given scale (e.g. scale
// 100 stores 50.25 as 5025). Values are clamped to the uint16 range.
func ToReg(v float64, scale float64) uint16 {
	x := v * scale
	if x < 0 {
		return 0
	}
	if x > 65535 {
		return 65535
	}
	return uint16(x + 0.5)
}

// FromReg decodes a register written by ToReg.
func FromReg(r uint16, scale float64) float64 {
	return float64(r) / scale
}
