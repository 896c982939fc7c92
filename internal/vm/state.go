package vm

import (
	"encoding/binary"
	"errors"
	"slices"
)

// The interpreter's execution state is the task control state the EVM
// migrates between nodes (paper §4: "migration of the task control block,
// stack, data and timing/precedence-related metadata"). It moves only as
// bytes, in this big-endian layout:
//
//	magic u32 | pc u32 | halted u8 |
//	len(data) u32, data i64... | len(ret) u32, ret i64... | len(mem) u32, mem i64...
//
// The memory section holds the words up to the last nonzero one; the
// rest of the DefaultMemWords-word memory is zero. A never-written
// memory is 0 words, so a fresh state is 21 bytes. Every state has
// exactly one encoding: a memory section never ends in a zero word.
//
// The code is not part of the state; the caller pairs a state with the
// capsule it came from.

const stateMagic = 0x45564d53 // "EVMS"

// stateHeader is the fixed part of an encoding: magic, pc, halted.
const stateHeader = 4 + 4 + 1

var errBadState = errors.New("vm: malformed state encoding")

// AppendState appends the interpreter's execution state (pc, both stacks,
// memory, halted flag) to dst and returns the extended slice. The memory
// is written up to its last nonzero word, none when it is all zero. It
// allocates only when dst lacks the capacity, and then once.
func (in *Interp) AppendState(dst []byte) []byte {
	mem := in.mem
	for len(mem) > 0 && mem[len(mem)-1] == 0 {
		mem = mem[:len(mem)-1]
	}
	dst = slices.Grow(dst, stateHeader+3*4+8*(len(in.data)+len(in.ret)+len(mem)))
	dst = binary.BigEndian.AppendUint32(dst, stateMagic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(in.pc))
	if in.halted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	for _, sl := range [...][]int64{in.data, in.ret, mem} {
		dst = appendWords(dst, sl)
	}
	return dst
}

// appendWords appends the length-prefixed big-endian words of sl to dst.
func appendWords(dst []byte, sl []int64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sl)))
	for _, v := range sl {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// LoadState replaces the interpreter's execution state with one encoded
// by AppendState. The whole encoding is checked first: the pc must lie in
// the code, each stack must fit DefaultStackDepth, the memory must have
// at most DefaultMemWords words and must not end in a zero word, the
// halted flag must be 0 or 1 and nothing may trail the memory. So only
// AppendState's own encodings load. On error the interpreter is left
// unchanged. LoadState decodes into the interpreter's own slices, zeroes
// the memory past the loaded words and keeps no reference to b. It
// allocates only to grow a stack past its capacity, and allocates the
// memory once, when it loads a nonempty memory into a never-written one.
func (in *Interp) LoadState(b []byte) error {
	if len(b) < stateHeader || binary.BigEndian.Uint32(b) != stateMagic || b[8] > 1 {
		return errBadState
	}
	pc := binary.BigEndian.Uint32(b[4:])
	if uint64(pc) > uint64(len(in.code)) {
		return errBadState
	}
	// Find the three length-prefixed sections before changing anything.
	var words [3][]byte
	off := stateHeader
	for i, limit := range [...]int{DefaultStackDepth, DefaultStackDepth, DefaultMemWords} {
		if off+4 > len(b) {
			return errBadState
		}
		n := binary.BigEndian.Uint32(b[off:])
		off += 4
		if n > uint32(limit) || off+8*int(n) > len(b) {
			return errBadState
		}
		words[i] = b[off : off+8*int(n)]
		off += 8 * int(n)
	}
	mem := words[2]
	if off != len(b) || len(mem) > 0 && binary.BigEndian.Uint64(mem[len(mem)-8:]) == 0 {
		return errBadState
	}
	in.pc = int(pc)
	in.halted = b[8] == 1
	in.data = loadWords(in.data[:0], words[0])
	in.ret = loadWords(in.ret[:0], words[1])
	if in.mem == nil && len(mem) > 0 {
		in.mem = make([]int64, DefaultMemWords)
	}
	n := len(loadWords(in.mem[:0], mem))
	clear(in.mem[n:])
	return nil
}

// loadWords appends the big-endian words in b to dst, growing it at most
// once.
func loadWords(dst []int64, b []byte) []int64 {
	dst = slices.Grow(dst, len(b)/8)
	for i := 0; i < len(b); i += 8 {
		dst = append(dst, int64(binary.BigEndian.Uint64(b[i:])))
	}
	return dst
}

// SwapCode makes code the interpreter's program in place of its current
// one, sharing the slice: the caller must not modify it afterwards. The
// execution state is kept when LoadState would accept it for the new
// code, that is when the pc lies in it (the stacks and memory are the
// interpreter's own). Otherwise the state resets to a fresh interpreter's,
// memory zeroed, and SwapCode returns an error. It allocates nothing.
func (in *Interp) SwapCode(code []byte) error {
	in.code = code
	if in.pc <= len(code) {
		return nil
	}
	in.Reset()
	clear(in.mem)
	return errBadState
}
