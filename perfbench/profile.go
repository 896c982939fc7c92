package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// shareLayers are the buckets of the host-time split: the repository's
// layers, garbage collection charged to none of them, and the rest (the
// benchmark's own code, HTTP plumbing, the scheduler).
var shareLayers = []string{"sim", "radio", "rtlink", "wire", "core", "vm", "gateway", "evm", "evmd", "runtime_gc", "other"}

// packageLayer maps the repository's packages to layers; every other
// package under evm counts as the root facade, evm.
var packageLayer = map[string]string{
	"evm/internal/sim":     "sim",
	"evm/internal/radio":   "radio",
	"evm/internal/rtlink":  "rtlink",
	"evm/internal/wire":    "wire",
	"evm/internal/core":    "core",
	"evm/internal/control": "core",
	"evm/internal/rtos":    "core",
	"evm/internal/bqp":     "core",
	"evm/internal/vm":      "vm",
	"evm/internal/gateway": "gateway",
	"evm/internal/modbus":  "gateway",
	"evm/internal/plant":   "gateway",
	"evm/evmd":             "evmd",
}

// gcWorkers are the runtime functions that do GC work; a sample under one
// of them with no repository frame on its stack counts as GC.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// frameLayer names the layer a function belongs to: a repository layer,
// "other" for the benchmark's own code, or "" for anything else.
func frameLayer(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case packageLayer[pkg] != "":
		return packageLayer[pkg]
	case pkg == "evm" || strings.HasPrefix(pkg, "evm/"):
		return "evm"
	case pkg == "main":
		return "other"
	}
	return ""
}

// hostShares splits a gzipped runtime/pprof CPU profile by layer. Each
// sample goes to the innermost frame of the repository's code on its
// stack, so allocation, map and GC-assist time lands on the layer that
// caused it. The shares sum to 1, or are all zero for an empty profile.
func hostShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		fnName  = make(map[uint64]uint64)   // function ID -> string table index
		locFns  = make(map[uint64][]uint64) // location ID -> function IDs, innermost first
		samples []sample
	)
	err = fields(raw, func(f field) error {
		var err error
		switch f.num {
		case 2:
			var s sample
			s, err = parseSample(f.data)
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			id, fns, err = parseLocation(f.data)
			locFns[id] = fns
		case 5:
			var id, name uint64
			id, name, err = parseFunction(f.data)
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	weight := make(map[string]int64)
	var total int64
	for _, s := range samples {
		layer, gc := "", false
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				name := ""
				if i := fnName[fn]; i < uint64(len(strs)) {
					name = strs[i]
				}
				if layer == "" {
					layer = frameLayer(name)
				}
				gc = gc || gcWorkers[name]
			}
		}
		switch {
		case layer != "":
		case gc:
			layer = "runtime_gc"
		default:
			layer = "other"
		}
		weight[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = float64(weight[l]) / float64(total)
		}
	}
	return shares, nil
}

// sample is one profile sample: its stack of location IDs, leaf first,
// and how many times the profiler saw it.
type sample struct {
	locs  []uint64
	count int64
}

func parseSample(b []byte) (sample, error) {
	var s sample
	var values []uint64
	err := fields(b, func(f field) error {
		var err error
		switch f.num {
		case 1:
			s.locs, err = f.ints(s.locs)
		case 2:
			values, err = f.ints(values)
		}
		return err
	})
	if len(values) > 0 {
		s.count = int64(values[0])
	}
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = fields(b, func(f field) error {
		switch f.num {
		case 1:
			id = f.val
		case 4: // one line, innermost inlined function first
			return fields(f.data, func(l field) error {
				if l.num == 1 {
					fns = append(fns, l.val)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

func parseFunction(b []byte) (id, name uint64, err error) {
	err = fields(b, func(f field) error {
		switch f.num {
		case 1:
			id = f.val
		case 2:
			name = f.val
		}
		return nil
	})
	return id, name, err
}

// field is one protobuf wire-format field.
type field struct {
	num  int
	wire int
	val  uint64 // varint and fixed-width fields
	data []byte // length-delimited fields
}

var errProfile = errors.New("malformed cpu profile")

// fields decodes the protobuf message b field by field.
func fields(b []byte, fn func(field) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProfile
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// ints appends a repeated integer field, packed or not, to dst.
func (f field) ints(dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}
