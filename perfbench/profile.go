package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the repository's modules as the per-layer metrics name them;
// runtime collects every sample with no dloop/internal frame (Go scheduler,
// garbage collector, and the benchmark's own loop).
var layers = []string{
	"trace", "workload", "ssd", "ftl", "translate", "gc", "flash",
	"sim", "stats", "obs", "expt", "ckpt", "runtime",
}

// layerOf maps a function name to its layer, or "" for a function outside
// dloop/internal.
func layerOf(fn string) string {
	const prefix = "dloop/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	path := fn[len(prefix):]
	// The package path ends at the first '.' after the last '/'.
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		if j := strings.IndexByte(path[i:], '.'); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.IndexByte(path, '.'); j >= 0 {
		path = path[:j]
	}
	switch {
	case path == "ftl/translate" || strings.HasPrefix(path, "ftl/translate/"):
		return "translate"
	case path == "ftl/gc" || strings.HasPrefix(path, "ftl/gc/"):
		return "gc"
	}
	top, _, _ := strings.Cut(path, "/")
	for _, l := range layers {
		if top == l {
			return l
		}
	}
	return "" // a package outside the layer list (e.g. command helpers)
}

// attribution accumulates CPU-profile samples of the traced windows by
// layer, together with the process CPU (getrusage) of the same windows.
type attribution struct {
	buf     bytes.Buffer
	layerNs map[string]int64
	cpu     time.Duration
	pages   int64
}

func (a *attribution) start() error {
	a.buf.Reset()
	return pprof.StartCPUProfile(&a.buf)
}

// stop ends the profile and, if keep is set, charges each sample to the
// innermost dloop/internal frame of its stack, or to runtime if there is
// none.
func (a *attribution) stop(keep bool) error {
	pprof.StopCPUProfile()
	if !keep {
		return nil
	}
	p, err := parseProfile(a.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.funcName[fn]); l != "" {
					layer = l
					break stack
				}
			}
		}
		a.layerNs[layer] += s.ns
	}
	return nil
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location -> functions, innermost inline first
	funcName map[uint64]string
}

type profSample struct {
	locs []uint64 // leaf first
	ns   int64    // CPU nanoseconds (the second sample value)
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes. It
// reads only sample (2), location (4), function (5) and string_table (6).
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]int64{}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUvarints(nil, wire, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("sample without a CPU-time value")
			}
			s.ns = vals[1]
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcStr[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si < 0 || si >= int64(len(strs)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, si, len(strs))
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field, packed (wire type 2) or
// not (one varint per field occurrence).
func appendUvarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
