package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// A cpuSample is one stack of a CPU profile: its frames' function
// names, leaf first, the CPU nanoseconds it stands for, and its labels.
type cpuSample struct {
	funcs  []string
	ns     int64
	labels map[string]string
}

// cpuProfileHz is the sampling rate the traced run asks for, ten times
// the runtime/pprof default, so a layer busy for a few percent of a
// pass still collects dozens of samples. The kernel may deliver fewer
// signals than asked (its tick caps them), which is why stop rescales.
const cpuProfileHz = 1000

// profiler collects one CPU profile at a time into memory.
type profiler struct {
	buf bytes.Buffer
	cpu time.Duration // process CPU time at start
}

func (p *profiler) start() error {
	p.buf.Reset()
	// StartCPUProfile asks for its 100 Hz default once a rate is set and
	// prints a warning to standard error; the rate set here stands.
	runtime.SetCPUProfileRate(cpuProfileHz)
	p.cpu = processCPU()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the profile and decodes it. Sample weights are rescaled so
// they add up to the process CPU time the profile covered: sample
// shares are right whatever rate the kernel delivered, absolute
// weights only at the asked-for rate.
func (p *profiler) stop() ([]cpuSample, error) {
	pprof.StopCPUProfile()
	cpu := processCPU() - p.cpu
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var sum int64
	for _, s := range samples {
		sum += s.ns
	}
	if sum > 0 {
		scale := float64(cpu) / float64(sum)
		for i := range samples {
			samples[i].ns = int64(float64(samples[i].ns) * scale)
		}
	}
	return samples, nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the fields a self-time attribution needs are read: samples
// (locations, values, string labels), locations (their lines'
// functions, innermost inlined call first), functions' names, and the
// string table.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs, values []uint64
		labels       [][2]uint64 // (key, str) string indices
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids
		funcs   = map[uint64]uint64{}   // function id -> name string index
		strs    []string
	)
	err = pbFields(raw, func(tag int, v uint64, b []byte) error {
		switch tag {
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					return pbUints(&s.locs, v, b)
				case 2:
					return pbUints(&s.values, v, b)
				case 3:
					var kv [2]uint64
					err := pbFields(b, func(tag int, v uint64, _ []byte) error {
						if tag == 1 || tag == 2 {
							kv[tag-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(tag int, v uint64, b []byte) error {
				switch tag {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(tag int, v uint64, _ []byte) error {
						if tag == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(tag int, v uint64, _ []byte) error {
				switch tag {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				cs.funcs = append(cs.funcs, str(funcs[f]))
			}
		}
		if len(s.labels) > 0 {
			cs.labels = make(map[string]string, len(s.labels))
			for _, kv := range s.labels {
				cs.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint or fixed value (v) or its
// length-delimited bytes (b).
func pbFields(msg []byte, fn func(tag int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = pbVarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := pbVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (b) or not (v).
func pbUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 on truncation).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a profile function name such
// as "patch/internal/event.(*Engine).Run" or
// "patch/internal/addrmap.(*Map[go.shape.uint64]).Ptr".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// attribute sums CPU nanoseconds per bucket over samples that keep
// returns true for. Each sample goes to the bucket of the innermost
// frame whose package classify recognises, so time in a standard
// library helper counts against the layer that called it; a stack with
// no recognised frame counts as "other".
func attribute(samples []cpuSample, keep func(cpuSample) bool, classify func(pkg string) (string, bool)) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		bucket := "other"
		for _, fn := range s.funcs {
			if b, ok := classify(funcPackage(fn)); ok {
				bucket = b
				break
			}
		}
		out[bucket] += s.ns
	}
	return out
}
