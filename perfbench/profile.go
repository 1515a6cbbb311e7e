package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU profile sampling rate the traced run asks for.
// The default 100 Hz gives too few samples on a 1–3 s simulation to
// split it across a dozen layers. The kernel may deliver fewer: Linux
// fires the per-thread CPU timers at its scheduler tick, so on a
// 250 Hz kernel about 250 samples arrive per CPU-second whatever the
// request. Samples are therefore used only as shares of the measured
// CPU time (see attribute), and the rate achieved is reported.
const profileHz = 1000

// startProfile starts a CPU profile at profileHz into buf. The runtime
// keeps the rate set first, so StartCPUProfile's own 100 Hz request is
// refused (the runtime prints a one-line notice to standard error) and
// the header of the written profile carries the real period.
func startProfile(buf *bytes.Buffer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// programPrefix is the import-path prefix of the simulator's packages;
// a frame under it belongs to the layer named by its package.
const programPrefix = "github.com/gtsc-sim/gtsc/internal/"

// layers is every name layerOf can return. The program layers are the
// simulator's packages, with the workload package split by caller:
// "workload" is its kernel closures, which the SM calls, and
// "workload-ref" the rest (the builders' sequential reference and
// Verify). "other" takes the program's remaining packages (stats,
// coherence, energy, ...), "trace" the benchmark's own frames (span
// wrappers and harness), "runtime" the Go allocator and GC, and
// "unattributed" samples with none of those frames (scheduler, idle).
var layers = []string{
	"workload", "workload-ref", "sim", "memsys", "sched", "gpu", "core",
	"tc", "nocoh", "noc", "cache", "mem", "dram", "other", "runtime",
	"trace", "unattributed",
}

// ctrlLayers are the coherence-protocol packages: G-TSC, TC, and the
// non-coherent controllers behind BL and L1NC.
var ctrlLayers = []string{"core", "tc", "nocoh"}

var programLayers = map[string]bool{
	"workload": true, "sim": true, "memsys": true, "sched": true,
	"gpu": true, "core": true, "tc": true, "nocoh": true, "noc": true,
	"cache": true, "mem": true, "dram": true,
}

// allocGC names the runtime functions whose callees are the allocator
// or the garbage collector. A sample with one of them on its stack
// inside (callee-side of) every program frame is allocation or GC work
// and counts as "runtime", even when a program frame called it.
var allocGC = map[string]bool{
	"runtime.mallocgc":          true,
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.wbBufFlush":        true,
}

// layerOf assigns one sample to exactly one layer. stack lists the
// sample's function names innermost first, inlined frames expanded.
// The innermost frame that is either allocator/GC entry, a program
// package, or benchmark code decides: so slices.Sort called from
// tc.(*L2).resumeBlocked counts as tc, and mallocgc called from it
// counts as runtime.
func layerOf(stack []string) string {
	for i, fn := range stack {
		if allocGC[fn] || strings.HasPrefix(fn, "runtime.gcWriteBarrier") {
			return "runtime"
		}
		if rest, ok := strings.CutPrefix(fn, programPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if pkg == "workload" && !calledFrom(stack[i+1:], programPrefix+"gpu.") {
				return "workload-ref"
			}
			if programLayers[pkg] {
				return pkg
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, benchPrefix) {
			return "trace"
		}
	}
	return "unattributed"
}

func calledFrom(callers []string, prefix string) bool {
	for _, fn := range callers {
		if strings.HasPrefix(fn, prefix) {
			return true
		}
	}
	return false
}

// benchPrefix is how the benchmark's frames are named when it is built
// as a test binary rather than as package main.
const benchPrefix = "github.com/gtsc-sim/gtsc/perfbench."

// attribute decodes a gzipped pprof CPU profile and counts its samples
// per layer. The profile's own nanosecond values assume the requested
// rate was delivered, so only the counts are used.
func attribute(gz []byte) (map[string]int64, error) {
	stacks, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(layers))
	for _, s := range stacks {
		out[layerOf(s.funcs)] += s.count
	}
	return out, nil
}

// stackSample is one decoded profile sample.
type stackSample struct {
	funcs []string // innermost first, inlined frames expanded
	count int64    // how many times the profiler hit this stack
}

// decodeProfile reads the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) that attribution needs:
// samples with their location ids and values, locations with their
// line entries, functions, and the string table.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []rawSample
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendScalars(s.locs, v, b)
				case 2:
					s.vals = appendScalars(s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		if i, ok := funcs[fid]; ok && i < uint64(len(strs)) {
			return strs[i]
		}
		return "?"
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := stackSample{count: int64(s.vals[0])}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				st.funcs = append(st.funcs, name(f))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendScalars appends a repeated scalar field that arrived either
// unpacked (one varint, v) or packed (a length-delimited run, b).
func appendScalars(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
