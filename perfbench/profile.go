package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets of the cpu.* per-layer metrics, in report
// order.
var cpuLayers = []string{"wire", "broker", "seglog", "cluster", "amqp", "transport",
	"scistream", "mss", "tls", "gc", "bench", "other"}

// repoPrefix is the import-path prefix of the program's own packages.
const repoPrefix = "ds2hpc/internal/"

// benchPrefixes name this benchmark's own frames: package main in the
// benchmark binary, its import path in the test binary.
var benchPrefixes = []string{"main.", "ds2hpc/perfbench."}

// packageLayers maps a repo package (path below ds2hpc/internal/) to the
// layer its CPU samples are charged to. The telemetry and metrics
// packages are absent on purpose: a counter bump is instrumentation of
// the calling layer, so the sample passes to the next frame outward.
var packageLayers = map[string]string{
	"wire":          "wire",
	"broker":        "broker",
	"broker/seglog": "seglog",
	"cluster":       "cluster",
	"amqp":          "amqp",
	"transport":     "transport",
	"netem":         "transport",
	"scistream":     "scistream",
	"mss":           "mss",
	"tlsutil":       "tls",
	"core":          "other",
}

// transparentPackages are repo packages whose frames never decide a
// sample's layer.
var transparentPackages = map[string]bool{"telemetry": true, "metrics": true}

// gcRoots are the runtime's background GC goroutines. Assist work done
// inside a mutator stays with the layer that allocated.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// frameLayer classifies one frame: the layer it decides, or "" when the
// sample should pass on to the caller's frame.
func frameLayer(fn string) string {
	for _, p := range benchPrefixes {
		if strings.HasPrefix(fn, p) {
			return "bench"
		}
	}
	switch {
	case strings.HasPrefix(fn, "crypto/"):
		return "tls"
	case strings.HasPrefix(fn, repoPrefix):
		pkg := packagePath(fn[len(repoPrefix):])
		if transparentPackages[pkg] {
			return ""
		}
		if l, ok := packageLayers[pkg]; ok {
			return l
		}
		return "other"
	}
	return ""
}

// packagePath strips the symbol from a qualified function name:
// "broker/seglog.(*Log).Append" → "broker/seglog".
func packagePath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// sampleLayer charges one stack (innermost frame first) to a layer.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "other"
}

// cpuByLayer decodes a gzipped CPU profile from runtime/pprof and sums
// its sampled CPU time per layer, in nanoseconds.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		out[sampleLayer(s.stack)] += s.cpuNs
	}
	return out, nil
}

// profileSample is one decoded CPU sample: its stack as function names
// (innermost first, inlined frames expanded) and its CPU time.
type profileSample struct {
	stack []string
	cpuNs int64
}

// parseProfile decodes the subset of the pprof protobuf (profile.proto)
// that the layer split needs: samples, locations, functions and the
// string table. The standard library writes profiles but ships no
// reader, and the benchmark imports nothing outside it.
func parseProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []profileSample
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profileSample{cpuNs: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message: varint fields
// pass their value, length-delimited fields their bytes. Fixed-width
// fields are skipped (profile.proto has none in the decoded subset).
func walkFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that arrived either as
// one unpacked value (data nil) or as a packed run.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}
