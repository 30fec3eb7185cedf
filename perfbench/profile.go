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

// layerModules are the program's modules the CPU profile is folded
// onto, named as in repro/internal/<module>.
var layerModules = []string{
	"trace", "dist", "market", "core", "cloud", "job", "client",
	"chaos", "invariant", "serve", "experiments",
}

// The rows a sample falls into when no layer module is on its stack.
const (
	rowRuntime = "runtime"
	rowNet     = "net"
	rowOther   = "other"
)

// sample is one CPU-profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its weight.
type sample struct {
	stack  []string
	weight int64
}

// moduleOf returns the repro/internal module a function belongs to, or
// "" for any other function.
func moduleOf(fn string) string {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// fold attributes every sample to one row and returns each row's share
// of the total weight. A sample goes to the module of its deepest
// (leaf-most) frame among layerModules. A sample with no such frame
// goes to net when a network-stack frame is on it, to runtime when its
// leaf is in the runtime, and to other otherwise; nothing is dropped.
// inclusive[m] is the share of weight with any frame of module m on the
// stack.
func fold(samples []sample) (self, inclusive map[string]float64) {
	layer := map[string]bool{}
	for _, m := range layerModules {
		layer[m] = true
	}
	self, inclusive = map[string]float64{}, map[string]float64{}
	var total float64
	for _, s := range samples {
		w := float64(s.weight)
		total += w
		row := ""
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if m := moduleOf(fn); layer[m] {
				if row == "" {
					row = m
				}
				if !seen[m] {
					seen[m] = true
					inclusive[m] += w
				}
			}
		}
		if row == "" {
			row = rowOther
			for _, fn := range s.stack {
				if strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") ||
					strings.HasPrefix(fn, "internal/poll.") || strings.HasPrefix(fn, "crypto/tls.") {
					row = rowNet
					break
				}
			}
			if row == rowOther && len(s.stack) > 0 && strings.HasPrefix(s.stack[0], "runtime.") {
				row = rowRuntime
			}
		}
		self[row] += w
	}
	if total > 0 {
		for k := range self {
			self[k] /= total
		}
		for k := range inclusive {
			inclusive[k] /= total
		}
	}
	return self, inclusive
}

// parseProfile decodes a gzipped pprof CPU profile into samples
// weighted by their last value (CPU nanoseconds). It reads only the
// message fields the fold needs: samples, locations with their line
// entries, functions and the string table.
func parseProfile(gz []byte) ([]sample, error) {
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
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
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
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
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
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, sample{stack: stack, weight: s.values[len(s.values)-1]})
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message. For varint
// fields v holds the value; for length-delimited fields b holds the
// bytes. Fixed-width fields are skipped.
func eachField(buf []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
