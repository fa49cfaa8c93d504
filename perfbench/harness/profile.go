package harness

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark needs only
// each sample's stack of function names and its count, so it decodes just
// those fields rather than pulling in a profile library.

// Stack is one profile sample: function names from the innermost frame
// outwards (inlined callees before their callers) and the sample count.
type Stack struct {
	Funcs []string
	Count int64
}

var errProto = errors.New("harness: malformed profile")

// ParseProfile decodes a gzipped pprof CPU profile into its samples.
func ParseProfile(gz []byte) ([]Stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("harness: profile gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("harness: profile gzip: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []sample
		locLines = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2:
					vals := appendPacked(nil, w, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Stack, 0, len(samples))
	for _, s := range samples {
		st := Stack{Count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					st.Funcs = append(st.Funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or one element at a time (wire type 0).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited contents in b.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// middleware is the import path prefix of the middleware's packages.
const middleware = "uavmw/internal/"

// Bucket charges a stack to the middleware package of its innermost
// uavmw/internal frame, so runtime work (allocation, scheduling, stack
// walks) a package triggers counts as that package's. Stacks without a
// middleware frame go to "harness" when the benchmark's own code is on
// them and to "runtime" otherwise (garbage collection, the idle loop).
func Bucket(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, middleware); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range funcs {
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "uavmw/perfbench") {
			return "harness"
		}
	}
	return "runtime"
}

// Shares returns each bucket's share of the profile's samples and the
// total sample count.
func Shares(stacks []Stack) (map[string]float64, int64) {
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		counts[Bucket(s.Funcs)] += s.Count
		total += s.Count
	}
	out := make(map[string]float64, len(counts))
	for k, c := range counts {
		if total > 0 {
			out[k] = float64(c) / float64(total)
		}
	}
	return out, total
}
