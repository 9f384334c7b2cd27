package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// modulePrefix is the import-path prefix of the repository's modules; a
// profile sample is charged to the module of the nearest such frame above
// its leaf.
const modulePrefix = "ccnuma/internal/"

// Attribution buckets for samples with no module frame.
const (
	bucketGC    = "runtime.gc"    // background mark, sweep and scavenge
	bucketSched = "runtime.sched" // stacks made only of runtime frames
	bucketOther = "other"         // the driver, the HTTP stack, other stdlib code
)

// shardFile is the PDES machinery's source file; sim.shard_share counts the
// samples whose nearest module frame lies in it.
const shardFile = "/internal/sim/shard.go"

// layerProfile accumulates CPU-profile samples by the module they are
// charged to.
type layerProfile struct {
	counts map[string]int64
	shard  int64
	total  int64
}

func newLayerProfile() *layerProfile {
	return &layerProfile{counts: make(map[string]int64)}
}

// profileHz is the sampling rate of the traced run, five times pprof's
// default so that a run of a few seconds yields thousands of samples.
const profileHz = 500

// profiled runs fn under the runtime CPU profiler and adds its samples.
// Setting the rate before StartCPUProfile makes the profiler keep it (the
// runtime prints a one-line notice that the default rate was not applied);
// attribution counts samples, so the profile's nominal period does not
// matter.
func (lp *layerProfile) profiled(fn func()) error {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return lp.add(buf.Bytes())
}

// shares returns every bucket's fraction of the samples. The fractions
// sum to 1; a profile whose buckets do not account for every sample is an
// error.
func (lp *layerProfile) shares() (map[string]float64, error) {
	out := make(map[string]float64, len(lp.counts))
	if lp.total == 0 {
		return out, errors.New("cpu profile recorded no samples")
	}
	var n int64
	sum := 0.0
	for k, c := range lp.counts {
		n += c
		out[k] = float64(c) / float64(lp.total)
		sum += out[k]
	}
	if n != lp.total || math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("module shares sum to %.12f over %d of %d samples", sum, n, lp.total)
	}
	return out, nil
}

// frame is one (possibly inlined) function of a sample's stack.
type frame struct {
	name, file string
}

// bucket charges one stack, leaf first, to its attribution bucket, and
// reports whether the charged frame lies in the PDES machinery.
func bucket(stack []frame) (string, bool) {
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f.name, modulePrefix); ok {
			end := strings.IndexAny(rest, "./")
			if end < 0 {
				end = len(rest)
			}
			return rest[:end], strings.HasSuffix(f.file, shardFile)
		}
	}
	onlyRuntime := true
	for _, f := range stack {
		switch {
		case f.name == "runtime._GC",
			strings.HasPrefix(f.name, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(f.name, "runtime.bgsweep"),
			strings.HasPrefix(f.name, "runtime.bgscavenge"):
			return bucketGC, false
		case !strings.HasPrefix(f.name, "runtime.") && !strings.HasPrefix(f.name, "internal/runtime/"):
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return bucketSched, false
	}
	return bucketOther, false
}

// add decodes a gzipped profile.proto CPU profile and charges its samples.
// Only the fields attribution needs are read: sample location ids and
// counts, each location's (inlined) lines, and function names and files.
func (lp *layerProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type fn struct{ name, file int64 }
	var (
		samples [][]byte
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]fn{}
		strs    []string
	)
	top := pbReader{raw}
	for !top.done() {
		field, _, body, err := top.next()
		if err != nil {
			return err
		}
		switch field {
		case 2: // Profile.sample
			samples = append(samples, body)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			r := pbReader{body}
			for !r.done() {
				f, v, b, err := r.next()
				if err != nil {
					return err
				}
				switch f {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					lr := pbReader{b}
					for !lr.done() {
						lf, lv, _, err := lr.next()
						if err != nil {
							return err
						}
						if lf == 1 { // Line.function_id
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Profile.function
			var id uint64
			var f fn
			r := pbReader{body}
			for !r.done() {
				k, v, _, err := r.next()
				if err != nil {
					return err
				}
				switch k {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
			}
			funcs[id] = f
		case 6: // Profile.string_table
			strs = append(strs, string(body))
		}
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for _, s := range samples {
		var ids, vals []uint64
		r := pbReader{s}
		for !r.done() {
			f, v, b, err := r.next()
			if err != nil {
				return err
			}
			switch {
			case f == 1 && b == nil: // Sample.location_id, unpacked
				ids = append(ids, v)
			case f == 1:
				if ids, err = appendPacked(ids, b); err != nil {
					return err
				}
			case f == 2 && b == nil: // Sample.value, unpacked
				vals = append(vals, v)
			case f == 2:
				if vals, err = appendPacked(vals, b); err != nil {
					return err
				}
			}
		}
		if len(vals) == 0 {
			continue
		}
		var stack []frame
		for _, id := range ids {
			for _, fid := range locs[id] {
				f := funcs[fid]
				stack = append(stack, frame{name: str(f.name), file: str(f.file)})
			}
		}
		n := int64(vals[0]) // samples/count
		b, inShard := bucket(stack)
		lp.counts[b] += n
		lp.total += n
		if inShard {
			lp.shard += n
		}
	}
	return nil
}

// pbReader walks the fields of one protobuf message.
type pbReader struct{ b []byte }

func (r *pbReader) done() bool { return len(r.b) == 0 }

func (r *pbReader) varint() (uint64, error) {
	var x uint64
	for i := 0; i < 10 && i < len(r.b); i++ {
		c := r.b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			r.b = r.b[i+1:]
			return x, nil
		}
	}
	return 0, errors.New("profile: bad varint")
}

// next returns the next field: its number and either a varint value or,
// for a length-delimited field, its bytes (nil for other wire types).
func (r *pbReader) next() (field int, val uint64, body []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, nil, errors.New("profile: truncated fixed64")
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errors.New("profile: truncated field")
			}
			body, r.b = r.b[:n:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, nil, errors.New("profile: truncated fixed32")
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return field, val, body, err
}

func appendPacked(dst []uint64, b []byte) ([]uint64, error) {
	r := pbReader{b}
	for !r.done() {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}
