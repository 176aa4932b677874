package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Layers names the host_share buckets: the repo's packages that the
// workloads reach, the Go runtime, the HTTP/JSON stack ("net") and the
// benchmark's own code including the profiler ("bench").
var layers = []string{
	"sim", "engine", "gpu", "cache", "tlb", "ptw", "dram", "memreq", "workload",
	"pagetable", "rng", "metrics", "telemetry", "streamio", "snapshot",
	"experiments", "simcache", "maskd", "runtime", "net", "bench",
}

// layerOf maps a profile function name to its layer, or "" for a package
// that is no layer of its own (sort, math, fmt, syscall, ...): a sample whose
// leaf sits there is charged to its nearest caller that has a layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "type:") { // compiler-generated equality and hash
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	hasPrefix := func(p string) bool { return pkg == p || strings.HasPrefix(pkg, p+"/") }
	switch {
	case pkg == "masksim" || pkg == "masksim/sim":
		return "sim"
	case strings.HasPrefix(pkg, "masksim/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "masksim/internal/"), "/")
		return name
	case pkg == "main" || pkg == "runtime/pprof":
		return "bench"
	case hasPrefix("runtime") || hasPrefix("internal/runtime") || hasPrefix("sync") ||
		pkg == "internal/bytealg" || pkg == "internal/abi" || pkg == "internal/sync":
		return "runtime"
	case hasPrefix("net") || hasPrefix("mime") || pkg == "encoding/json" || hasPrefix("vendor/golang.org/x/net"):
		return "net"
	}
	return ""
}

// layerTally counts CPU-profile samples per layer.
type layerTally struct {
	total   int64
	byLayer map[string]int64
	// unattributed counts samples with no layer anywhere on their stack,
	// by leaf function.
	unattributed map[string]int64
}

// add decodes one gzipped pprof profile and tallies its samples.
func (t *layerTally) add(gz []byte) error {
	if t.byLayer == nil {
		t.byLayer = map[string]int64{}
		t.unattributed = map[string]int64{}
	}
	p, err := decodeProfile(gz)
	if err != nil {
		return fmt.Errorf("decode CPU profile: %w", err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, s := range p.samples {
		t.total += s.count
		stack := p.stack(s.locs)
		layer := ""
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		if known[layer] {
			t.byLayer[layer] += s.count
			continue
		}
		leaf := "<no frames>"
		if len(stack) > 0 {
			leaf = stack[0]
		}
		t.unattributed[leaf] += s.count
	}
	return nil
}

// setShares sets host_share.<layer> for every layer, and
// host_share.unattributed.
func (t *layerTally) setShares(rep *report) {
	for _, l := range layers {
		rep.set("host_share."+l, t.share(t.byLayer[l]), "frac")
	}
	rep.set("host_share.unattributed", 1-t.share(t.named()), "frac")
}

func (t *layerTally) share(n int64) float64 {
	if t.total == 0 {
		return 0
	}
	return float64(n) / float64(t.total)
}

func (t *layerTally) named() int64 {
	var n int64
	for _, l := range layers {
		n += t.byLayer[l]
	}
	return n
}

// check notes one phase's layer breakdown and the leaves of its
// unattributed samples, and records the coverage check as an op: at least
// 95% of the samples must land in a named layer.
func (t *layerTally) check(rep *report, phase string) {
	var parts []string
	for _, l := range layers {
		if s := t.share(t.byLayer[l]); s >= 0.005 {
			parts = append(parts, fmt.Sprintf("%s %.3f", l, s))
		}
	}
	rep.notef("profile %s: %d samples: %s", phase, t.total, strings.Join(parts, ", "))
	leaves := make([]string, 0, len(t.unattributed))
	for fn := range t.unattributed {
		leaves = append(leaves, fn)
	}
	sort.Slice(leaves, func(i, j int) bool { return t.unattributed[leaves[i]] > t.unattributed[leaves[j]] })
	for _, fn := range leaves {
		rep.notef("profile %s: unattributed sample leaf %s x%d", phase, fn, t.unattributed[fn])
	}
	problem := ""
	if coverage := t.share(t.named()); coverage < 0.95 {
		problem = fmt.Sprintf("only %.1f%% of %d samples in named layers (need 95%%)", 100*coverage, t.total)
	}
	rep.op("profile layer coverage, "+phase, problem)
}

// cpuProfile is the part of a pprof profile.proto the tally needs.
type cpuProfile struct {
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strs     []string
}

type pbSample struct {
	locs  []uint64 // leaf first
	count int64
}

// stack returns a sample's function names, leaf first.
func (p *cpuProfile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locFuncs[l] {
			if i := p.funcName[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// decodeProfile parses a gzipped profile.proto (github.com/google/pprof
// proto/profile.proto). Only sample (2), location (4), function (5) and
// string_table (6) are read.
func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s pbSample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					values = appendPacked(values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
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
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

// appendPacked appends a repeated scalar field that arrived either as one
// varint (v, b == nil) or packed into a length-delimited run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
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

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message, passing varints as v
// and length-delimited fields as b (non-nil). Fixed-width fields are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errProto
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}
