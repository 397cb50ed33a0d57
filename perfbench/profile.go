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

// cpuProfile is the part of a runtime/pprof CPU profile the per-layer
// attribution needs: each sample as its stack of function names, leaf
// first, with the CPU nanoseconds it stands for.
type cpuProfile struct {
	stacks [][]string
	ns     []int64
}

// parseCPUProfile decodes a gzipped profile.proto message as written by
// runtime/pprof. Only samples, locations, functions and the string table are
// read; everything else is skipped.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
		valueIdx  = -1 // index of the "cpu"/"nanoseconds" sample value
		types     [][2]int64
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
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
	for i, t := range types {
		if t[1] >= 0 && int(t[1]) < len(strs) && strs[t[1]] == "nanoseconds" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	name := func(fn uint64) string {
		i, ok := funcNames[fn]
		if !ok || i < 0 || int(i) >= len(strs) {
			return "?"
		}
		return strs[i]
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, name(fn))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.ns = append(p.ns, s.values[valueIdx])
	}
	return p, nil
}

// eachField walks the top-level fields of one protobuf message. For a varint
// field fn gets the value in v; for a length-delimited field, the bytes in
// b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire == 0 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}

// attribution accumulates CPU time across profiles: self time by layer and
// cumulative time under named entry points.
type attribution struct {
	total int64
	self  map[string]int64
	under map[string]int64
	// usCalendar is calendar self time under gauss.RunUS: the placement
	// cost of the uncached run's word-by-word references.
	usCalendar int64
}

func newAttribution() *attribution {
	return &attribution{self: map[string]int64{}, under: map[string]int64{}}
}

// entryPoints are the functions whose cumulative share the traced run
// reports, keyed by metric name; a sample counts once however many frames
// match. Runtime GC work is attributed by the runtime's own entry points.
var entryPoints = map[string][]string{
	"machine.sweep_share":      {"butterfly/internal/machine.(*Machine).Sweep"},
	"sim.handoff_share":        {"butterfly/internal/sim.(*Proc).park"},
	"switchnet.transit_share":  {"butterfly/internal/switchnet.(*Network).Transit"},
	"chrysalis.spinlock_share": {"butterfly/internal/chrysalis.(*SpinLock).Lock"},
	"runtime.gc_share": {
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	},
}

// add folds one profile into the attribution.
func (a *attribution) add(p *cpuProfile) {
	for i, stack := range p.stacks {
		ns := p.ns[i]
		a.total += ns
		leaf := "?"
		if len(stack) > 0 {
			leaf = layerOf(stack[0])
		}
		a.self[leaf] += ns
		for metric, fns := range entryPoints {
			if hasFrame(stack, fns) {
				a.under[metric] += ns
			}
		}
		if leaf == "calendar" && hasFrame(stack, []string{"butterfly/internal/apps/gauss.RunUS"}) {
			a.usCalendar += ns
		}
	}
}

// hasFrame reports whether the stack holds one of the functions or a
// closure inside one: simulated processors run their bodies as closures on
// goroutines of their own, so RunUS itself is never on their stacks.
func hasFrame(stack, fns []string) bool {
	for _, f := range stack {
		for _, want := range fns {
			if f == want || strings.HasPrefix(f, want+".func") {
				return true
			}
		}
	}
	return false
}

// selfShare is a layer's share of all sampled CPU time, 0 with no samples.
func (a *attribution) selfShare(layer string) float64 { return a.share(a.self[layer]) }

func (a *attribution) share(ns int64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(ns) / float64(a.total)
}

// top lists the n layers with the most self time, with their shares.
func (a *attribution) top(n int) string {
	layers := make([]string, 0, len(a.self))
	for l := range a.self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return a.self[layers[i]] > a.self[layers[j]] })
	if len(layers) > n {
		layers = layers[:n]
	}
	parts := make([]string, len(layers))
	for i, l := range layers {
		parts[i] = fmt.Sprintf("%s %.3f", l, a.selfShare(l))
	}
	return strings.Join(parts, ", ")
}

// layerOf maps a function symbol to the layer label the metrics use: the
// last element of a butterfly package path ("calendar", "lab", "gauss"),
// the standard-library path with "/" as "_" ("net_http"), and the raw
// syscall packages folded into "syscall".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may hold '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "butterfly/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix":
		return "syscall"
	}
	return strings.ReplaceAll(pkg, "/", "_")
}
