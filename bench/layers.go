package main

import (
	"fmt"
	"strings"

	"hostsim/internal/profile"
)

// layerNames lists the per-layer buckets in report order. Most are
// hostsim/internal packages; hostsim is the root package, driver, support
// and runtime group several packages (see layerOf).
var layerNames = []string{
	"sim", "cache", "nic", "exec", "core", "tcp", "skb", "mem", "wire", "fabric",
	"hostsim", "driver", "support",
	"trace", "telemetry", "profile", "check", "inspect", "mtrace", "fabricobs",
	"runtime",
}

// layerOf maps a hostsim/internal package to its layer where the two
// names differ. Packages not listed here and not in layerNames go to
// support.
var layerOf = map[string]string{
	"runner": "driver", "figures": "driver", "validate": "driver", "sweeps": "driver",
}

// funcPackage returns the import path of a function as runtime/pprof
// names it, e.g. "hostsim/internal/sim" for
// "hostsim/internal/sim.(*Engine).Run.func1".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic instantiation
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hostsimLayer returns the layer of a hostsim package, and false for any
// package outside the module.
func hostsimLayer(pkg string) (string, bool) {
	if pkg == "hostsim" {
		return "hostsim", true
	}
	rest, ok := strings.CutPrefix(pkg, "hostsim/")
	if !ok {
		return "", false
	}
	rest = strings.TrimPrefix(rest, "internal/")
	rest, _, _ = strings.Cut(rest, "/")
	if l, ok := layerOf[rest]; ok {
		return l, true
	}
	for _, l := range layerNames {
		if l == rest {
			return l, true
		}
	}
	return "support", true
}

// classify charges one sample, given as a stack of function names root
// first, to the layer of its leaf-most hostsim frame, or to runtime when
// it has none. The runtime and standard-library frames below that frame
// go to the same layer; mapped and alloc report whether those frames do
// map access, or allocation (mallocgc, GC assist, memclr).
func classify(stack []string) (layer string, mapped, alloc bool) {
	layer, tail := "runtime", stack
	for i := len(stack) - 1; i >= 0; i-- {
		if l, ok := hostsimLayer(funcPackage(stack[i])); ok {
			layer, tail = l, stack[i+1:]
			break
		}
	}
	for _, fn := range tail {
		mapped = mapped || strings.HasPrefix(fn, "runtime.map") || strings.HasPrefix(fn, "internal/runtime/maps.")
		alloc = alloc || strings.HasPrefix(fn, "runtime.mallocgc") ||
			strings.HasPrefix(fn, "runtime.gcAssistAlloc") || strings.HasPrefix(fn, "runtime.memclr")
	}
	return layer, mapped, alloc
}

// layerProfile is a CPU profile bucketed by layer.
type layerProfile struct {
	Samples int64            `json:"samples"`
	LayerNS map[string]int64 `json:"layer_ns"` // CPU time per layer
	MapNS   int64            `json:"map_ns"`   // overlapping views, not
	AllocNS int64            `json:"alloc_ns"` // summed with the layers
}

func (lp *layerProfile) add(p layerProfile) {
	lp.Samples += p.Samples
	lp.MapNS += p.MapNS
	lp.AllocNS += p.AllocNS
	for l, ns := range p.LayerNS {
		lp.LayerNS[l] += ns
	}
}

// bucket decodes a runtime/pprof CPU profile with the in-repo parser and
// sums its CPU time per layer.
func bucket(data []byte) (layerProfile, error) {
	p, err := profile.ParseData(data)
	if err != nil {
		return layerProfile{}, err
	}
	count, cpu := -1, -1
	for i, st := range p.SampleTypes {
		switch st.Type {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return layerProfile{}, fmt.Errorf("not a CPU profile: sample types %v", p.SampleTypes)
	}
	lp := layerProfile{LayerNS: make(map[string]int64, len(layerNames))}
	for _, l := range layerNames {
		lp.LayerNS[l] = 0
	}
	for _, s := range p.Samples {
		layer, mapped, alloc := classify(s.Stack)
		ns := s.Values[cpu]
		lp.Samples += s.Values[count]
		lp.LayerNS[layer] += ns
		if mapped {
			lp.MapNS += ns
		}
		if alloc {
			lp.AllocNS += ns
		}
	}
	return lp, nil
}
