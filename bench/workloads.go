package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"hostsim"
	"hostsim/internal/figures"
)

// workload is one benchmark scenario. Each one stresses a different part
// of the simulator; README.md records why each is in the set.
type workload struct {
	name      string
	opsPerSet int // timed ops in a fixed-count set, split evenly over the rounds
	// start prepares the scenario for one seed. window > 0 replaces both
	// the warm-up and the measurement window (the smoke test's short runs);
	// golden, when set, names the file fig3a's rendered output must equal.
	start func(seed int64, window time.Duration, golden string) (instance, error)
}

// instance is a workload ready to run at one seed.
type instance struct {
	// run is one op, the part that is timed: one hostsim.Run, or one figure
	// regeneration, which yields rendered text instead of a Result.
	run func() (*hostsim.Result, string, error)
	// setup is one build-only run: the same set-up with zero simulated time.
	setup func() error
	// expect, when set, is the digest every op must produce; otherwise
	// every op must match the first.
	expect string
	// check returns the op's extra correctness problems, if any.
	check func(*hostsim.Result) []string
}

// workloads is the benchmark's fixed scenario set, in report order.
var workloads = []workload{
	{name: "iperf", opsPerSet: 480, start: plain(func(seed int64) (hostsim.Config, hostsim.Workload) {
		return baseConfig(seed, 20, 30), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	})},
	{name: "rpc_incast", opsPerSet: 420, start: plain(func(seed int64) (hostsim.Config, hostsim.Workload) {
		return baseConfig(seed, 20, 30), hostsim.RPCIncastWorkload(16, 4096)
	})},
	{name: "lossy_mixed", opsPerSet: 420, start: plain(func(seed int64) (hostsim.Config, hostsim.Workload) {
		cfg := baseConfig(seed, 20, 30)
		cfg.LossRate = 0.005
		return cfg, hostsim.MixedWorkload(4, 16384)
	})},
	{name: "incast64", opsPerSet: 150, start: plain(func(seed int64) (hostsim.Config, hostsim.Workload) {
		cfg := baseConfig(seed, 15, 20)
		cfg.Fabric = &hostsim.FabricOptions{Hosts: 64}
		return cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
	})},
	{name: "observed16", opsPerSet: 180, start: startObserved16},
	{name: "fig3a", opsPerSet: 120, start: startFig3a},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func baseConfig(seed int64, warmupMS, durationMS int) hostsim.Config {
	return hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: seed,
		Warmup:   time.Duration(warmupMS) * time.Millisecond,
		Duration: time.Duration(durationMS) * time.Millisecond,
	}
}

// withWindows returns cfg with both windows set to d (d > 0), or cfg
// unchanged.
func withWindows(cfg hostsim.Config, d time.Duration) hostsim.Config {
	if d > 0 {
		cfg.Warmup, cfg.Duration = d, d
	}
	return cfg
}

// scenario is one hostsim.Run per op; the build-only run is the same
// Config with 1 ns windows, so it covers host construction, fabric wiring,
// workload build and observer attach.
func scenario(cfg hostsim.Config, wl hostsim.Workload) instance {
	build := withWindows(cfg, time.Nanosecond)
	return instance{
		run: func() (*hostsim.Result, string, error) {
			res, err := hostsim.Run(cfg, wl)
			return res, "", err
		},
		setup: func() error {
			_, err := hostsim.Run(build, wl)
			return err
		},
	}
}

// plain starts a workload whose op is one Run of a fixed Config, checked
// only for determinism.
func plain(mk func(seed int64) (hostsim.Config, hostsim.Workload)) func(int64, time.Duration, string) (instance, error) {
	return func(seed int64, window time.Duration, _ string) (instance, error) {
		cfg, wl := mk(seed)
		return scenario(withWindows(cfg, window), wl), nil
	}
}

// startObserved16 arms every observer on a buffered 16-host incast. Pcap
// stays off: InspectOptions with pcap panics on fabrics of more than two
// hosts. Every op must match the same run with all observers off, which
// the worker computes once at start.
func startObserved16(seed int64, window time.Duration, _ string) (instance, error) {
	cfg := withWindows(baseConfig(seed, 20, 30), window)
	cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}
	wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
	twin, err := hostsim.Run(cfg, wl)
	if err != nil {
		return instance{}, fmt.Errorf("observers-off twin: %w", err)
	}
	cfg.Check = &hostsim.CheckOptions{Collect: true}
	cfg.Inspect = &hostsim.InspectOptions{Probe: true, SS: true}
	cfg.Telemetry = &hostsim.Telemetry{}
	cfg.Profile = &hostsim.ProfileOptions{}
	cfg.MsgTrace = &hostsim.MsgTraceOptions{}
	cfg.FabricObs = &hostsim.FabricObsOptions{}
	cfg.TraceEvents = 4096
	cfg.TraceSpans = true
	inst := scenario(cfg, wl)
	inst.expect = digest(twin, "")
	inst.check = observedProblems
	return inst, nil
}

// observedProblems reports invariant violations and every armed observer
// that produced an empty artifact.
func observedProblems(r *hostsim.Result) []string {
	var out []string
	for _, v := range r.Violations {
		out = append(out, "violation: "+v.Error())
	}
	for _, a := range []struct {
		name  string
		empty bool
	}{
		{"telemetry timeline", r.Timeline.Len() == 0},
		{"cycle profile", len(r.CycleProfile) == 0 || r.LatencyBreakdown == nil},
		{"message latency", r.MessageLatency == nil || r.MessageLatency.Count == 0},
		{"probe trace", r.ProbeTrace == nil || r.ProbeTrace.Len() == 0},
		{"socket snapshots", r.SocketSnapshots.Len() == 0},
		{"fabric port reports", len(r.PortReports) == 0},
		{"fabric timeline", r.FabricTimeline.Len() == 0},
		{"event trace", len(r.Trace) == 0},
	} {
		if a.empty {
			out = append(out, "empty artifact: "+a.name)
		}
	}
	return out
}

// startFig3a regenerates Fig. 3a through internal/figures and its
// parallel runner, clearing the run memo so every op simulates afresh.
// The build-only run is the same regeneration with 1 ns windows.
func startFig3a(seed int64, window time.Duration, golden string) (instance, error) {
	e, ok := figures.ByID("fig3a")
	if !ok {
		return instance{}, fmt.Errorf("figures: no fig3a")
	}
	rc := figures.Default()
	rc.Seed, rc.Jobs = seed, 2
	if window > 0 {
		rc.Warmup, rc.Duration = window, window
	}
	build := rc
	build.Warmup, build.Duration = time.Nanosecond, time.Nanosecond
	inst := instance{
		run: func() (*hostsim.Result, string, error) {
			figures.ClearCache()
			tbl, err := e.Run(rc)
			if err != nil {
				return nil, "", err
			}
			// Exactly what `figures -fig fig3a` prints and the golden holds.
			return nil, tbl.String() + fmt.Sprintf("paper: %s\n\n", e.Paper), nil
		},
		setup: func() error {
			figures.ClearCache()
			_, err := e.Run(build)
			return err
		},
	}
	if golden != "" {
		want, err := os.ReadFile(golden)
		if err != nil {
			return instance{}, err
		}
		inst.expect = digest(nil, string(want))
	}
	return inst, nil
}

// fingerprint renders the deterministic fields of a Result: throughput,
// every host's stats, every flow's terminal TCP state, the fabric totals
// and the RPC counts. Maps print in sorted key order, so equal physics
// give equal strings.
func fingerprint(r *hostsim.Result) string {
	return fmt.Sprintf("thpt=%v tpc=%v long=%v rpc=%d rpcGbps=%v flowGbps=%v hosts=%+v flows=%+v fabric=%+v",
		r.ThroughputGbps, r.ThroughputPerCoreGbps, r.LongFlowGbps, r.RPCCompleted, r.RPCGbps,
		r.FlowGbps, r.Hosts, r.Flows, r.Fabric)
}

// digest is the SHA-256 of an op's output: the Result's fingerprint, or
// the rendered text when the op produced no Result.
func digest(r *hostsim.Result, text string) string {
	if r != nil {
		text = fingerprint(r)
	}
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// simNames lists the simulated work counts read from each op's Result.
// They are deterministic: a change that only speeds up the simulator must
// leave them unchanged.
var simNames = []string{
	"sim.delivered_mb", "sim.rpc_completed", "sim.retransmits", "sim.timeouts",
	"sim.acks_sent", "sim.nic_drops", "sim.fabric_frames", "sim.fabric_drops",
	"sim.fabric_marks", "sim.cache_miss_rate",
}

// simCounts reads the simulated work counts of one op; a figure op has no
// single Result and reports zeros.
func simCounts(r *hostsim.Result) map[string]float64 {
	m := make(map[string]float64, len(simNames))
	for _, n := range simNames {
		m[n] = 0
	}
	if r == nil {
		return m
	}
	for _, h := range r.Hosts {
		m["sim.delivered_mb"] += h.CopiedGB * 1000
		m["sim.retransmits"] += float64(h.Retransmits)
		m["sim.acks_sent"] += float64(h.AcksSent)
		m["sim.nic_drops"] += float64(h.NICDrops)
	}
	for _, f := range r.Flows {
		m["sim.timeouts"] += float64(f.Timeouts)
	}
	m["sim.rpc_completed"] = float64(r.RPCCompleted)
	if f := r.Fabric; f != nil {
		m["sim.fabric_frames"] = float64(f.InFrames)
		m["sim.fabric_drops"] = float64(f.BufferDrops + f.LossDrops)
		m["sim.fabric_marks"] = float64(f.Marked)
	}
	m["sim.cache_miss_rate"] = r.Receiver.CacheMissRate
	return m
}
