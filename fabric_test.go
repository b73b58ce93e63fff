package hostsim_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"hostsim"
)

// fabCfg is the shared fabric-test configuration: short windows keep the
// many-host scenarios fast, the checker is armed fail-fast so any
// conservation break aborts the run.
func fabCfg(hosts int) hostsim.Config {
	return hostsim.Config{
		Stack:    hostsim.AllOptimizations(),
		Seed:     7,
		Warmup:   10 * time.Millisecond,
		Duration: 15 * time.Millisecond,
		Check:    &hostsim.CheckOptions{},
		Fabric:   &hostsim.FabricOptions{Hosts: hosts},
	}
}

// TestFabricIncast16Checked runs a 16-host incast with every
// conservation-law audit armed; a single violation fails the run.
func TestFabricIncast16Checked(t *testing.T) {
	res, err := hostsim.Run(fabCfg(16), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 16 {
		t.Fatalf("got %d host stats, want 16", len(res.Hosts))
	}
	if len(res.FlowGbps) != 15 {
		t.Fatalf("got %d flows, want 15", len(res.FlowGbps))
	}
	if res.ThroughputGbps <= 0 {
		t.Fatalf("no goodput: %v", res.ThroughputGbps)
	}
	if res.Fabric == nil || res.Fabric.Delivered == 0 {
		t.Fatalf("fabric stats missing or empty: %+v", res.Fabric)
	}
	if res.Fabric.BufferDrops != 0 {
		t.Fatalf("unbounded buffer dropped %d frames", res.Fabric.BufferDrops)
	}
}

// TestFabricIncast64Checked is the acceptance-scale run: 64 hosts into
// one, checker armed, zero violations tolerated (fail-fast would error).
func TestFabricIncast64Checked(t *testing.T) {
	if testing.Short() {
		t.Skip("64-host incast is slow; skipped with -short")
	}
	cfg := fabCfg(64)
	cfg.Warmup = 8 * time.Millisecond
	cfg.Duration = 10 * time.Millisecond
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 64 || len(res.FlowGbps) != 63 {
		t.Fatalf("got %d hosts / %d flows, want 64 / 63", len(res.Hosts), len(res.FlowGbps))
	}
	if res.ThroughputGbps <= 0 {
		t.Fatalf("no goodput: %v", res.ThroughputGbps)
	}
}

// TestFabricPatterns exercises every long-flow pattern on a small fabric
// with the checker armed, pinning the expected flow counts.
func TestFabricPatterns(t *testing.T) {
	for _, tc := range []struct {
		pattern hostsim.Pattern
		hosts   int
		flows   int
	}{
		{hostsim.PatternSingle, 4, 1},
		{hostsim.PatternOneToOne, 6, 3},
		{hostsim.PatternIncast, 8, 7},
		{hostsim.PatternOutcast, 8, 7},
		{hostsim.PatternAllToAll, 4, 12},
	} {
		t.Run(fmt.Sprintf("%s-%dhosts", tc.pattern, tc.hosts), func(t *testing.T) {
			res, err := hostsim.Run(fabCfg(tc.hosts), hostsim.LongFlowWorkload(tc.pattern, 0))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FlowGbps) != tc.flows {
				t.Fatalf("got %d flows, want %d", len(res.FlowGbps), tc.flows)
			}
			if res.ThroughputGbps <= 0 {
				t.Fatalf("no goodput: %v", res.ThroughputGbps)
			}
		})
	}
}

// TestFabricSharedBufferDropsAndECN pins that a tight shared buffer
// produces dynamic-threshold drops under incast and that the per-port ECN
// threshold produces CE marks, both visible in Result.Fabric.
func TestFabricSharedBufferDropsAndECN(t *testing.T) {
	cfg := fabCfg(8)
	cfg.Fabric.SharedBufferKB = 256
	cfg.ECNMarkKB = 64
	cfg.Stack.CC = "dctcp"
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fabric.BufferDrops == 0 {
		t.Error("256KB shared buffer under 7:1 incast produced no drops")
	}
	if res.Fabric.Marked == 0 {
		t.Error("64KB ECN threshold under incast produced no CE marks")
	}
	if res.ThroughputGbps <= 0 {
		t.Fatalf("no goodput: %v", res.ThroughputGbps)
	}
}

// TestFabricRejects pins the configuration errors for unsupported
// fabric-mode combinations.
func TestFabricRejects(t *testing.T) {
	base := fabCfg(4)
	cases := []struct {
		name string
		cfg  hostsim.Config
		wl   hostsim.Workload
	}{
		{"rpc", base, hostsim.RPCIncastWorkload(4, 4096)},
		{"mixed", base, hostsim.MixedWorkload(4, 4096)},
		{"remoteNUMA", base, hostsim.Workload{Kind: "long", Pattern: hostsim.PatternSingle, RemoteNUMA: true}},
		{"odd-one-to-one", fabCfg(5), hostsim.LongFlowWorkload(hostsim.PatternOneToOne, 0)},
		{"hosts=1", hostsim.Config{Fabric: &hostsim.FabricOptions{Hosts: 1}}, hostsim.LongFlowWorkload(hostsim.PatternSingle, 0)},
		{"hosts=500", hostsim.Config{Fabric: &hostsim.FabricOptions{Hosts: 500}}, hostsim.LongFlowWorkload(hostsim.PatternSingle, 0)},
		{"short-names", hostsim.Config{Fabric: &hostsim.FabricOptions{Hosts: 4, HostNames: []string{"a"}}}, hostsim.LongFlowWorkload(hostsim.PatternSingle, 0)},
	}
	for _, tc := range cases {
		if _, err := hostsim.Run(tc.cfg, tc.wl); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
}

// sortFlows orders terminal flow stats by tx flow id for comparison.
func sortFlows(fs []hostsim.FlowStats) []hostsim.FlowStats {
	out := append([]hostsim.FlowStats(nil), fs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}

// fabricFingerprint renders every deterministic measurement of a fabric
// run except host names, so relabeled runs can compare equal: the
// top-line numbers, every per-host stat block in port order, and the
// switch counters.
func fabricFingerprint(r *hostsim.Result) string {
	return fmt.Sprintf("dur=%v thpt=%v tpc=%v longGbps=%v flows=%v fair=%v hosts=%+v fab=%+v",
		r.Duration, r.ThroughputGbps, r.ThroughputPerCoreGbps, r.LongFlowGbps,
		r.FlowGbps, r.FairnessIndex, r.Hosts, r.Fabric)
}

// TestFabricIncastN1MatchesDirect pins that port order and placement do
// not move the physics: an explicit 2-host fabric whose 1:1 "incast"
// puts the server on port 0 must reproduce the default pair's single
// flow (sender on port 0, core-based placement) byte for byte. Naming
// the fabric hosts after the pair (receiver on port 0) makes every field
// comparable, Bottleneck and Flows included.
func TestFabricIncastN1MatchesDirect(t *testing.T) {
	pair, err := hostsim.Run(metaCfg(hostsim.AllOptimizations()), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := metaCfg(hostsim.AllOptimizations())
	cfg.Fabric = &hostsim.FabricOptions{Hosts: 2, HostNames: []string{"receiver", "sender"}}
	fab, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fingerprint(pair), fingerprint(fab); a != b {
		t.Errorf("2-host fabric diverged from the default pair:\n  pair: %s\nfabric: %s", a, b)
	}
	df, ff := sortFlows(pair.Flows), sortFlows(fab.Flows)
	if a, b := fmt.Sprintf("%+v", df), fmt.Sprintf("%+v", ff); a != b {
		t.Errorf("terminal flow stats diverged:\n  pair: %s\nfabric: %s", a, b)
	}
}

// TestFabricRelabelInvariance pins that HostNames is labeling only:
// renaming every host must not move a single measurement, and the
// bottleneck must map to the same port.
func TestFabricRelabelInvariance(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
	base, err := hostsim.Run(fabCfg(8), wl)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("rack7-node%c", 'a'+i)
	}
	cfg := fabCfg(8)
	cfg.Fabric.HostNames = names
	renamed, err := hostsim.Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fabricFingerprint(base), fabricFingerprint(renamed); a != b {
		t.Errorf("relabeling changed the physics:\n  base: %s\nrename: %s", a, b)
	}
	// The default incast bottleneck is port 0 (host000, the server);
	// renamed, the same port must win under its new name.
	if base.Bottleneck != "host000" || renamed.Bottleneck != names[0] {
		t.Errorf("bottleneck moved under relabeling: %q vs %q", base.Bottleneck, renamed.Bottleneck)
	}
}

// TestFabricBufferPressure walks a shrinking shared buffer under the same
// incast. Total drops over a fixed window are NOT monotone in buffer size
// — TCP is closed-loop, so a tighter buffer makes senders back off harder
// and can lower the drop count (frame-for-frame monotonicity holds only
// open-loop; internal/fabric pins it against a fixed arrival schedule).
// What must hold end to end: the unbounded pool never drops, every
// bounded pool drops under 7:1 incast pressure, and squeezing the buffer
// to a sliver costs goodput (the §3.4 collapse mechanism).
func TestFabricBufferPressure(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
	run := func(kb int) *hostsim.Result {
		cfg := fabCfg(8)
		cfg.Fabric.SharedBufferKB = kb
		res, err := hostsim.Run(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("buffer %5dKB: %6d drops, %6.2f Gbps", kb, res.Fabric.BufferDrops, res.ThroughputGbps)
		return res
	}
	unbounded := run(0)
	if unbounded.Fabric.BufferDrops != 0 {
		t.Fatalf("unbounded buffer dropped %d frames", unbounded.Fabric.BufferDrops)
	}
	for _, kb := range []int{4096, 1024, 256, 64} {
		if res := run(kb); res.Fabric.BufferDrops == 0 {
			t.Errorf("%dKB shared buffer under 7:1 incast produced no drops", kb)
		}
	}
	if tiny := run(64); tiny.ThroughputGbps >= unbounded.ThroughputGbps {
		t.Errorf("64KB buffer did not cost goodput: %.2f Gbps vs unbounded %.2f Gbps",
			tiny.ThroughputGbps, unbounded.ThroughputGbps)
	}
}

// TestFabricDeterminismAcrossJobs extends the batch-determinism property
// to fabric topologies: every multi-host scenario must be bit-identical
// between -jobs 1 and -jobs 8.
func TestFabricDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property")
	}
	mk := func(hosts, bufKB int, p hostsim.Pattern) hostsim.Job {
		cfg := fabCfg(hosts)
		cfg.Check = nil // determinism property, not a conservation one
		cfg.Fabric.SharedBufferKB = bufKB
		return hostsim.Job{Config: cfg, Workload: hostsim.LongFlowWorkload(p, 0)}
	}
	jobs := []hostsim.Job{
		mk(16, 0, hostsim.PatternIncast),
		mk(8, 512, hostsim.PatternIncast),
		mk(8, 0, hostsim.PatternOutcast),
		mk(4, 0, hostsim.PatternAllToAll),
		mk(6, 0, hostsim.PatternOneToOne),
	}
	serial, err := hostsim.RunMany(jobs, hostsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := hostsim.RunMany(jobs, hostsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if a, b := fabricFingerprint(serial[i]), fabricFingerprint(par[i]); a != b {
			t.Errorf("fabric job %d diverged between -jobs 1 and -jobs 8:\n serial: %s\n   par8: %s", i, a, b)
		}
	}
}
