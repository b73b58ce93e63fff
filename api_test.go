package hostsim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

// quickCfg is a short window for API-surface tests.
func quickCfg(s Stack) Config {
	return Config{Stack: s, Seed: 5, Warmup: 6 * time.Millisecond, Duration: 8 * time.Millisecond}
}

// A Config's JSON is the figures' run-memo key, and bench's specs and the
// fuzz targets fill Stack and Tuning field by field, so the names and the
// order of those fields are pinned: a rename or a reorder of either
// struct fails here.
func TestConfigJSONPinned(t *testing.T) {
	cfg := Config{
		Stack: Stack{TSO: true, GSO: true, GRO: true, LRO: true, JumboFrames: true, ARFS: true, DCA: true, IOMMU: true,
			CC: "dctcp", Steering: "rfs", ZeroCopyTx: true, ZeroCopyRx: true, DCAAwareDRS: true, RcvSchedulerK: 2,
			RxDescriptors: 256, RcvBufBytes: 3 << 20, SndBufBytes: 1 << 20},
		Tuning: &Tuning{TSQBytes: 1 << 17, SchedGranularity: 33 * time.Microsecond, ModerationDelay: 5 * time.Microsecond,
			PagesetCap: -1, DCAHazardFactor: 0.5},
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Stack":{"TSO":true,"GSO":true,"GRO":true,"LRO":true,"JumboFrames":true,"ARFS":true,"DCA":true,` +
		`"IOMMU":true,"CC":"dctcp","Steering":"rfs","ZeroCopyTx":true,"ZeroCopyRx":true,"DCAAwareDRS":true,` +
		`"RcvSchedulerK":2,"RxDescriptors":256,"RcvBufBytes":3145728,"SndBufBytes":1048576},` +
		`"Tuning":{"TSQBytes":131072,"SchedGranularity":33000,"ModerationDelay":5000,"PagesetCap":-1,"DCAHazardFactor":0.5},` +
		`"CostScale":null,"LinkGbps":0,"LossRate":0,"ECNMarkKB":0,"Warmup":0,"Duration":0,"Seed":0,` +
		`"TraceEvents":0,"TraceFlow":0,"TraceSpans":false,"Profile":null,"Telemetry":null,"Check":null,` +
		`"Inspect":null,"Fabric":null,"FabricObs":null,"MsgTrace":null}`
	if string(b) != want {
		t.Errorf("Config JSON =\n%s\nwant\n%s", b, want)
	}
}

// TestRunRejectsBadConfigs pins each bad input to its error. Several of
// them once panicked inside a constructor (a negative or overflowing ECN
// threshold, an overflowing link rate, duplicate host names under
// telemetry or socket snapshots) or were accepted silently (NaN loss or
// alpha, negative checker or trace bounds); Run now validates every input
// before it builds anything.
func TestRunRejectsBadConfigs(t *testing.T) {
	single := LongFlowWorkload(PatternSingle, 1)
	incast := LongFlowWorkload(PatternIncast, 0)
	stack := func(edit func(*Stack)) Config {
		s := AllOptimizations()
		edit(&s)
		return Config{Stack: s}
	}
	tuning := func(tn Tuning) Config { return Config{Stack: AllOptimizations(), Tuning: &tn} }
	fab := func(edit func(*Config)) Config {
		cfg := Config{Stack: AllOptimizations(), Fabric: &FabricOptions{Hosts: 3, HostNames: []string{"a", "a", "b"}}}
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		wl   Workload
		want string
	}{
		{"bad loss", Config{Stack: AllOptimizations(), LossRate: 1.5}, single, "hostsim: loss rate 1.5 outside [0,1]"},
		{"NaN loss", Config{Stack: AllOptimizations(), LossRate: math.NaN()}, single, "hostsim: loss rate NaN outside [0,1]"},
		{"bad cc", stack(func(s *Stack) { s.CC = "vegas" }), single, `core: unknown congestion control "vegas"`},
		{"bad steering", stack(func(s *Stack) { s.Steering = "magic" }), single, `hostsim: unknown steering "magic"`},
		{"lro+gro", stack(func(s *Stack) { s.LRO = true }), single, "core: LRO and GRO are mutually exclusive"},
		{"bad pattern", Config{Stack: AllOptimizations()}, LongFlowWorkload("ring", 2), `hostsim: unknown pattern "ring"`},
		{"bad kind", Config{Stack: AllOptimizations()}, Workload{Kind: "quic"}, `hostsim: unknown workload kind "quic"`},
		{"rpc no clients", Config{Stack: AllOptimizations()}, Workload{Kind: "rpc", RPCSize: 4096},
			"hostsim: rpc workload needs RPCClients and RPCSize"},
		{"rpc no size", Config{Stack: AllOptimizations()}, Workload{Kind: "rpc", RPCClients: 4},
			"hostsim: rpc workload needs RPCClients and RPCSize"},
		{"remote multi-flow", Config{Stack: AllOptimizations()},
			Workload{Kind: "long", Pattern: PatternIncast, N: 4, RemoteNUMA: true},
			"hostsim: RemoteNUMA supports the single pattern only"},
		{"remote mixed", Config{Stack: AllOptimizations()},
			Workload{Kind: "mixed", MixedShort: 2, RPCSize: 4096, RemoteNUMA: true},
			"hostsim: RemoteNUMA is not supported by the mixed workload"},
		{"negative duration", Config{Stack: AllOptimizations(), Duration: -time.Millisecond}, single,
			"hostsim: negative Warmup or Duration"},
		{"negative warmup", Config{Stack: AllOptimizations(), Warmup: -time.Millisecond, Duration: 5 * time.Millisecond},
			single, "hostsim: negative Warmup or Duration"},
		{"window overflow", Config{Stack: AllOptimizations(), Warmup: time.Millisecond, Duration: math.MaxInt64}, single,
			"hostsim: Warmup + Duration overflows"},
		{"negative trace events", Config{Stack: AllOptimizations(), TraceEvents: -1}, single, "hostsim: negative TraceEvents"},
		{"spans without events", Config{Stack: AllOptimizations(), TraceSpans: true}, single,
			"hostsim: TraceSpans requires TraceEvents > 0"},
		{"negative trace flow", Config{Stack: AllOptimizations(), TraceEvents: 10, TraceFlow: -1}, single,
			"hostsim: negative TraceFlow"},
		{"negative ECN threshold", Config{Stack: AllOptimizations(), ECNMarkKB: -5}, single, "hostsim: negative ECNMarkKB"},
		{"overflowing ECN threshold", Config{Stack: AllOptimizations(), ECNMarkKB: 1 << 60}, single,
			"hostsim: ECNMarkKB 1152921504606846976 exceeds 9007199254740991"},
		{"overflowing link rate", Config{Stack: AllOptimizations(), LinkGbps: 1 << 40}, single,
			"hostsim: LinkGbps 1099511627776 exceeds 9223372036"},
		{"negative link rate", Config{Stack: AllOptimizations(), LinkGbps: -1}, single, "hostsim: negative LinkGbps"},
		{"duplicate names, telemetry", fab(func(c *Config) { c.Telemetry = &Telemetry{} }), incast,
			`hostsim: duplicate Fabric.HostNames entry "a"`},
		{"duplicate names, ss", fab(func(c *Config) { c.Inspect = &InspectOptions{SS: true} }), incast,
			`hostsim: duplicate Fabric.HostNames entry "a"`},
		{"name with separator", fab(func(c *Config) { c.Fabric.HostNames = []string{"a", "a/core00", "b"} }), incast,
			`hostsim: Fabric.HostNames[1] "a/core00" contains '/'`},
		{"NaN alpha", fab(func(c *Config) { c.Fabric = &FabricOptions{Hosts: 4, Alpha: math.NaN()} }), incast,
			"hostsim: Fabric.Alpha NaN is not finite"},
		{"overflowing shared buffer", fab(func(c *Config) { c.Fabric = &FabricOptions{Hosts: 4, SharedBufferKB: math.MaxInt64} }),
			incast, "hostsim: Fabric.SharedBufferKB 9223372036854775807 exceeds 9007199254740991"},
		{"overflowing burst threshold", fab(func(c *Config) {
			c.Fabric = &FabricOptions{Hosts: 4}
			c.FabricObs = &FabricObsOptions{BurstThresholdKB: math.MaxInt64}
		}), incast, "hostsim: FabricObs.BurstThresholdKB 9223372036854775807 exceeds 9007199254740991"},
		{"send buffer below one skb", stack(func(s *Stack) { s.SndBufBytes = 67 }), single,
			"core: SndBufBytes 67 below the 65536-byte transmit skb"},
		{"negative Rx ring", stack(func(s *Stack) { s.RxDescriptors = -1 }), single, "core: negative RxDescriptors"},
		{"negative receive buffer", stack(func(s *Stack) { s.RcvBufBytes = -1 }), single, "core: negative RcvBufBytes"},
		{"negative send buffer", stack(func(s *Stack) { s.SndBufBytes = -1 }), single, "core: negative SndBufBytes"},
		{"spans with trace flow", Config{Stack: AllOptimizations(), TraceEvents: 10, TraceFlow: 1, TraceSpans: true}, single,
			"hostsim: TraceSpans needs TraceFlow 0: span events carry flow 0"},
		{"negative scheduler K", stack(func(s *Stack) { s.RcvSchedulerK = -2 }), single, "core: negative RcvSchedulerK"},
		{"negative TSQ bound", tuning(Tuning{TSQBytes: -1}), single, "core: negative TSQBytes"},
		{"negative granularity", tuning(Tuning{SchedGranularity: -time.Microsecond}), single, "core: negative SchedGranularity"},
		{"negative moderation delay", tuning(Tuning{ModerationDelay: -time.Microsecond}), single,
			"core: negative ModerationDelay"},
		{"pageset cap below -1", tuning(Tuning{PagesetCap: -7}), single, "core: PagesetCap -7 below -1 (none)"},
		{"NaN hazard", tuning(Tuning{DCAHazardFactor: math.NaN()}), single,
			"core: DCAHazardFactor NaN is neither -1 (off) nor finite and >= 0"},
		{"infinite hazard", tuning(Tuning{DCAHazardFactor: math.Inf(1)}), single,
			"core: DCAHazardFactor +Inf is neither -1 (off) nor finite and >= 0"},
		{"negative hazard", tuning(Tuning{DCAHazardFactor: -5}), single,
			"core: DCAHazardFactor -5 is neither -1 (off) nor finite and >= 0"},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg, c.wl); err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}
}

// TestBadOptionFailsBeforeBuild shows that validation finishes before any
// host exists: a bad observer option on a 256-host fabric costs a handful
// of allocations, not the cluster's build.
func TestBadOptionFailsBeforeBuild(t *testing.T) {
	fab := &FabricOptions{Hosts: 256}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fabricobs", Config{Stack: AllOptimizations(), Fabric: fab, FabricObs: &FabricObsOptions{SampleInterval: -1}},
			"hostsim: negative FabricObs option"},
		{"pcap", Config{Stack: AllOptimizations(), Fabric: fab, Check: &CheckOptions{}, Inspect: &InspectOptions{}},
			"hostsim: Inspect.Pcap captures a 2-host topology, not a 256-host fabric; set only Probe and/or SS"},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Run(c.cfg, LongFlowWorkload(PatternIncast, 0)); err == nil || err.Error() != c.want {
				t.Fatalf("%s: got error %v, want %q", c.name, err, c.want)
			}
		})
		if allocs > 64 {
			t.Errorf("%s: rejecting the option allocated %.0f objects; validation must finish before the build", c.name, allocs)
		}
	}
}

// TestPairWorkloadScaleErrors pins each out-of-range pair workload scale
// to its error: Run validates the scale before building anything, so a
// bad N, client count, short-flow count or RPC size never reaches the
// placement code. The single pattern is one flow and takes N 0 or 1.
func TestPairWorkloadScaleErrors(t *testing.T) {
	cases := []struct {
		wl   Workload
		want string
	}{
		{LongFlowWorkload(PatternIncast, 0), "hostsim: incast workload N 0 outside [1,24]"},
		{LongFlowWorkload(PatternIncast, 25), "hostsim: incast workload N 25 outside [1,24]"},
		{LongFlowWorkload(PatternOneToOne, 0), "hostsim: one-to-one workload N 0 outside [1,24]"},
		{LongFlowWorkload(PatternOneToOne, 25), "hostsim: one-to-one workload N 25 outside [1,24]"},
		{LongFlowWorkload(PatternOutcast, -1), "hostsim: outcast workload N -1 outside [1,24]"},
		{LongFlowWorkload(PatternOutcast, 25), "hostsim: outcast workload N 25 outside [1,24]"},
		{LongFlowWorkload(PatternAllToAll, 25), "hostsim: all-to-all workload N 25 outside [1,24]"},
		{RPCIncastWorkload(25, 4096), "hostsim: rpc workload RPCClients 25 exceeds 24 client cores"},
		{MixedWorkload(-1, 4096), "hostsim: negative mixed workload MixedShort -1"},
		{LongFlowWorkload(PatternSingle, 100), "hostsim: single workload N 100 outside [0,1]"},
		{LongFlowWorkload(PatternSingle, -1), "hostsim: single workload N -1 outside [0,1]"},
		{MixedWorkload(2, 0), "hostsim: mixed workload needs RPCSize"},
		{MixedWorkload(2, -4096), "hostsim: mixed workload needs RPCSize"},
	}
	for _, c := range cases {
		_, err := Run(quickCfg(AllOptimizations()), c.wl)
		if err == nil || err.Error() != c.want {
			t.Errorf("%+v: got error %v, want %q", c.wl, err, c.want)
		}
	}
}

func TestRunDefaultsWindows(t *testing.T) {
	res, err := Run(Config{Stack: AllOptimizations(), Seed: 2}, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration != 30*time.Millisecond {
		t.Errorf("default Duration = %v, want 30ms", res.Duration)
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	res, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 || res.ThroughputPerCoreGbps <= 0 {
		t.Error("throughput fields empty")
	}
	if res.Bottleneck != "sender" && res.Bottleneck != "receiver" {
		t.Errorf("Bottleneck = %q", res.Bottleneck)
	}
	for _, h := range []HostStats{res.Sender, res.Receiver} {
		if len(h.Breakdown) != 8 {
			t.Errorf("breakdown has %d categories, want 8", len(h.Breakdown))
		}
		var sum float64
		for _, f := range h.Breakdown {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("breakdown fractions sum to %v", sum)
		}
		if h.BusyCores <= 0 || h.MaxCoreUtil <= 0 || h.MaxCoreUtil > 1 {
			t.Errorf("busy stats out of range: %+v", h)
		}
	}
	if res.Receiver.LatencyAvg <= 0 || res.Receiver.LatencyP99 < res.Receiver.LatencyAvg {
		t.Error("latency stats inconsistent")
	}
	if res.Receiver.SKBAvgBytes <= 0 {
		t.Error("skb stats empty")
	}
	if res.Receiver.AcksSent == 0 {
		t.Error("ack counter empty")
	}
}

func TestSteeringModes(t *testing.T) {
	results := map[string]*Result{}
	for _, mode := range []string{"arfs", "rfs", "rps", "rss", "worst"} {
		s := AllOptimizations()
		s.Steering = mode
		res, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		results[mode] = res
	}
	// aRFS must be the most CPU-efficient; worst-case pinning the least.
	if results["arfs"].ThroughputPerCoreGbps <= results["worst"].ThroughputPerCoreGbps {
		t.Errorf("aRFS (%.1f) should beat worst-case (%.1f) per core",
			results["arfs"].ThroughputPerCoreGbps, results["worst"].ThroughputPerCoreGbps)
	}
	// Software RFS sits between aRFS and worst-case.
	if r := results["rfs"].ThroughputPerCoreGbps; r >= results["arfs"].ThroughputPerCoreGbps ||
		r <= results["worst"].ThroughputPerCoreGbps {
		t.Errorf("software RFS (%.1f) should sit between aRFS (%.1f) and worst (%.1f)",
			r, results["arfs"].ThroughputPerCoreGbps, results["worst"].ThroughputPerCoreGbps)
	}
	// RPS keeps socket locks contended; RFS resolves to the app's core.
	if results["rps"].Receiver.Breakdown["lock"] <= results["rfs"].Receiver.Breakdown["lock"] {
		t.Error("RPS should show more lock contention than RFS")
	}
}

func TestZeroCopyTxUnloadsSenderOnly(t *testing.T) {
	base, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := AllOptimizations()
	s.ZeroCopyTx = true
	zc, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if zc.Sender.BusyCores >= 0.8*base.Sender.BusyCores {
		t.Errorf("tx zero-copy should cut sender CPU: %.2f vs %.2f", zc.Sender.BusyCores, base.Sender.BusyCores)
	}
	// The receiver-bound throughput barely changes (§4's argument).
	ratio := zc.ThroughputPerCoreGbps / base.ThroughputPerCoreGbps
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("tx zero-copy moved tpc by %.2fx; should be neutral", ratio)
	}
}

func TestZeroCopyRxLiftsThroughputPerCore(t *testing.T) {
	base, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := AllOptimizations()
	s.ZeroCopyRx = true
	zc, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if zc.ThroughputPerCoreGbps < 1.25*base.ThroughputPerCoreGbps {
		t.Errorf("rx zero-copy should lift tpc substantially: %.1f vs %.1f",
			zc.ThroughputPerCoreGbps, base.ThroughputPerCoreGbps)
	}
	if zc.Receiver.Breakdown["data_copy"] > 0.01 {
		t.Errorf("rx zero-copy left a copy share of %.2f", zc.Receiver.Breakdown["data_copy"])
	}
}

func TestSegregatedMixRestoresIsolation(t *testing.T) {
	shared, err := Run(quickCfg(AllOptimizations()), MixedWorkload(16, 4096))
	if err != nil {
		t.Fatal(err)
	}
	wl := MixedWorkload(16, 4096)
	wl.Segregate = true
	seg, err := Run(quickCfg(AllOptimizations()), wl)
	if err != nil {
		t.Fatal(err)
	}
	if seg.LongFlowGbps < 1.5*shared.LongFlowGbps {
		t.Errorf("segregation should restore the long flow: %.1f vs shared %.1f",
			seg.LongFlowGbps, shared.LongFlowGbps)
	}
	if seg.RPCGbps < 1.2*shared.RPCGbps {
		t.Errorf("segregation should restore the shorts: %.2f vs shared %.2f",
			seg.RPCGbps, shared.RPCGbps)
	}
}

func TestTuningKnobsTakeEffect(t *testing.T) {
	// Disabling the pageset must inflate the receiver's memory share.
	base, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternOneToOne, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(AllOptimizations())
	cfg.Tuning = &Tuning{PagesetCap: -1}
	noPCP, err := Run(cfg, LongFlowWorkload(PatternOneToOne, 4))
	if err != nil {
		t.Fatal(err)
	}
	if noPCP.Receiver.Breakdown["memory"] <= base.Receiver.Breakdown["memory"] {
		t.Error("disabling pagesets should inflate the memory share")
	}
	// Disabling the DCA hazard must cut the tuned-buffer miss rate.
	s := AllOptimizations()
	s.RcvBufBytes = 3200 << 10
	s.RxDescriptors = 4096
	withHazard, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg = quickCfg(s)
	cfg.Tuning = &Tuning{DCAHazardFactor: -1}
	noHazard, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if noHazard.Receiver.CacheMissRate >= withHazard.Receiver.CacheMissRate {
		t.Error("disabling the hazard should cut the miss rate")
	}
}

func TestLROStackRuns(t *testing.T) {
	s := AllOptimizations()
	s.GRO, s.LRO = false, true
	res, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	// LRO aggregates in hardware: full-size skbs with less netdev CPU.
	if res.Receiver.SKBAvgBytes < 9000 {
		t.Errorf("LRO skb avg = %.0fB, want aggregates", res.Receiver.SKBAvgBytes)
	}
	if res.ThroughputPerCoreGbps <= 0 {
		t.Error("LRO stack moved no data")
	}
}

// TestTraceEventsHugeCap runs with the largest TraceEvents the API takes.
// The ring grows with the events recorded instead of preallocating its
// cap, so the run succeeds and records the same trace as a cap just above
// its event count.
func TestTraceEventsHugeCap(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.TraceEvents = math.MaxInt32
	huge, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(huge.Trace) == 0 {
		t.Fatal("trace empty")
	}
	cfg.TraceEvents = len(huge.Trace) + 1
	fit, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(huge.Trace, fit.Trace) {
		t.Errorf("MaxInt32 cap recorded %d events, a cap of %d recorded %d, or they differ",
			len(huge.Trace), cfg.TraceEvents, len(fit.Trace))
	}
}

func TestECNConfigApplies(t *testing.T) {
	s := AllOptimizations()
	s.CC = "dctcp"
	cfg := quickCfg(s)
	cfg.ECNMarkKB = 64
	res, err := Run(cfg, LongFlowWorkload(PatternIncast, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGbps <= 0 {
		t.Error("DCTCP with ECN moved no data")
	}
}

func TestTraceRecordsDataPath(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.TraceEvents = 256
	res, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace empty")
	}
	kinds := map[string]bool{}
	for _, e := range res.Trace {
		kinds[e.Kind] = true
		if e.Host != "sender" && e.Host != "receiver" {
			t.Fatalf("bad host %q", e.Host)
		}
	}
	for _, want := range []string{"app-write", "tx-segment", "deliver-skb", "ack-sent", "app-read"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (got %v)", want, kinds)
		}
	}
	// Events are emitted in execution order; logical timestamps (start +
	// cycles charged so far) may invert by at most one work item across
	// contexts.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].At < res.Trace[i-1].At-time.Millisecond {
			t.Fatalf("trace wildly out of order at %d: %v after %v",
				i, res.Trace[i].At, res.Trace[i-1].At)
		}
	}
	// Flow filtering works.
	cfg.TraceFlow = 1
	res2, err := Run(cfg, LongFlowWorkload(PatternOneToOne, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res2.Trace {
		if e.Flow != 1 {
			t.Fatalf("flow filter leaked flow %d", e.Flow)
		}
	}
	// No trace requested: none recorded.
	res3, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Trace) != 0 {
		t.Error("trace recorded without being requested")
	}
}

// A trace whose flow filter matches no flow leaves an empty ring, and
// Result.Trace stays nil rather than an empty slice.
func TestTraceEmptyRingIsNil(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.TraceEvents = 256
	cfg.TraceFlow = 9999
	res, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Errorf("Result.Trace = %d-event non-nil slice for an empty ring, want nil", len(res.Trace))
	}
}

func TestFairnessIndexReported(t *testing.T) {
	res, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternOneToOne, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FlowGbps) != 8 {
		t.Fatalf("FlowGbps has %d entries, want 8", len(res.FlowGbps))
	}
	if res.FairnessIndex < 0.9 || res.FairnessIndex > 1.0001 {
		t.Errorf("saturated one-to-one fairness = %v, want ~1", res.FairnessIndex)
	}
}

func TestLinkGbpsScaling(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.LinkGbps = 25
	res, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	// A single core saturates a 25G link (the paper's history).
	if res.ThroughputGbps < 23 || res.ThroughputGbps > 25.5 {
		t.Errorf("25G link throughput = %.2f, want ~24.8 (link-bound)", res.ThroughputGbps)
	}
	if res.Receiver.MaxCoreUtil > 0.95 {
		t.Error("receiver should not be saturated on a 25G link")
	}
	cfg.LinkGbps = -1
	if _, err := Run(cfg, LongFlowWorkload(PatternSingle, 1)); err == nil {
		t.Error("negative LinkGbps should error")
	}
}

func TestDCAAwareDRSBeatsDefault(t *testing.T) {
	base, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	s := AllOptimizations()
	s.DCAAwareDRS = true
	aware, err := Run(quickCfg(s), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if aware.ThroughputPerCoreGbps < 1.15*base.ThroughputPerCoreGbps {
		t.Errorf("DCA-aware DRS should clearly beat default: %.1f vs %.1f",
			aware.ThroughputPerCoreGbps, base.ThroughputPerCoreGbps)
	}
	if aware.Receiver.CacheMissRate >= base.Receiver.CacheMissRate/2 {
		t.Errorf("DCA-aware DRS miss %.2f should be far below default %.2f",
			aware.Receiver.CacheMissRate, base.Receiver.CacheMissRate)
	}
}

func TestReceiverSchedulerFixesIncast(t *testing.T) {
	base, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternIncast, 8))
	if err != nil {
		t.Fatal(err)
	}
	s := AllOptimizations()
	s.RcvSchedulerK = 2
	sched, err := Run(quickCfg(s), LongFlowWorkload(PatternIncast, 8))
	if err != nil {
		t.Fatal(err)
	}
	if sched.ThroughputPerCoreGbps < 1.2*base.ThroughputPerCoreGbps {
		t.Errorf("receiver scheduling should lift incast tpc: %.1f vs %.1f",
			sched.ThroughputPerCoreGbps, base.ThroughputPerCoreGbps)
	}
	if sched.Receiver.CacheMissRate >= base.Receiver.CacheMissRate/2 {
		t.Errorf("receiver scheduling miss %.2f should collapse vs %.2f",
			sched.Receiver.CacheMissRate, base.Receiver.CacheMissRate)
	}
	if sched.Receiver.LatencyAvg >= base.Receiver.LatencyAvg {
		t.Error("receiver scheduling should cut host queueing latency")
	}
	// Rotation must preserve fairness.
	if sched.FairnessIndex < 0.9 {
		t.Errorf("fairness = %.3f under rotation, want ~1", sched.FairnessIndex)
	}
}

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{10, 0}, 0.5},
		{[]float64{4, 4, 4, 0}, 0.75},
	}
	for _, c := range cases {
		got := jain(c.xs)
		if got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("jain(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPatternsAllRun(t *testing.T) {
	for _, p := range []Pattern{PatternSingle, PatternOneToOne, PatternIncast, PatternOutcast, PatternAllToAll} {
		n := 4
		if p == PatternSingle {
			n = 1 // single is one flow; the pair rejects any other N
		}
		res, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(p, n))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.ThroughputGbps <= 0 {
			t.Errorf("%s: no throughput", p)
		}
	}
}
