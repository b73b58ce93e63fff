// Benchmarks regenerating every figure and table of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// (simulated warm-up + measurement window) and reports the figure's
// headline metric via b.ReportMetric, so `go test -bench .` doubles as a
// full reproduction run. Wall-clock ns/op is the cost of regenerating the
// figure, not a property of the simulated system.
package hostsim_test

import (
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/figures"
)

// benchRC is a reduced window so the full benchmark suite stays fast while
// remaining in steady state.
func benchRC() figures.RunConfig {
	return figures.RunConfig{Seed: 7, Warmup: 8 * time.Millisecond, Duration: 12 * time.Millisecond}
}

// benchFigure runs one registered experiment per iteration.
func benchFigure(b *testing.B, id string) {
	e, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	rc := benchRC()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figures.ClearCache()
		tbl, err := e.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig3a(b *testing.B)  { benchFigure(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { benchFigure(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)  { benchFigure(b, "fig3c") }
func BenchmarkFig3d(b *testing.B)  { benchFigure(b, "fig3d") }
func BenchmarkFig3e(b *testing.B)  { benchFigure(b, "fig3e") }
func BenchmarkFig3f(b *testing.B)  { benchFigure(b, "fig3f") }
func BenchmarkFig4(b *testing.B)   { benchFigure(b, "fig4") }
func BenchmarkFig5a(b *testing.B)  { benchFigure(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchFigure(b, "fig5b") }
func BenchmarkFig5c(b *testing.B)  { benchFigure(b, "fig5c") }
func BenchmarkFig6a(b *testing.B)  { benchFigure(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchFigure(b, "fig6b") }
func BenchmarkFig6c(b *testing.B)  { benchFigure(b, "fig6c") }
func BenchmarkFig7a(b *testing.B)  { benchFigure(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchFigure(b, "fig7b") }
func BenchmarkFig7c(b *testing.B)  { benchFigure(b, "fig7c") }
func BenchmarkFig8a(b *testing.B)  { benchFigure(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { benchFigure(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)  { benchFigure(b, "fig8c") }
func BenchmarkFig9a(b *testing.B)  { benchFigure(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchFigure(b, "fig9b") }
func BenchmarkFig9c(b *testing.B)  { benchFigure(b, "fig9c") }
func BenchmarkFig9d(b *testing.B)  { benchFigure(b, "fig9d") }
func BenchmarkFig10a(b *testing.B) { benchFigure(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchFigure(b, "fig10b") }
func BenchmarkFig10c(b *testing.B) { benchFigure(b, "fig10c") }
func BenchmarkFig11a(b *testing.B) { benchFigure(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchFigure(b, "fig11b") }
func BenchmarkFig12a(b *testing.B) { benchFigure(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchFigure(b, "fig12b") }
func BenchmarkFig12c(b *testing.B) { benchFigure(b, "fig12c") }
func BenchmarkFig13a(b *testing.B) { benchFigure(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchFigure(b, "fig13b") }
func BenchmarkFig13c(b *testing.B) { benchFigure(b, "fig13c") }
func BenchmarkTable2(b *testing.B) { benchFigure(b, "table2") }

// Extension experiments (the paper's §4 future directions, quantified).
func BenchmarkExt1Steering(b *testing.B)     { benchFigure(b, "ext1") }
func BenchmarkExt2ZeroCopy(b *testing.B)     { benchFigure(b, "ext2") }
func BenchmarkExt3Segregation(b *testing.B)  { benchFigure(b, "ext3") }
func BenchmarkExt4Bandwidth(b *testing.B)    { benchFigure(b, "ext4") }
func BenchmarkExt5Fairness(b *testing.B)     { benchFigure(b, "ext5") }
func BenchmarkExt6DCAAwareDRS(b *testing.B)  { benchFigure(b, "ext6") }
func BenchmarkExt7RcvScheduler(b *testing.B) { benchFigure(b, "ext7") }

// Ablations of the simulator's own design choices (DESIGN.md §3).
func BenchmarkAbl1DCAHazard(b *testing.B)        { benchFigure(b, "abl1") }
func BenchmarkAbl2TSQ(b *testing.B)              { benchFigure(b, "abl2") }
func BenchmarkAbl3Moderation(b *testing.B)       { benchFigure(b, "abl3") }
func BenchmarkAbl4SchedGranularity(b *testing.B) { benchFigure(b, "abl4") }
func BenchmarkAbl5Pageset(b *testing.B)          { benchFigure(b, "abl5") }

// Appendix breakdowns (the paper's "see [7]" references).
func BenchmarkApp1IncastSenders(b *testing.B)    { benchFigure(b, "app1") }
func BenchmarkApp2OutcastReceivers(b *testing.B) { benchFigure(b, "app2") }
func BenchmarkApp3RPCClients(b *testing.B)       { benchFigure(b, "app3") }
func BenchmarkApp4MixedClients(b *testing.B)     { benchFigure(b, "app4") }
func BenchmarkApp5AllToAllSenders(b *testing.B)  { benchFigure(b, "app5") }

// ---------------------------------------------------------------------------
// Headline-scenario benchmarks: these report the simulated metrics the
// paper leads with, so a bench run prints the reproduction numbers.

func benchScenario(b *testing.B, cfg hostsim.Config, wl hostsim.Workload) {
	var last *hostsim.Result
	for i := 0; i < b.N; i++ {
		res, err := hostsim.Run(cfg, wl)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ThroughputPerCoreGbps, "GbpsPerCore")
	b.ReportMetric(last.ThroughputGbps, "GbpsTotal")
	b.ReportMetric(last.Receiver.CacheMissRate*100, "miss%")
	b.ReportMetric(last.Receiver.Breakdown["data_copy"]*100, "copy%")
}

func benchCfg(s hostsim.Stack) hostsim.Config {
	return hostsim.Config{Stack: s, Seed: 7, Warmup: 8 * time.Millisecond, Duration: 12 * time.Millisecond}
}

func BenchmarkScenarioSingleFlowAllOpts(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
}

func BenchmarkScenarioSingleFlowNoOpts(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.NoOptimizations()),
		hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
}

func BenchmarkScenarioIncast8(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.LongFlowWorkload(hostsim.PatternIncast, 8))
}

func BenchmarkScenarioOutcast8(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.LongFlowWorkload(hostsim.PatternOutcast, 8))
}

func BenchmarkScenarioAllToAll24(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 24))
}

func BenchmarkScenarioRPC4KB(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.RPCIncastWorkload(16, 4096))
}

func BenchmarkScenarioMixed16(b *testing.B) {
	benchScenario(b, benchCfg(hostsim.AllOptimizations()),
		hostsim.MixedWorkload(16, 4096))
}

// benchRunCfg is one short end-to-end run for the telemetry-overhead
// comparison benchmarks below.
func benchRunCfg() hostsim.Config {
	return hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 7,
		Warmup: 4 * time.Millisecond, Duration: 6 * time.Millisecond,
	}
}

// BenchmarkRunTelemetryOff is the baseline data path with no telemetry
// state allocated; compare against BenchmarkRunTelemetryOn to verify the
// nil-registry fast path costs nothing when disabled.
func BenchmarkRunTelemetryOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTelemetryOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.Telemetry = &hostsim.Telemetry{}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCheckOff is the baseline for the invariant-checker
// overhead pair: with Config.Check nil, the leaf conservation counters
// still tick (they are plain integer arithmetic on paths that already
// touch the stats) but no ledger, audit timer or rule runs. Compare
// against BenchmarkRunCheckOn for the armed cost.
func BenchmarkRunCheckOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCheckOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.Check = &hostsim.CheckOptions{}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunInspectOff is the baseline for the wire-level inspector
// overhead pair: with Config.Inspect nil the only residue is a nil tap
// test per wire transmission and a nil probe test per ACK. Compare
// against BenchmarkRunInspectOn for the cost of capturing everything.
func BenchmarkRunInspectOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunInspectOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.Inspect = &hostsim.InspectOptions{}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMsgTraceOff is the baseline for the message-tracer
// overhead pair: with Config.MsgTrace nil the only residue is a nil
// tracer test at the write, segment-transmit and read sites, and the
// per-frame Write/TCPTx stamps stay unstamped. Compare against
// BenchmarkRunMsgTraceOn for the armed cost of per-message span
// assembly and the percentile engine.
func BenchmarkRunMsgTraceOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunMsgTraceOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.MsgTrace = &hostsim.MsgTraceOptions{}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFabricCfg is one short end-to-end fabric run for the topology
// benchmarks below: H hosts on the ToR, unbounded shared buffer.
func benchFabricCfg(hosts int) hostsim.Config {
	cfg := benchRunCfg()
	cfg.Fabric = &hostsim.FabricOptions{Hosts: hosts}
	return cfg
}

// BenchmarkFabricRunIncast16 is the scaling headline: 15 hosts into one.
func BenchmarkFabricRunIncast16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(benchFabricCfg(16), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricRunIncast64 is the acceptance-scale topology: 63 hosts
// into one, shorter windows to keep iterations reasonable.
func BenchmarkFabricRunIncast64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFabricCfg(64)
		cfg.Warmup, cfg.Duration = 3*time.Millisecond, 4*time.Millisecond
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricRunAllToAll8 stresses every port in both directions: 56
// flows across 8 hosts.
func BenchmarkFabricRunAllToAll8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFabricCfg(8)
		cfg.Warmup, cfg.Duration = 3*time.Millisecond, 4*time.Millisecond
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricRunBuffered16 adds the shared-buffer admission check to
// every forwarded frame (256KB pool under 15:1 incast, drops and
// retransmissions included); compare against BenchmarkFabricRunIncast16
// for the dynamic-threshold overhead.
func BenchmarkFabricRunBuffered16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFabricCfg(16)
		cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFabricObsOff is the baseline for the fabric-observatory
// overhead pair: with Config.FabricObs nil the only residue is a nil
// observer test per forwarded frame and a nil tap test per egress
// transmission/delivery. Compare against BenchmarkFabricObsOn for the
// armed cost of stamping, burst tracking and the per-port sampler.
func BenchmarkFabricObsOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFabricCfg(16)
		cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricObsOn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchFabricCfg(16)
		cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}
		cfg.FabricObs = &hostsim.FabricObsOptions{}
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err != nil {
			b.Fatal(err)
		}
	}
}
