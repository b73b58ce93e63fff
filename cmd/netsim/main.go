// Command netsim runs a single host-network-stack simulation scenario and
// prints its measurements: throughput, throughput-per-core, CPU breakdowns
// (the paper's Table-1 taxonomy), cache miss rates, host latency and skb
// sizes.
//
// Examples:
//
//	netsim                                  # single flow, all optimizations
//	netsim -pattern incast -flows 8         # 8-flow incast
//	netsim -tso=false -gro=false            # ablation
//	netsim -workload rpc -rpcsize 4096      # 16:1 4KB ping-pong RPCs
//	netsim -loss 0.015                      # lossy switch
//	netsim -cc bbr -rxbuf 3276800 -ring 256 # tuned configuration
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"hostsim"
)

func main() {
	var (
		workload = flag.String("workload", "long", "workload kind: long, rpc, mixed")
		pattern  = flag.String("pattern", "single", "long-flow pattern: single, one-to-one, incast, outcast, all-to-all")
		flows    = flag.Int("flows", 1, "flow count (or grid side for all-to-all)")
		rpcSize  = flag.Int64("rpcsize", 4096, "RPC request/response bytes")
		rpcN     = flag.Int("rpcclients", 16, "RPC client count")
		shorts   = flag.Int("shorts", 16, "short flows for the mixed workload")
		remote   = flag.Bool("remote-numa", false, "run the application on a NIC-remote NUMA node")

		tso   = flag.Bool("tso", true, "TCP segmentation offload")
		gso   = flag.Bool("gso", true, "software segmentation when TSO off")
		gro   = flag.Bool("gro", true, "generic receive offload")
		lro   = flag.Bool("lro", false, "hardware receive offload (replaces GRO)")
		jumbo = flag.Bool("jumbo", true, "9000B MTU")
		arfs  = flag.Bool("arfs", true, "accelerated receive flow steering")
		dca   = flag.Bool("dca", true, "DDIO/DCA")
		iommu = flag.Bool("iommu", false, "IOMMU")
		cc    = flag.String("cc", "cubic", "congestion control: cubic, reno, dctcp, bbr")
		steer = flag.String("steering", "", "steering override: arfs, worst, rss, rfs, rps")
		zctx  = flag.Bool("zerocopy-tx", false, "MSG_ZEROCOPY-style transmission")
		zcrx  = flag.Bool("zerocopy-rx", false, "mmap-based zero-copy receive")
		ring  = flag.Int("ring", 0, "NIC Rx descriptors (0 = 1024)")
		rxbuf = flag.Int64("rxbuf", 0, "fixed TCP Rx buffer bytes (0 = autotune)")
		loss  = flag.Float64("loss", 0, "switch drop probability")
		ecn   = flag.Int("ecn-kb", 0, "ECN marking threshold in KB (0 = off)")

		chk    = flag.Bool("check", false, "run with the conservation-law invariant checker armed (fail fast on the first violation)")
		dur    = flag.Duration("dur", 25*time.Millisecond, "measurement window (simulated)")
		warmup = flag.Duration("warmup", 15*time.Millisecond, "warm-up (simulated)")
		seed   = flag.Int64("seed", 1, "simulation seed")
		seeds  = flag.Int("seeds", 1, "run this many seeds and report mean +/- stddev")
		traceN = flag.Int("trace", 0, "dump the last N data-path events after the run")
		traceF = flag.Int("trace-flow", 0, "restrict the trace to one flow id (0 = all); usable alone: implies -trace 256")

		profileOut = flag.String("profile-out", "", "write a gzipped pprof profile of simulated cycles (view with `go tool pprof -top <file>`)")
		foldedOut  = flag.String("folded-out", "", "write folded cycle stacks for flamegraph.pl")
		latBreak   = flag.Bool("latency-breakdown", false, "print the per-packet latency breakdown table (paper Fig. 9)")

		telemetryOut = flag.String("telemetry-out", "", "write the sampled metric timeline to this file (CSV, or JSONL with a .jsonl suffix)")
		sampleEvery  = flag.Duration("sample-interval", 100*time.Microsecond, "simulated time between telemetry samples")
		traceOut     = flag.String("trace-out", "", "write the run's one Chrome trace-event JSON file (open in Perfetto); implies -trace 65536 and records execution spans unless -trace-flow is set, and arms the message tracer (the -slowest messages' span trees) and, with -fabric-hosts, the fabric observatory (port queues and microbursts)")

		pcapOut  = flag.String("pcap-out", "", "write a Wireshark-readable pcapng capture of both link directions")
		probeOut = flag.String("probe-out", "", "write tcp_probe-style congestion traces (CSV, or JSONL with a .jsonl suffix)")
		ssOut    = flag.String("ss-out", "", "write ss-style socket/queue snapshots (CSV, or JSONL with a .jsonl suffix)")
		ssEvery  = flag.Duration("ss-interval", 100*time.Microsecond, "simulated time between socket snapshots")

		tailReport = flag.String("tail-report", "", "write the message tail-latency attribution report ('-' = stdout)")
		slowest    = flag.Int("slowest", 8, "worst-latency exemplar messages the message tracer keeps when -trace-out or -tail-report arms it; -trace-out draws their span trees")
		msgBytes   = flag.Int64("msg-bytes", 0, "message size override for tracing (0 = workload-derived)")

		fabHosts = flag.Int("fabric-hosts", 0, "run N hosts on one ToR switch fabric (0 = the sender/receiver pair on a 2-port fabric)")
		fabBufKB = flag.Int("fabric-buffer-kb", 0, "fabric shared packet buffer in KB (0 = unbounded)")
		fabAlpha = flag.Float64("fabric-alpha", 0, "fabric dynamic-threshold alpha (0 = 1.0)")

		fabReport = flag.String("fabric-report", "", "write the fabric drop/mark attribution ledger and microbursts ('-' = stdout text; CSV, or JSONL with a .jsonl suffix); arms the fabric observatory")
		fabTSOut  = flag.String("fabric-ts-out", "", "write the per-port fabric time-series (CSV, or JSONL with a .jsonl suffix); arms the fabric observatory")
		burstKB   = flag.Int("burst-kb", 0, "microburst detection threshold in KB of egress backlog (0 = 128)")
	)
	flag.Parse()

	if err := checkSeeds(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(2)
	}

	if err := checkOutputDirs(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}

	stack := hostsim.Stack{
		TSO: *tso, GSO: *gso, GRO: *gro && !*lro, LRO: *lro,
		JumboFrames: *jumbo, ARFS: *arfs, DCA: *dca, IOMMU: *iommu,
		CC: *cc, Steering: *steer, RxDescriptors: *ring, RcvBufBytes: *rxbuf,
		ZeroCopyTx: *zctx, ZeroCopyRx: *zcrx,
	}
	cfg := hostsim.Config{
		Stack: stack, LossRate: *loss, ECNMarkKB: *ecn,
		Warmup: *warmup, Duration: *dur, Seed: *seed,
		TraceFlow: int32(*traceF),
	}
	cfg.TraceEvents, cfg.TraceSpans = traceConfig(*traceN, *traceF, *traceOut != "")
	if *chk {
		cfg.Check = &hostsim.CheckOptions{}
	}
	if *telemetryOut != "" {
		cfg.Telemetry = &hostsim.Telemetry{SampleInterval: *sampleEvery}
	}
	if *profileOut != "" || *foldedOut != "" || *latBreak {
		cfg.Profile = &hostsim.ProfileOptions{}
	}
	if *pcapOut != "" || *probeOut != "" || *ssOut != "" {
		cfg.Inspect = &hostsim.InspectOptions{
			Pcap: *pcapOut != "", Probe: *probeOut != "", SS: *ssOut != "",
			SSInterval: *ssEvery,
		}
	}
	if *traceOut != "" || *tailReport != "" {
		cfg.MsgTrace = &hostsim.MsgTraceOptions{Slowest: *slowest, MsgBytes: *msgBytes}
	}
	if *fabHosts > 0 {
		cfg.Fabric = &hostsim.FabricOptions{
			Hosts: *fabHosts, SharedBufferKB: *fabBufKB, Alpha: *fabAlpha,
		}
	}
	if *fabReport != "" || *fabTSOut != "" || (*traceOut != "" && *fabHosts > 0) {
		cfg.FabricObs = &hostsim.FabricObsOptions{
			SampleInterval: *sampleEvery, BurstThresholdKB: *burstKB,
		}
	}

	var wl hostsim.Workload
	switch *workload {
	case "long":
		wl = hostsim.LongFlowWorkload(hostsim.Pattern(*pattern), *flows)
	case "rpc":
		wl = hostsim.RPCIncastWorkload(*rpcN, *rpcSize)
	case "mixed":
		wl = hostsim.MixedWorkload(*shorts, *rpcSize)
	default:
		fmt.Fprintf(os.Stderr, "netsim: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	wl.RemoteNUMA = *remote

	if *seeds > 1 {
		runSeeds(cfg, wl, *seeds)
		return
	}
	res, err := hostsim.Run(cfg, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netsim:", err)
		os.Exit(1)
	}
	printResult(res)
	if *latBreak {
		fmt.Printf("\n--- per-packet latency breakdown ---\n%s", res.LatencyBreakdown.Format())
	}
	arts := res.Artifacts()
	for _, o := range outputs {
		path := flag.Lookup(o.flag).Value.String()
		switch {
		case path == "":
		case path == "-":
			fmt.Print(o.stdout(res))
		default:
			writeOutput(o.flag, path, writerFor(arts, o.artifact, path))
			fmt.Print(o.report(res, path))
		}
	}
	if *traceOut != "" {
		return // -trace-out implies -trace; skip the text dump
	}
	if len(res.Trace) > 0 {
		fmt.Printf("\n--- trace (last %d events) ---\n", len(res.Trace))
		for _, e := range res.Trace {
			fmt.Printf("%-12v %-8s core%-3d flow%-4d %-11s a=%d b=%d\n",
				e.At, e.Host, e.Core, e.Flow, e.Kind, e.A, e.B)
		}
	}
}

// output is one flag that names a file: the artifact of
// hostsim.Result.Artifacts it writes there, and the line netsim prints
// after writing it. stdout, when set, renders the report the flag prints
// for the path "-" instead.
type output struct {
	flag, artifact string
	report         func(r *hostsim.Result, path string) string
	stdout         func(r *hostsim.Result) string
}

// outputs lists every output flag in the order netsim writes them.
var outputs = []output{
	{flag: "profile-out", artifact: "pprof", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("\ncycle profile: %d stacks -> %s (go tool pprof -top %s)\n", len(r.CycleProfile), p, p)
	}},
	{flag: "folded-out", artifact: "folded", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("folded stacks: %d -> %s (flamegraph.pl %s > flame.svg)\n", len(r.CycleProfile), p, p)
	}},
	{flag: "telemetry-out", artifact: "telemetry", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("\ntelemetry: %d samples x %d metrics -> %s\n", r.Timeline.Len(), len(r.Timeline.Names), p)
	}},
	{flag: "pcap-out", artifact: "pcap", report: func(r *hostsim.Result, p string) string {
		total, truncated := 0, int64(0)
		for _, c := range r.PacketCaptures {
			total, truncated = total+c.Packets(), truncated+c.Truncated()
		}
		s := fmt.Sprintf("\npcap: %d packets on %d interfaces -> %s (tshark -r %s)\n", total, len(r.PacketCaptures), p, p)
		if truncated > 0 {
			s += fmt.Sprintf("pcap: %d packets beyond the capture bound were dropped\n", truncated)
		}
		return s
	}},
	{flag: "probe-out", artifact: "probe", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("tcp_probe: %d records -> %s\n", r.ProbeTrace.Len(), p)
	}},
	{flag: "ss-out", artifact: "ss", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("ss snapshots: %d samples x %d metrics -> %s\n", r.SocketSnapshots.Len(), len(r.SocketSnapshots.Names), p)
	}},
	{flag: "tail-report", artifact: "tail", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("tail report: %d messages -> %s\n", r.MessageLatency.Count, p)
	}, stdout: func(r *hostsim.Result) string {
		return "\n--- message tail-latency attribution ---\n" + r.MessageLatency.Format()
	}},
	{flag: "fabric-report", artifact: "fabric-report", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("fabric report: %d ports, %d bursts -> %s\n", len(r.PortReports), len(r.BurstEvents), p)
	}, stdout: func(r *hostsim.Result) string {
		return "\n--- fabric attribution ledger ---\n" + r.FormatFabricReport()
	}},
	{flag: "fabric-ts-out", artifact: "fabric-timeline", report: func(r *hostsim.Result, p string) string {
		return fmt.Sprintf("fabric timeline: %d samples x %d metrics -> %s\n", r.FabricTimeline.Len(), len(r.FabricTimeline.Names), p)
	}},
	{flag: "trace-out", artifact: "trace", report: func(r *hostsim.Result, p string) string {
		s := fmt.Sprintf("trace: %d events, slowest %v of %d messages", len(r.Trace), flag.Lookup("slowest").Value, r.MessageLatency.Count)
		if r.PortReports != nil {
			s += fmt.Sprintf(", %d fabric ports, %d bursts", len(r.PortReports), len(r.BurstEvents))
		}
		return s + fmt.Sprintf(" -> %s (open in https://ui.perfetto.dev)\n", p)
	}},
}

// outputFor returns the output row of the named flag, or nil.
func outputFor(name string) *output {
	if i := slices.IndexFunc(outputs, func(o output) bool { return o.flag == name }); i >= 0 {
		return &outputs[i]
	}
	return nil
}

// writerFor returns the writer of the named artifact for path: its JSON
// lines when path ends in .jsonl and it has them, its primary encoding
// otherwise. The writer fails if the run lists no such artifact.
func writerFor(arts []hostsim.Artifact, name, path string) func(io.Writer) error {
	switch i := slices.IndexFunc(arts, func(a hostsim.Artifact) bool { return a.Name == name }); {
	case i < 0:
		return func(io.Writer) error { return fmt.Errorf("run lists no %s artifact", name) }
	case arts[i].JSONL != nil && strings.HasSuffix(path, ".jsonl"):
		return arts[i].JSONL
	default:
		return arts[i].Write
	}
}

// writeOutput creates the file named by the -<flagName> flag and streams
// write into it, exiting with a uniform error message on failure.
func writeOutput(flagName, path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netsim: -%s %s: %v\n", flagName, path, err)
		os.Exit(1)
	}
}

// checkOutputDirs fails bad output paths before the run, not after. "-"
// is stdout for the flags that print a report there and an error for
// every other output flag; any other path requires its parent directory
// to exist already.
func checkOutputDirs(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		o, path := outputFor(f.Name), f.Value.String()
		switch {
		case err != nil, o == nil, path == "":
		case path == "-":
			if o.stdout == nil {
				err = fmt.Errorf("-%s -: only -tail-report and -fabric-report print to stdout; name a file", f.Name)
			}
		default:
			if fi, serr := os.Stat(filepath.Dir(path)); serr != nil || !fi.IsDir() {
				err = fmt.Errorf("-%s %s: directory %s does not exist", f.Name, path, filepath.Dir(path))
			}
		}
	})
	return err
}

// traceConfig returns the trace ring size and whether execution spans are
// recorded, for -trace n, -trace-flow flow and whether -trace-out is set.
// An explicit -trace wins; otherwise -trace-out takes a 1<<16 ring and
// -trace-flow alone a 256 one. Span events carry flow 0, which a flow
// filter drops, so -trace-out records spans only when -trace-flow is 0.
func traceConfig(n, flow int, out bool) (events int, spans bool) {
	switch {
	case n != 0:
		events = n
	case out:
		events = 1 << 16
	case flow != 0:
		events = 256
	}
	return events, out && flow == 0
}

// checkSeeds rejects -seeds N > 1 alongside any flag that reports on a
// single run: the per-seed loop prints only mean +/- stddev, so such a
// flag's artifact or report would silently never be written.
func checkSeeds(fs *flag.FlagSet) error {
	n := fs.Lookup("seeds").Value.(flag.Getter).Get().(int)
	if n <= 1 {
		return nil
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case outputFor(f.Name) != nil, f.Name == "latency-breakdown", f.Name == "trace", f.Name == "trace-flow":
			err = fmt.Errorf("-seeds %d cannot be combined with -%s", n, f.Name)
		}
	})
	return err
}

// runSeeds reports mean +/- stddev of the headline metrics over n seeds.
func runSeeds(cfg hostsim.Config, wl hostsim.Workload, n int) {
	type metric struct {
		name string
		get  func(*hostsim.Result) float64
	}
	metrics := []metric{
		{"throughput Gbps", func(r *hostsim.Result) float64 { return r.ThroughputGbps }},
		{"thpt-per-core Gbps", func(r *hostsim.Result) float64 { return r.ThroughputPerCoreGbps }},
		{"receiver miss %", func(r *hostsim.Result) float64 { return r.Receiver.CacheMissRate * 100 }},
		{"receiver copy %", func(r *hostsim.Result) float64 { return r.Receiver.Breakdown["data_copy"] * 100 }},
		{"receiver busy cores", func(r *hostsim.Result) float64 { return r.Receiver.BusyCores }},
		{"sender busy cores", func(r *hostsim.Result) float64 { return r.Sender.BusyCores }},
	}
	samples := make([][]float64, len(metrics))
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := hostsim.Run(c, wl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netsim:", err)
			os.Exit(1)
		}
		for j, m := range metrics {
			samples[j] = append(samples[j], m.get(res))
		}
	}
	fmt.Printf("over %d seeds (%d..%d):\n", n, cfg.Seed, cfg.Seed+int64(n)-1)
	for j, m := range metrics {
		mean, sd := meanSD(samples[j])
		fmt.Printf("  %-20s %10.2f +/- %.2f\n", m.name, mean, sd)
	}
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

func printResult(res *hostsim.Result) {
	fmt.Printf("window                 %v (simulated)\n", res.Duration)
	fmt.Printf("throughput             %.2f Gbps\n", res.ThroughputGbps)
	fmt.Printf("throughput-per-core    %.2f Gbps  (bottleneck: %s)\n",
		res.ThroughputPerCoreGbps, res.Bottleneck)
	if res.RPCCompleted > 0 {
		fmt.Printf("rpcs completed         %d (%.2f Gbps one-way)\n", res.RPCCompleted, res.RPCGbps)
	}
	if res.LongFlowGbps > 0 {
		fmt.Printf("long-flow goodput      %.2f Gbps\n", res.LongFlowGbps)
	}
	if res.Fabric != nil {
		fmt.Printf("fabric                 in %d  delivered %d  buf-drops %d  wire-drops %d  marked %d\n",
			res.Fabric.InFrames, res.Fabric.Delivered, res.Fabric.BufferDrops,
			res.Fabric.LossDrops, res.Fabric.Marked)
	}
	for _, side := range []struct {
		name string
		h    hostsim.HostStats
	}{{"sender", res.Sender}, {"receiver", res.Receiver}} {
		fmt.Printf("\n--- %s ---\n", side.name)
		fmt.Printf("busy cores             %.2f (max core %.0f%%)\n", side.h.BusyCores, side.h.MaxCoreUtil*100)
		fmt.Printf("cache miss rate        %.1f%%\n", side.h.CacheMissRate*100)
		fmt.Printf("NAPI->copy latency     avg %v  p99 %v\n",
			side.h.LatencyAvg.Round(time.Microsecond), side.h.LatencyP99.Round(time.Microsecond))
		fmt.Printf("post-GRO skb           avg %.1fKB  (64KB share %.0f%%)\n",
			side.h.SKBAvgBytes/1024, side.h.SKB64KBShare*100)
		fmt.Printf("retransmits %d  acks %d  nic-drops %d\n",
			side.h.Retransmits, side.h.AcksSent, side.h.NICDrops)
		fmt.Println("cpu breakdown:")
		type kv struct {
			k string
			v float64
		}
		var kvs []kv
		for k, v := range side.h.Breakdown {
			kvs = append(kvs, kv{k, v})
		}
		sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v })
		for _, e := range kvs {
			fmt.Printf("  %-10s %5.1f%%\n", e.k, e.v*100)
		}
	}
}
