// Package hostsim is a discrete-event simulator of the Linux host network
// stack, built to reproduce the measurement study "Understanding Host
// Network Stack Overheads" (Cai et al., SIGCOMM 2021).
//
// It models the full end-to-end data path of a 100Gbps two-server testbed
// — write/read syscalls, data copies with a DDIO/L3 cache model, TCP with
// CUBIC/DCTCP/BBR, GSO/TSO segmentation, GRO/LRO aggregation, NAPI and
// interrupt moderation, receive flow steering (RSS/RPS/RFS/aRFS),
// NUMA-aware page allocation, an optional IOMMU, and a lossy switch — and
// accounts every simulated CPU cycle to the paper's eight-category
// taxonomy (Table 1).
//
// The entry point is Run:
//
//	res, err := hostsim.Run(hostsim.Config{Stack: hostsim.AllOptimizations()},
//	    hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
//	fmt.Println(res.ThroughputPerCoreGbps)
//
// Every figure and table of the paper's evaluation can be regenerated
// from this API; see cmd/figures and EXPERIMENTS.md.
package hostsim

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/core"
	"hostsim/internal/cpumodel"
	"hostsim/internal/fabric"
	"hostsim/internal/fabricobs"
	"hostsim/internal/inspect"
	"hostsim/internal/mtrace"
	"hostsim/internal/profile"
	"hostsim/internal/sim"
	"hostsim/internal/telemetry"
	"hostsim/internal/trace"
	"hostsim/internal/units"
)

// Stack is the paper's stack configuration: the offloads, MTU, steering,
// DCA/IOMMU, congestion control, buffers and §4 extensions;
// core.Stack documents every field.
type Stack = core.Stack

// AllOptimizations returns the paper's fully optimized stack: TSO/GRO,
// jumbo frames, aRFS, DCA on, IOMMU off, CUBIC.
func AllOptimizations() Stack { return core.AllOptimizations() }

// NoOptimizations returns the paper's baseline configuration (GSO
// disabled as in their modified kernel, MTU 1500, worst-case steering).
func NoOptimizations() Stack { return core.NoOptimizations() }

// Tuning exposes the simulator's internal model knobs for ablation
// studies; core.Tuning documents every field. Zero values keep the
// calibrated defaults; -1 disables a mechanism where noted. Any other
// negative value, and a DCAHazardFactor that is NaN or infinite, is an
// error.
type Tuning = core.Tuning

// Config describes one simulation run.
type Config struct {
	Stack  Stack
	Tuning *Tuning // nil = calibrated defaults

	// CostScale multiplies individual per-operation cycle costs of the
	// calibrated model (internal/cpumodel) by the given factors, keyed by
	// cost-table field name (see CostNames). Absent knobs keep their
	// calibrated defaults; unknown names are an error. This is the lever
	// for sensitivity analysis: cmd/validate sweeps one knob at a time
	// and re-checks every paper claim at each point.
	CostScale map[string]float64
	// LinkGbps is the access link bandwidth in Gbps (0 = the testbed's
	// 100). Its bit rate must fit in an int64, which bounds it at
	// 9223372036; larger values are an error.
	LinkGbps int
	// LossRate is the switch's Bernoulli drop probability. On the
	// default pair it is asymmetric: only the egress toward the receiver
	// drops (the sender->receiver data, RPC requests included), while the
	// egress back to the sender (ACKs and RPC responses) is lossless. On
	// an explicit Fabric it applies at every egress, ACK paths included.
	LossRate  float64
	ECNMarkKB int           // ECN marking threshold in KB (0 = off; for DCTCP; at most MaxInt64/1024)
	Warmup    time.Duration // excluded from measurement; 0 = 20ms
	Duration  time.Duration // measurement window; 0 = 30ms
	Seed      int64         // RNG seed; runs are deterministic per seed

	// TraceEvents, when positive, records the most recent N data-path
	// events (writes, segments, deliveries, acks, retransmissions, NIC
	// drops and GRO flushes) into Result.Trace. TraceFlow restricts
	// recording to one flow id (flows are numbered from 1 in
	// connection-creation order; 0 = all; negative is an error).
	TraceEvents int
	TraceFlow   int32

	// TraceSpans additionally records per-core execution spans (softirq
	// and thread work items with their dominant Table-1 category) into
	// the trace; the trace entry of Result.Artifacts renders them.
	// Requires TraceEvents > 0 and TraceFlow 0: span events carry flow
	// id 0, so a flow filter would drop every one of them, and Run
	// rejects the combination.
	TraceSpans bool

	// Profile, when non-nil, attaches the simulated-cycle profiler: every
	// charged cycle is attributed to a host;softirq|thread;category;class
	// stack and every delivered packet's lifecycle latency is tracked
	// (Result.CycleProfile, Result.LatencyBreakdown, and the pprof and
	// folded entries of Result.Artifacts). Profiling starts at the
	// measurement window, like all other accounting. A nil Profile
	// allocates no profiler state and costs nothing on the hot path.
	Profile *ProfileOptions

	// Telemetry, when non-nil, enables the time-resolved metrics layer:
	// hosts, NICs, cores, the cache and every TCP flow register named
	// counters and gauges that are sampled on a fixed simulated-time
	// interval into Result.Timeline. A nil Telemetry allocates no
	// telemetry state and costs nothing, like a nil tracer.
	Telemetry *Telemetry

	// Check, when non-nil, attaches the conservation-law invariant
	// checker: between simulation events it audits byte conservation
	// (wire, NIC and pool accounting), cycle conservation (Table-1
	// category cycles reconciled against the charge log and core busy
	// time), TCP sequence-space sanity, and cache-occupancy bounds. The
	// audits are pure reads, so a checked run follows the exact
	// trajectory of an unchecked one. By default the first violation
	// aborts Run with a simulated-time-stamped error; CheckOptions.Collect
	// gathers violations into Result.Violations instead. A nil Check
	// costs nothing.
	Check *CheckOptions

	// Inspect, when non-nil, attaches the wire-level inspector: per-link
	// pcapng captures (Result.Artifacts' pcap, read by Wireshark),
	// tcp_probe-style congestion traces (Result.ProbeTrace) and
	// `ss -i`-style socket/queue snapshots (Result.SocketSnapshots).
	// Every inspector hook is a pure read, so an inspected run follows
	// the exact trajectory of an uninspected one — Check can stay armed
	// while capturing. A nil Inspect costs nothing on the hot path.
	Inspect *InspectOptions

	// Fabric configures the single-stage switch fabric (a ToR) every run
	// is built on: Hosts hosts, each attached to its own port with a
	// per-port egress buffer, an optional shared buffer pool with
	// dynamic-threshold drops, and per-port ECN marking (threshold
	// ECNMarkKB). A nil Fabric builds the paper's testbed pair — hosts
	// "sender" and "receiver" on a 2-port fabric with unbounded buffer —
	// keeps the pair's core-based pattern placement, drops data only
	// (see LossRate), and reports no Result.Fabric and no fabric/
	// telemetry gauges. A non-nil Fabric places long-flow patterns across
	// hosts — incast opens one flow from each of hosts 1..H-1 into host 0
	// — applies LossRate at every egress, and fills Result.Fabric (see
	// DESIGN.md "Switch fabric").
	Fabric *FabricOptions

	// FabricObs, when non-nil, attaches the fabric observatory: an
	// INT-style in-band-telemetry layer over the switch fabric that stamps
	// every frame at ingress (queue depth and shared-buffer occupancy at
	// the admission verdict) and egress (mark/loss verdict, delivery),
	// maintains a per-port time-series (Result.FabricTimeline), keeps an
	// exact drop/mark attribution ledger (Result.PortReports — every lost
	// frame classified as shared-buffer admission drop vs. wire loss,
	// reconciling with the checker's per-port conservation rule), and
	// detects microbursts (Result.BurstEvents). Like the whole run it
	// covers warmup — slow-start bursts are the interesting ones. Every
	// hook is a pure read, so an observed run is byte-identical to an
	// unobserved one; Check can stay armed. Requires Config.Fabric. A nil
	// FabricObs costs nothing.
	FabricObs *FabricObsOptions

	// MsgTrace, when non-nil, attaches the end-to-end message tracer:
	// every application write is split into fixed-size messages whose
	// full journey — send-buffer wait, retransmission wait, NIC queue,
	// wire, Rx ring, GRO, TCP Rx and socket-queue dwell — is timed from
	// the write syscall to the read syscall that drains its last byte.
	// The run's Result gains a tail-attribution report
	// (Result.MessageLatency; Result.Artifacts' tail) decomposing each
	// percentile band of end-to-end latency into per-stage means, and the
	// slowest-N exemplars' span trees as tracks of Result.Artifacts' trace
	// for Perfetto. Tracing covers the whole run including warmup
	// (like socket snapshots) and is a pure observer: an armed run is
	// bit-identical to an unarmed one. A nil MsgTrace costs nothing.
	MsgTrace *MsgTraceOptions
}

// MsgTraceOptions configures the message tracer (see Config.MsgTrace).
// The zero value traces every flow at its natural message size (the RPC
// request/response size, or 128KB iPerf write units for long flows) and
// keeps the 8 slowest exemplars. Up to 1<<20 per-message records are
// retained for exact band attribution; completions beyond them still feed
// the quantile histogram but count as truncated.
type MsgTraceOptions struct {
	// MsgBytes overrides the per-flow message size: each flow's byte
	// stream is cut into consecutive MsgBytes-sized messages. 0 keeps
	// the workload-derived default (RPCSize for RPC flows, 128KB for
	// long flows).
	MsgBytes int64
	// Slowest is the number of worst-latency exemplar messages kept with
	// full segment/recovery detail for span export (0 = 8).
	Slowest int
}

// FabricOptions configures the switch-fabric topology (see Config.Fabric).
type FabricOptions struct {
	// Hosts is the number of hosts attached to the ToR, 2-256. Patterns
	// scale with it: incast and outcast open Hosts-1 flows, all-to-all
	// Hosts*(Hosts-1).
	Hosts int
	// SharedBufferKB bounds the switch's shared packet buffer (the sum of
	// all egress backlogs, in wire bytes). An ingress frame is admitted
	// only while its egress queue sits below the dynamic threshold
	// alpha*(buffer - occupancy); beyond it the frame is dropped and
	// counted in Result.Fabric.BufferDrops. 0 = unbounded.
	SharedBufferKB int
	// Alpha is the dynamic-threshold scale factor (0 = 1.0).
	Alpha float64
	// HostNames overrides the default host00..hostNN naming; must be
	// empty or exactly Hosts distinct entries, none containing '/' (the
	// separator of the metric names they prefix). Names label stats and
	// traces only — relabeling never changes the physics.
	HostNames []string
}

// FabricObsOptions configures the fabric observatory (see
// Config.FabricObs). The zero value samples every 100µs and opens
// microbursts at 128KB of egress backlog. The time-series ring holds 4096
// samples; each burst keeps its top 4 contributing flows, and up to 1024
// bursts are retained (further ones are detected and counted per port).
type FabricObsOptions struct {
	// SampleInterval is the simulated time between per-port time-series
	// samples (0 = 100µs).
	SampleInterval time.Duration
	// BurstThresholdKB opens a microburst when a frame enqueues into an
	// egress backlog at or above this many KB of wire bytes; the burst
	// closes when the queue drains to half the threshold (0 = 128).
	BurstThresholdKB int
}

// PortReport is one fabric port's end-of-run attribution-ledger line (see
// Config.FabricObs); fabricobs.PortReport documents the exact identities.
type PortReport = fabricobs.PortReport

// BurstEvent is one detected microburst on a fabric egress port (see
// Config.FabricObs).
type BurstEvent = fabricobs.BurstEvent

// FabricStats summarizes the switch fabric's activity over the whole run,
// warmup included (drops during slow start count too). Nil unless
// Config.Fabric was set.
type FabricStats struct {
	InFrames        int64 // frames offered to ingress ports
	Delivered       int64 // frames handed to hosts by egress links
	BufferDrops     int64 // shared-buffer (dynamic-threshold) admission drops
	BufferDropBytes int64 // payload bytes lost to buffer drops
	LossDrops       int64 // Bernoulli loss at the egress serializers
	Marked          int64 // CE marks
}

// CheckOptions configures the invariant checker (see Config.Check). The
// checker audits every 500µs of simulated time; the zero value fails
// fast.
type CheckOptions struct {
	// Collect accumulates up to 64 violations into Result.Violations
	// instead of aborting the run at the first one.
	Collect bool
}

// InspectOptions configures the wire-level inspector (see Config.Inspect).
// Pcap, Probe and SS select the exporters; all three false (the zero
// value) enables all of them. Pcap needs a 2-host topology (the default
// pair or a 2-host Config.Fabric); Run rejects it on a larger fabric.
type InspectOptions struct {
	Pcap  bool // capture both link directions into Result.PacketCaptures
	Probe bool // tcp_probe-style congestion traces into Result.ProbeTrace
	SS    bool // socket/queue snapshots into Result.SocketSnapshots

	// SSInterval is the snapshot sampling period (0 = 100µs); snapshots
	// cover the whole run, warmup included, so slow start is visible.
	SSInterval time.Duration
}

// Violation is one invariant breach observed by the checker: the
// simulated time of the audit, the breached rule's name, and a pointed
// diagnostic. It implements error.
type Violation = check.Violation

// ProfileOptions arms the cycle profiler (see Config.Profile). It has no
// settings: the profiler classifies flows by workload kind ("long" or
// "rpc").
type ProfileOptions struct{}

// CycleStack is one aggregated profiler attribution stack, root first
// (host, softirq|thread, Table-1 category, then flow class when the
// charge was flow-attributed).
type CycleStack struct {
	Frames []string
	Cycles int64
}

// LatencyStage is one row of the per-packet latency breakdown.
type LatencyStage struct {
	Stage string        // sndbuf, nic_tx, wire, rx_ring, gro, tcp_rx, sock_queue, total
	Count int64         // delivered SKBs sampled
	Mean  time.Duration // per-stage means sum exactly to the total mean
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// LatencyBreakdown is the run's Fig. 9 equivalent: time spent by each
// delivered packet in every stage of the host data path.
type LatencyBreakdown struct {
	Stages  []LatencyStage
	Dropped int64 // SKBs with incomplete stamps (pre-warmup writes)

	text string
}

// Format renders the breakdown as an aligned text table with each
// quantile in both wall time and simulated cycles. Byte-deterministic
// for a given run.
func (b *LatencyBreakdown) Format() string { return b.text }

// TailStage is one stage's mean dwell time within a percentile band.
type TailStage struct {
	Stage string        // canonical stage name (package stage message order)
	Mean  time.Duration // mean time the band's messages spent in the stage
}

// TailBand is one percentile band of end-to-end message latency with its
// per-stage attribution: only the messages whose total latency ranks
// inside the band contribute, so comparing bands shows which stages
// create the tail.
type TailBand struct {
	Band   string // "p0-p50", "p50-p90", "p90-p99", "p99-p999", "p999-max"
	Count  int64
	Total  time.Duration // mean end-to-end latency of the band's messages
	Stages []TailStage   // means sum exactly to Total
}

// MessageLatency is the run's tail-attribution report when
// Config.MsgTrace was set: end-to-end message latency quantiles plus the
// per-band stage decomposition.
type MessageLatency struct {
	Count     int64 // completed messages (including truncated)
	Dropped   int64 // messages with incomplete stamps (pre-attach writes)
	Truncated int64 // completions beyond the 1<<20 retained records (quantiles only)
	P50       time.Duration
	P90       time.Duration
	P99       time.Duration
	P999      time.Duration
	Max       time.Duration
	Bands     []TailBand

	text string
}

// Format renders the report as an aligned text table, byte-deterministic
// for a given run.
func (m *MessageLatency) Format() string { return m.text }

// MsgRecord is one completed message's exact latency decomposition (ns
// per stage, stage.Message order); see Result.MessageRecords.
type MsgRecord = mtrace.Record

// Telemetry configures the sampling layer (see Config.Telemetry). The
// timeline ring holds the latest 4096 samples; older ones are evicted.
type Telemetry struct {
	// SampleInterval is the simulated time between registry snapshots
	// (0 = 100µs).
	SampleInterval time.Duration
}

// Timeline is the sampled multi-metric timeseries produced when
// Config.Telemetry is set: one column per metric, one row per sample.
// It dumps as CSV (WriteCSV) or JSON lines (WriteJSONL); Row and Each
// read its rows, and Column extracts one metric's series.
type Timeline = telemetry.Timeline

// PacketCapture is one link direction's recorded packet stream (see
// Config.Inspect); inspect.Capture documents the record layout.
type PacketCapture = inspect.Capture

// ProbeTrace is the run's tcp_probe-style congestion trace (see
// Config.Inspect); inspect.ProbeTrace documents the record layout.
// Records come in engine dispatch order, each stamped with its emitting
// core's clock, so time_ns is non-decreasing per (host, flow) only: sort
// stably by time_ns to merge flows.
type ProbeTrace = inspect.ProbeTrace

// FlowStats is one connection's terminal TCP state at the end of the run:
// the sender-side counters `ss -i` would print on teardown. Collected for
// every run — inspection enabled or not — by pure reads after the horizon.
type FlowStats struct {
	Host            string // transmitting side: "sender" or "receiver"
	Flow            int32  // tx flow id (flows are numbered from 1)
	CC              string // congestion control algorithm name
	SentBytes       int64  // first transmissions
	RetransBytes    int64
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	DeliveredBytes  int64 // handed to the peer application in order
	SRTT            time.Duration
	RTO             time.Duration
	Cwnd            int64 // final congestion window, bytes
	Ssthresh        int64 // final slow-start threshold, bytes (0 for BBR)
}

// TraceEvent is one recorded data-path occurrence (see Config.TraceEvents):
// At is the time since simulation start, Host the host's name ("sender"
// or "receiver" on the default pair, any Fabric.HostNames entry on a
// fabric), Flow the flow id (0 for span events), and Kind one of
// app-write, app-read, tx-segment, retransmit, deliver-skb, ack-sent,
// drop, gro-flush, softirq-start, softirq-end, thread-start and
// thread-end. A and B are kind-specific: sequence/length for data events
// and NIC drops, cumulative ack/window for ack-sent, skbs/bytes for
// gro-flush, and the dominant Table-1 category index and cycles charged
// for the span kinds.
type TraceEvent = trace.Event

// Pattern names the Fig. 2 traffic patterns.
type Pattern string

// The five traffic patterns.
const (
	PatternSingle   Pattern = "single"
	PatternOneToOne Pattern = "one-to-one"
	PatternIncast   Pattern = "incast"
	PatternOutcast  Pattern = "outcast"
	PatternAllToAll Pattern = "all-to-all"
)

// Workload describes the applications driving the stack.
type Workload struct {
	Kind    string  // "long", "rpc", "mixed"
	Pattern Pattern // long flows: traffic pattern
	N       int     // long flows: scale (flows, or grid side for all-to-all)

	RPCClients int   // rpc: number of client cores
	RPCSize    int64 // rpc & mixed: request/response bytes (> 0)

	MixedShort int // mixed: short (RPC) connections sharing the core
	// Segregate places the mixed workload's short flows on their own
	// core instead of sharing the long flow's (the paper's §4
	// class-segregated scheduling proposal).
	Segregate bool

	// RemoteNUMA places the receiving application on a NIC-remote NUMA
	// node (the Fig. 4 / Fig. 10c experiments). Applies to single-flow
	// long and rpc workloads on the default pair; Run rejects it anywhere
	// else.
	RemoteNUMA bool
}

// LongFlowWorkload builds an iPerf-style bulk-transfer workload. On the
// default pair n is the flow count (or grid side for all-to-all), in
// [1, cores]; PatternSingle is one flow and takes n 0 or 1.
func LongFlowWorkload(p Pattern, n int) Workload {
	return Workload{Kind: "long", Pattern: p, N: n}
}

// RPCIncastWorkload builds the §3.7 short-flow scenario: nClients
// ping-pong clients against one server core.
func RPCIncastWorkload(nClients int, size int64) Workload {
	return Workload{Kind: "rpc", RPCClients: nClients, RPCSize: size}
}

// MixedWorkload builds the Fig. 11 scenario: one long flow plus nShort
// RPC connections sharing one core on each side.
func MixedWorkload(nShort int, size int64) Workload {
	return Workload{Kind: "mixed", MixedShort: nShort, RPCSize: size}
}

// HostStats reports one host's measurements over the window.
type HostStats struct {
	BusyCores       float64            // total CPU busy time / window
	MaxCoreUtil     float64            // utilization of the busiest core
	Breakdown       map[string]float64 // Table-1 category -> fraction of busy cycles
	BreakdownCycles map[string]int64   // Table-1 category -> raw simulated cycles
	CacheMissRate   float64            // receive-copy cache miss rate
	LatencyAvg      time.Duration      // NAPI -> start of copy, mean
	LatencyP99      time.Duration      // NAPI -> start of copy, p99
	SKBAvgBytes     float64            // mean post-GRO data skb size
	SKB64KBShare    float64            // fraction of data skbs at >= 60KB
	CopiedGB        float64            // bytes delivered to applications
	Retransmits     int64
	AcksSent        int64
	NICDrops        int64
}

// Result is the outcome of one Run.
type Result struct {
	Duration              time.Duration
	ThroughputGbps        float64 // application goodput (both directions)
	ThroughputPerCoreGbps float64 // goodput / bottleneck-host busy cores
	Bottleneck            string  // name of the most CPU-saturated host
	Sender                HostStats
	Receiver              HostStats

	// Hosts reports every host's stats in port order (the default pair:
	// sender then receiver). Sender and Receiver above are the hosts of
	// the workload's first connection: the pair's sender and receiver,
	// and on a fabric hosts 0 and 1 except under incast, whose first flow
	// runs from host 1 into host 0.
	Hosts []HostStats

	// Fabric summarizes switch activity when Config.Fabric was set (nil
	// on the default pair).
	Fabric       *FabricStats
	RPCCompleted int64   // finished ping-pongs (rpc/mixed)
	LongFlowGbps float64 // long-flow-only goodput (mixed workloads)
	RPCGbps      float64 // rpc-only goodput (rpc/mixed workloads)

	// FlowGbps lists each long flow's goodput; FairnessIndex is Jain's
	// index over them (1 = perfectly fair).
	FlowGbps      []float64
	FairnessIndex float64

	// Trace holds the recorded data-path events when Config.TraceEvents
	// was set, oldest first, across all hosts: the tracer's ring itself,
	// handed over without a copy. Nil when the ring recorded nothing.
	Trace []TraceEvent

	// Timeline holds the sampled metric timeseries when Config.Telemetry
	// was set (nil otherwise).
	Timeline *Timeline

	// CycleProfile holds the aggregated attribution stacks when
	// Config.Profile was set (nil otherwise), sorted by stack. Summing
	// Cycles per category reproduces each host's BreakdownCycles exactly.
	CycleProfile []CycleStack

	// LatencyBreakdown holds the per-packet stage latency table when
	// Config.Profile was set (nil otherwise).
	LatencyBreakdown *LatencyBreakdown

	// Violations holds the invariant breaches observed when Config.Check
	// was set with Collect; always empty on a clean run, nil when
	// checking was off.
	Violations []Violation

	// Flows holds every connection's terminal TCP state (both hosts'
	// transmitting sides, sender first, tx-flow order). Always populated.
	Flows []FlowStats

	// PacketCaptures holds the per-direction packet captures of a 2-host
	// run when Config.Inspect enabled pcap, one per host's transmissions
	// in port order (sender->receiver first on the default pair);
	// Result.Artifacts' pcap entry writes them as one pcapng. Nil otherwise.
	PacketCaptures []*PacketCapture

	// ProbeTrace holds the tcp_probe-style congestion trace when
	// Config.Inspect enabled it (nil otherwise).
	ProbeTrace *ProbeTrace

	// SocketSnapshots holds the ss-style socket/queue timeline when
	// Config.Inspect enabled it (nil otherwise). Unlike Timeline it
	// covers the whole run including warmup.
	SocketSnapshots *Timeline

	// MessageLatency holds the tail-attribution report when
	// Config.MsgTrace was set (nil otherwise). Like SocketSnapshots it
	// covers the whole run including warmup, so slow-start stragglers
	// show up in the tail.
	MessageLatency *MessageLatency

	// FabricTimeline holds the fabric observatory's per-port sampled
	// time-series (occupancy, backlog, utilization, ECN-mark rate, drops)
	// when Config.FabricObs was set (nil otherwise). Like SocketSnapshots
	// it covers the whole run including warmup.
	FabricTimeline *Timeline

	// PortReports holds the observatory's per-port drop/mark attribution
	// ledger when Config.FabricObs was set (nil otherwise), in port order.
	PortReports []PortReport

	// BurstEvents holds the detected microbursts when Config.FabricObs
	// was set, ordered by start time (empty if none, nil when off).
	BurstEvents []BurstEvent

	traced bool              // the event tracer was armed: lists the trace artifact
	prof   *profile.Profiler // backs the pprof and folded artifacts
	mt     *mtrace.Tracer    // backs the tail artifact, the trace's message tracks and MessageRecords
}

// Artifact is one file a run can write. Write renders its primary
// encoding; JSONL, when non-nil, renders the same content as JSON lines.
type Artifact struct {
	Name         string
	Write, JSONL func(io.Writer) error
}

// Artifacts lists the files the run's armed observers can write, built
// anew on each call, in a fixed order: telemetry (CSV; JSONL), pcap
// (pcapng, both link directions), probe (CSV; JSONL), ss (CSV; JSONL),
// folded (stacks for flamegraph.pl), pprof (gzipped profile.proto), tail
// (MessageLatency.Format), trace, fabric-report (ledger, blank line,
// bursts: CSV; JSONL) and fabric-timeline (CSV; JSONL). trace is one
// Chrome trace-event JSON file for Perfetto, listed when the event
// tracer, MsgTrace or FabricObs was armed: the recorded data-path events
// (per-core execution spans and flow instants, one process per host),
// then the slowest messages' span trees (one process each), then the
// fabric's port-queue counters and microbursts (process "fabric"). An
// artifact is listed when its observer was armed, even if it recorded
// nothing: an empty trace writes a valid empty JSON array.
func (r *Result) Artifacts() []Artifact {
	var out []Artifact
	if r.Timeline != nil {
		out = append(out, Artifact{"telemetry", r.Timeline.WriteCSV, r.Timeline.WriteJSONL})
	}
	if len(r.PacketCaptures) > 0 {
		out = append(out, Artifact{"pcap", func(w io.Writer) error { return inspect.WritePcap(w, r.PacketCaptures...) }, nil})
	}
	if r.ProbeTrace != nil {
		out = append(out, Artifact{"probe", r.ProbeTrace.WriteCSV, r.ProbeTrace.WriteJSONL})
	}
	if r.SocketSnapshots != nil {
		out = append(out, Artifact{"ss", r.SocketSnapshots.WriteCSV, r.SocketSnapshots.WriteJSONL})
	}
	if r.prof != nil {
		out = append(out, Artifact{"folded", r.prof.WriteFolded, nil}, Artifact{"pprof", r.prof.WritePprof, nil})
	}
	if r.mt != nil {
		tail := func(w io.Writer) error {
			_, err := io.WriteString(w, r.MessageLatency.Format())
			return err
		}
		out = append(out, Artifact{"tail", tail, nil})
	}
	if r.traced || r.mt != nil || r.FabricTimeline != nil {
		out = append(out, Artifact{"trace", r.writeTrace, nil})
	}
	if r.FabricTimeline != nil {
		ports, bursts := r.PortReports, r.BurstEvents
		out = append(out,
			Artifact{"fabric-report",
				func(w io.Writer) error { return fabricobs.WriteReportCSV(w, ports, bursts) },
				func(w io.Writer) error { return fabricobs.WriteReportJSONL(w, ports, bursts) }},
			Artifact{"fabric-timeline", r.FabricTimeline.WriteCSV, r.FabricTimeline.WriteJSONL})
	}
	return out
}

// writeTrace writes the run's one Chrome trace: the data-path tracks,
// then the message exemplars, then the fabric tracks, each from whichever
// of those producers the run armed.
func (r *Result) writeTrace(w io.Writer) error {
	spans := append(telemetry.EventSpans(r.Trace), r.mt.Spans()...)
	if r.FabricTimeline != nil {
		spans = append(spans, fabricobs.Spans(r.PortReports, r.FabricTimeline, r.BurstEvents)...)
	}
	return telemetry.WriteChromeSpans(w, spans)
}

// FormatFabricReport renders the ledger and bursts as an aligned text
// table, byte-deterministic for a given run (empty when FabricObs was
// off).
func (r *Result) FormatFabricReport() string {
	if r.FabricTimeline == nil {
		return ""
	}
	return fabricobs.FormatReport(r.PortReports, r.BurstEvents)
}

// MessageRecords returns the retained per-message latency records
// (completion order), nil when the run had no Config.MsgTrace. Each
// record's stage nanoseconds sum exactly to its total. The first call
// flattens the tracer's chunks into the returned slice, which the Result
// keeps: treat it as read-only.
func (r *Result) MessageRecords() []MsgRecord {
	if r.mt == nil {
		return nil
	}
	return r.mt.Records()
}

// Run executes one simulation and reports the measured window. It runs
// in fixed phases: validate every input, build the cluster, attach the
// armed observers around the workload build, warm up, reset at the
// warm-up boundary, measure, and finish into the Result.
func Run(cfg Config, wl Workload) (*Result, error) {
	p, err := validate(cfg, wl)
	if err != nil {
		return nil, err
	}
	w := p.build()
	for _, o := range p.obs[:p.preBuild] {
		o.attach(w)
	}
	w.wl = startWorkload(w.hosts, p.conns, units.Bytes(wl.RPCSize))
	for _, o := range p.obs[p.preBuild:] {
		o.attach(w)
	}

	if err := guardFailure(func() { w.eng.Run(sim.Time(p.cfg.Warmup)) }); err != nil {
		return nil, err
	}
	for _, h := range w.hosts {
		h.ResetMetrics()
	}
	w.wl.snapshot()
	for _, o := range p.obs {
		o.reset(w)
	}
	if err := guardFailure(func() { w.eng.Run(sim.Time(p.cfg.Warmup + p.cfg.Duration)) }); err != nil {
		return nil, err
	}

	res := assemble(w, p.conns[0])
	for _, o := range p.obs {
		if err := o.finish(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// build creates the plan's hosts on one switch fabric.
func (p *plan) build() *world {
	eng := sim.NewEngine(p.cfg.Seed)
	names := p.fab.HostNames
	if len(names) == 0 {
		names = make([]string, p.fab.Hosts)
		for i := range names {
			names[i] = fmt.Sprintf("host%03d", i)
		}
	}
	cluster := core.NewCluster(eng, names, p.spec, p.costs, p.cfg.Stack, p.tuning, fabric.Config{
		LinkRate:     p.spec.LinkRate,
		SharedBuffer: units.Bytes(p.fab.SharedBufferKB) * units.KB,
		Alpha:        p.fab.Alpha,
		ECNThreshold: units.Bytes(p.cfg.ECNMarkKB) * units.KB,
		LossRate:     p.cfg.LossRate,
	})
	if p.cfg.Fabric == nil {
		// The pair drops sender->receiver traffic only: the egress toward
		// the sender (ACKs, RPC responses) is lossless, and a lossless
		// link draws no random numbers.
		cluster.Fabric().Port(0).Out().SetLossRate(0)
	}
	return &world{cfg: &p.cfg, eng: eng, spec: p.spec, cluster: cluster, hosts: cluster.Hosts()}
}

// CostNames lists the valid Config.CostScale keys: every scalar knob of
// the calibrated per-operation cycle-cost model, sorted.
func CostNames() []string { return cpumodel.CostNames() }

func sortedKeys(m map[string]float64) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// guardFailure runs fn, converting a fail-fast invariant panic into the
// checker's error. Any other panic propagates: only an armed checker
// raises a check.Failure.
func guardFailure(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*check.Failure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("hostsim: %w", f)
		}
	}()
	fn()
	return nil
}

// assemble reads the Result off the finished world. Sender and Receiver
// are the hosts of the workload's first connection.
func assemble(w *world, first conn) *Result {
	hosts, run := w.hosts, w.wl
	window := w.cfg.Duration
	res := &Result{Duration: window}
	res.Hosts = make([]HostStats, len(hosts))
	var copied units.Bytes
	for i, h := range hosts {
		res.Hosts[i] = hostStats(h, window)
		copied += h.Copied()
	}
	ri := first.r
	res.Sender = res.Hosts[first.s]
	res.Receiver = res.Hosts[ri]
	res.ThroughputGbps = units.RateOf(copied, window).Gigabits()
	// The bottleneck is the host whose busiest core is most saturated
	// (the paper's "CPU utilization at the bottleneck"); ties resolve to
	// the primary receiving host, then host order.
	bi := ri
	for i := range hosts {
		if i != ri && res.Hosts[i].MaxCoreUtil > res.Hosts[bi].MaxCoreUtil {
			bi = i
		}
	}
	res.Bottleneck = hosts[bi].Name()
	if res.Hosts[bi].BusyCores > 0 {
		res.ThroughputPerCoreGbps = res.ThroughputGbps / res.Hosts[bi].BusyCores
	}
	res.RPCCompleted, res.LongFlowGbps, res.RPCGbps = run.deltas(window)
	res.FlowGbps = run.perFlow(window)
	res.FairnessIndex = jain(res.FlowGbps)
	for _, h := range hosts {
		res.Flows = append(res.Flows, collectFlowStats(h)...)
	}
	if w.cfg.Fabric != nil {
		tot := w.cluster.Fabric().Totals()
		res.Fabric = &FabricStats{
			InFrames: tot.In, Delivered: tot.Delivered,
			BufferDrops: tot.BufDropped, BufferDropBytes: int64(tot.BufDroppedBytes),
			LossDrops: tot.LossDropped, Marked: tot.Marked,
		}
	}
	return res
}

// collectFlowStats reads each local connection's terminal TCP state after
// the horizon — pure reads, performed for every run.
func collectFlowStats(h *core.Host) []FlowStats {
	var out []FlowStats
	h.ForEachEndpoint(func(ep *core.Endpoint) {
		conn := ep.Conn()
		st := conn.Stats()
		out = append(out, FlowStats{
			Host: h.Name(), Flow: int32(ep.TxFlow()), CC: conn.CC().Name(),
			SentBytes:       int64(st.SentBytes),
			RetransBytes:    int64(st.RetransBytes),
			Retransmits:     st.Retransmits,
			FastRetransmits: st.FastRetransmit,
			Timeouts:        st.Timeouts,
			DeliveredBytes:  int64(st.DeliveredBytes),
			SRTT:            conn.SRTT(),
			RTO:             conn.RTO(),
			Cwnd:            int64(conn.CC().Cwnd()),
			Ssthresh:        int64(conn.CC().Ssthresh()),
		})
	})
	return out
}

func hostStats(h *core.Host, window time.Duration) HostStats {
	sys := h.Sys
	busy := sys.TotalBusy()
	bd := sys.TotalBreakdown()
	fr := bd.Fractions()
	breakdown := make(map[string]float64, cpumodel.NumCategories)
	cycles := make(map[string]int64, cpumodel.NumCategories)
	for _, cat := range cpumodel.Categories() {
		breakdown[cat.String()] = fr[cat]
		cycles[cat.String()] = int64(bd[cat])
	}
	var maxUtil float64
	for i := 0; i < sys.NumCores(); i++ {
		if u := sys.Core(i).Utilization(window); u > maxUtil {
			maxUtil = u
		}
	}
	lat := h.Latency()
	conns := h.AggregateConnStats()
	sizes := h.SKBSizes()
	skb64 := 0.0
	if sizes.Count() > 0 {
		skb64 = 1 - sizes.Fraction(60*1024)
	}
	return HostStats{
		BusyCores:       float64(busy) / float64(window),
		MaxCoreUtil:     maxUtil,
		Breakdown:       breakdown,
		BreakdownCycles: cycles,
		CacheMissRate:   h.CopyMissRate(),
		LatencyAvg:      time.Duration(lat.Mean()),
		LatencyP99:      time.Duration(lat.Quantile(0.99)),
		SKBAvgBytes:     sizes.Mean(),
		SKB64KBShare:    skb64,
		CopiedGB:        float64(h.Copied()) / 1e9,
		NICDrops:        h.NIC.Stats().RxDropped,
		Retransmits:     conns.Retransmits,
		AcksSent:        conns.AcksSent,
	}
}
