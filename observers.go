package hostsim

import (
	"fmt"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/core"
	"hostsim/internal/fabricobs"
	"hostsim/internal/inspect"
	"hostsim/internal/mtrace"
	"hostsim/internal/profile"
	"hostsim/internal/sim"
	"hostsim/internal/stage"
	"hostsim/internal/telemetry"
	"hostsim/internal/topology"
	"hostsim/internal/trace"
	"hostsim/internal/units"
)

// world is one run's built simulation: the state every observer step sees.
type world struct {
	cfg     *Config
	eng     *sim.Engine
	spec    topology.MachineSpec
	cluster *core.Cluster
	hosts   []*core.Host
	wl      *builtWorkload // nil until the workload is built
}

// observer is the one seam every run-time observer attaches through. Run
// drives each armed observer through the same steps: validate before any
// host is built, attach to the built cluster, reset at the warm-up
// boundary, and finish into the Result. The per-packet hooks stay the
// typed fields that Host.Enable* and the link taps install, so nothing on
// the hot path goes through this interface.
type observer interface {
	validate(cfg *Config) error
	attach(w *world)
	reset(w *world)
	finish(res *Result) error
}

// coversWarmup is embedded by the observers that record the whole run,
// warm-up included (slow start is often the interesting part): they have
// nothing to reset at the warm-up boundary.
type coversWarmup struct{}

func (coversWarmup) reset(*world) {}

// attachOrder is the one order observers attach in; validate arms them in
// it and Run attaches them in it. Three constraints fix the order:
//   - check, trace and telemetry attach before the workload is built.
//     Building can run a first write synchronously (thread wake-ups
//     dispatch at once), which the checker must ledger and the tracer
//     record, and endpoints register their telemetry gauges as they open.
//   - mtrace, profile and inspect attach after it: they hook the
//     connections the build opens and label flows from the workload.
//   - fabricobs attaches last: its egress taps chain onto the inspector's
//     capture taps, keeping both.
//
// Entries with afterBuild false must come first.
var attachOrder = []struct {
	arm        func(*Config) observer // nil when the Config leaves it off
	afterBuild bool
}{
	{armCheck, false},
	{armTrace, false},
	{armTelemetry, false},
	{armMsgTrace, true},
	{armProfile, true},
	{armInspect, true},
	{armFabricObs, true},
}

// checkObs is the conservation-law invariant checker (Config.Check).
type checkObs struct {
	coversWarmup
	opts CheckOptions
	ck   *check.Checker
}

func armCheck(c *Config) observer {
	if c.Check == nil {
		return nil
	}
	return &checkObs{opts: *c.Check}
}

func (o *checkObs) validate(*Config) error { return nil }

func (o *checkObs) attach(w *world) {
	o.ck = check.New(w.eng, o.opts.Collect)
	core.AttachChecker(o.ck, w.cluster)
	o.ck.Start()
}

// finish runs a drain-point audit at the horizon, so a leak in the final
// stretch is caught even if the periodic timer missed it.
func (o *checkObs) finish(res *Result) error {
	if err := guardFailure(o.ck.Audit); err != nil {
		return err
	}
	res.Violations = o.ck.Violations()
	return nil
}

// traceObs is the data-path event tracer (Config.TraceEvents, TraceFlow,
// TraceSpans).
type traceObs struct {
	coversWarmup
	events int
	flow   int32
	spans  bool
	tr     *trace.Tracer
}

func armTrace(c *Config) observer {
	if c.TraceEvents == 0 && !c.TraceSpans {
		return nil
	}
	return &traceObs{events: c.TraceEvents, flow: c.TraceFlow, spans: c.TraceSpans}
}

func (o *traceObs) validate(*Config) error {
	if o.events < 0 {
		return fmt.Errorf("hostsim: negative TraceEvents")
	}
	if o.events == 0 {
		return fmt.Errorf("hostsim: TraceSpans requires TraceEvents > 0")
	}
	if o.flow < 0 {
		return fmt.Errorf("hostsim: negative TraceFlow")
	}
	if o.spans && o.flow != 0 {
		return fmt.Errorf("hostsim: TraceSpans needs TraceFlow 0: span events carry flow 0")
	}
	return nil
}

func (o *traceObs) attach(w *world) {
	o.tr = trace.New(o.events)
	o.tr.FilterFlow(o.flow)
	for _, h := range w.hosts {
		h.SetTracer(o.tr)
		if o.spans {
			h.EnableSpanTrace()
		}
	}
}

// finish hands the tracer's ring to the Result as Result.Trace: the
// tracer records nothing after the run, so its ring needs no copy. An
// empty ring leaves Result.Trace nil.
func (o *traceObs) finish(res *Result) error {
	res.traced = true
	if ev := o.tr.Take(); len(ev) > 0 {
		res.Trace = ev
	}
	return nil
}

// telemetryObs is the sampled metric timeline (Config.Telemetry). It
// samples the measurement window only, from the warm-up boundary.
type telemetryObs struct {
	opts    Telemetry
	sampler *telemetry.Sampler
}

func armTelemetry(c *Config) observer {
	if c.Telemetry == nil {
		return nil
	}
	return &telemetryObs{opts: *c.Telemetry}
}

func (o *telemetryObs) validate(*Config) error {
	if o.opts.SampleInterval < 0 {
		return fmt.Errorf("hostsim: negative Telemetry.SampleInterval")
	}
	return nil
}

func (o *telemetryObs) attach(w *world) {
	reg := telemetry.NewRegistry()
	for _, h := range w.hosts {
		h.EnableTelemetry(reg)
	}
	if w.cfg.Fabric != nil {
		// Fabric runs expose switch state in the same timeline as the
		// host gauges, so one -telemetry-out artifact covers both.
		w.cluster.Fabric().RegisterTelemetry(reg, "fabric/")
	}
	o.sampler = telemetry.NewSampler(w.eng, reg, o.opts.SampleInterval)
}

// reset takes the first sample at the start of the measurement window,
// right after the hosts' warm-up reset.
func (o *telemetryObs) reset(w *world) { o.sampler.Start(sim.Time(w.cfg.Warmup)) }

func (o *telemetryObs) finish(res *Result) error {
	res.Timeline = o.sampler.Timeline()
	return nil
}

// msgTraceObs is the end-to-end message tracer (Config.MsgTrace).
type msgTraceObs struct {
	coversWarmup
	opts MsgTraceOptions
	mt   *mtrace.Tracer
}

func armMsgTrace(c *Config) observer {
	if c.MsgTrace == nil {
		return nil
	}
	return &msgTraceObs{opts: *c.MsgTrace}
}

func (o *msgTraceObs) validate(*Config) error {
	if o.opts.MsgBytes < 0 || o.opts.Slowest < 0 {
		return fmt.Errorf("hostsim: negative MsgTrace option")
	}
	return nil
}

func (o *msgTraceObs) attach(w *world) {
	sizes := msgSizes(w.wl, o.opts.MsgBytes)
	// Workload setup can execute a first write synchronously at build
	// time (thread wakeups dispatch immediately), before the tracer
	// attaches; record each flow's committed stream offset so message
	// numbering stays aligned with TCP sequence space.
	starts := make([]int64, len(sizes))
	for _, h := range w.hosts {
		h.ForEachEndpoint(func(ep *core.Endpoint) {
			if f := ep.TxFlow(); int(f) < len(sizes) && sizes[f] > 0 {
				starts[f] = ep.Conn().AppLimit()
			}
		})
	}
	o.mt = mtrace.New(mtrace.Options{MsgBytes: sizes, Start: starts, Slowest: o.opts.Slowest})
	for _, h := range w.hosts {
		h.EnableMsgTrace(o.mt)
	}
	// Loss-recovery context for the exemplars rides the existing
	// tcp_probe emit sites; AddProbe composes with the inspector's
	// congestion trace when both are armed.
	if hook := o.mt.ProbeHook(); hook != nil {
		for _, h := range w.hosts {
			h.ForEachEndpoint(func(ep *core.Endpoint) { ep.Conn().AddProbe(hook) })
		}
	}
}

func (o *msgTraceObs) finish(res *Result) error {
	res.mt = o.mt
	s := o.mt.Summary()
	ml := &MessageLatency{
		Count: s.Count, Dropped: s.Dropped, Truncated: s.Truncated,
		P50: time.Duration(s.P50), P90: time.Duration(s.P90),
		P99: time.Duration(s.P99), P999: time.Duration(s.P999),
		Max:  time.Duration(s.Max),
		text: s.Format(),
	}
	for _, b := range s.Bands {
		tb := TailBand{Band: b.Name, Count: b.Count, Total: time.Duration(b.MeanTotal)}
		for i, v := range b.Stages {
			tb.Stages = append(tb.Stages, TailStage{
				Stage: stage.Message[i].String(), Mean: time.Duration(v),
			})
		}
		ml.Bands = append(ml.Bands, tb)
	}
	res.MessageLatency = ml
	return nil
}

// profileObs is the simulated-cycle profiler (Config.Profile). It covers
// the measurement window only.
type profileObs struct {
	prof *profile.Profiler
}

func armProfile(c *Config) observer {
	if c.Profile == nil {
		return nil
	}
	return &profileObs{}
}

func (o *profileObs) validate(*Config) error { return nil }

func (o *profileObs) attach(w *world) {
	o.prof = profile.New(profile.Options{FlowClasses: flowClasses(w.wl)}, w.spec.Frequency)
	for _, h := range w.hosts {
		h.EnableProfiler(o.prof)
	}
}

// reset drops the warm-up's charges. The profiler observes charges at the
// same point core accounting merges them (work-item completion), so
// resetting it next to the hosts' ResetMetrics makes its totals reconcile
// exactly with the window's category accounting.
func (o *profileObs) reset(*world) { o.prof.Reset() }

func (o *profileObs) finish(res *Result) error {
	res.prof = o.prof
	for _, s := range o.prof.Stacks() {
		res.CycleProfile = append(res.CycleProfile, CycleStack{Frames: s.Frames, Cycles: int64(s.Cycles)})
	}
	pb := o.prof.Lifecycle().Breakdown(o.prof.Freq())
	lb := &LatencyBreakdown{Dropped: pb.Dropped, text: pb.Format()}
	for _, s := range pb.Stages {
		lb.Stages = append(lb.Stages, LatencyStage{
			Stage: s.Stage, Count: s.Count,
			Mean: time.Duration(s.MeanNS), P50: time.Duration(s.P50NS),
			P90: time.Duration(s.P90NS), P99: time.Duration(s.P99NS),
		})
	}
	res.LatencyBreakdown = lb
	return nil
}

// inspectObs is the wire-level inspector (Config.Inspect): packet taps on
// both directions of a 2-host topology, tcp_probe hooks on every
// connection, and an ss-style snapshot sampler over a dedicated registry
// (independent of Config.Telemetry, so the two coexist without name
// clashes).
type inspectObs struct {
	coversWarmup
	opts     InspectOptions
	captures []*inspect.Capture
	probes   *inspect.ProbeTrace
	ss       *telemetry.Sampler
}

func armInspect(c *Config) observer {
	if c.Inspect == nil {
		return nil
	}
	o := &inspectObs{opts: *c.Inspect}
	if !o.opts.Pcap && !o.opts.Probe && !o.opts.SS {
		o.opts.Pcap, o.opts.Probe, o.opts.SS = true, true, true
	}
	return o
}

func (o *inspectObs) validate(cfg *Config) error {
	if o.opts.SSInterval < 0 {
		return fmt.Errorf("hostsim: negative Inspect.SSInterval")
	}
	if o.opts.Pcap && cfg.Fabric != nil && cfg.Fabric.Hosts > 2 {
		// The synthesized capture addressing knows two hosts (10.0.0.1 and
		// 10.0.0.2), one per link direction.
		return fmt.Errorf("hostsim: Inspect.Pcap captures a 2-host topology, not a %d-host fabric; "+
			"set only Probe and/or SS", cfg.Fabric.Hosts)
	}
	return nil
}

func (o *inspectObs) attach(w *world) {
	hosts := w.hosts
	if o.opts.Pcap {
		// Interface i carries host i's transmissions: the egress toward the
		// other host, addressed from 10.0.0.(i+1).
		for i, h := range hosts {
			peer := hosts[1-i]
			cap := inspect.NewCapture(w.eng, h.Name()+"->"+peer.Name(), i)
			w.cluster.Fabric().Port(1 - i).Out().AddTap(cap.Tap())
			o.captures = append(o.captures, cap)
		}
	}
	if o.opts.Probe {
		o.probes = inspect.NewProbeTrace()
		for _, h := range hosts {
			hook := o.probes.Hook(h.Name())
			h.ForEachEndpoint(func(ep *core.Endpoint) { ep.Conn().AddProbe(hook) })
		}
	}
	if o.opts.SS {
		reg := telemetry.NewRegistry()
		for _, h := range hosts {
			h.RegisterInspect(reg)
		}
		// The passive RTT monitor rides the same probe events the
		// congestion trace consumes (no new emit sites in TCP) and
		// publishes per-flow RTT gauges into the snapshot registry, so
		// `ss`-style samples carry a continuous front-door delay signal.
		rtt := inspect.NewRTTMonitor()
		for _, h := range hosts {
			name := h.Name()
			h.ForEachEndpoint(func(ep *core.Endpoint) {
				flow := ep.TxFlow()
				prefix := fmt.Sprintf("%s/flow%03d/", name, flow)
				ep.Conn().AddProbe(rtt.Watch(reg, prefix, flow))
			})
		}
		o.ss = telemetry.NewSampler(w.eng, reg, o.opts.SSInterval)
		// Sample from t=0: unlike the measurement timeline, socket
		// snapshots deliberately cover warmup, where slow start lives.
		o.ss.Start(0)
	}
}

func (o *inspectObs) finish(res *Result) error {
	res.PacketCaptures = o.captures
	res.ProbeTrace = o.probes
	if o.ss != nil {
		res.SocketSnapshots = o.ss.Timeline()
	}
	return nil
}

// fabricObs is the fabric observatory (Config.FabricObs).
type fabricObs struct {
	coversWarmup
	opts FabricObsOptions
	fobs *fabricobs.Observer
}

func armFabricObs(c *Config) observer {
	if c.FabricObs == nil {
		return nil
	}
	return &fabricObs{opts: *c.FabricObs}
}

func (o *fabricObs) validate(cfg *Config) error {
	if cfg.Fabric == nil {
		return fmt.Errorf("hostsim: FabricObs requires Fabric")
	}
	if o.opts.SampleInterval < 0 {
		return fmt.Errorf("hostsim: negative FabricObs option")
	}
	return checkKB("FabricObs.BurstThresholdKB", o.opts.BurstThresholdKB)
}

func (o *fabricObs) attach(w *world) {
	names := make([]string, len(w.hosts))
	for i, h := range w.hosts {
		names[i] = h.Name()
	}
	o.fobs = fabricobs.New(w.eng, w.cluster.Fabric(), names, fabricobs.Options{
		SampleInterval: o.opts.SampleInterval,
		BurstThreshold: units.Bytes(o.opts.BurstThresholdKB) * units.KB,
	})
}

func (o *fabricObs) finish(res *Result) error {
	o.fobs.Finalize()
	res.FabricTimeline = o.fobs.Timeline()
	res.PortReports = o.fobs.PortReports()
	res.BurstEvents = o.fobs.Bursts()
	return nil
}
