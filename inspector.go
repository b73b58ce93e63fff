package hostsim

import (
	"fmt"

	"hostsim/internal/core"
	"hostsim/internal/inspect"
	"hostsim/internal/sim"
	"hostsim/internal/telemetry"
)

// inspector bundles the run's attached wire-level observers (see
// Config.Inspect) until assemble hands them to the Result.
type inspector struct {
	captures []*inspect.Capture
	probes   *inspect.ProbeTrace
	sampler  *telemetry.Sampler
}

// attachInspector installs the requested observers: packet taps on both
// directions of a 2-host topology, tcp_probe hooks on every connection,
// and an ss-style snapshot sampler over a dedicated registry (independent
// of Config.Telemetry, so the two can coexist without name clashes).
// Must run after the workload built its connections and before the
// warmup run. Returns nil when o is nil.
func attachInspector(o *InspectOptions, eng *sim.Engine, c *core.Cluster) (*inspector, error) {
	if o == nil {
		return nil, nil
	}
	if o.SnapLen < 0 || o.MaxPackets < 0 || o.MaxProbeEvents < 0 || o.SSMaxSamples < 0 {
		return nil, fmt.Errorf("hostsim: negative Inspect bound")
	}
	if o.SSInterval < 0 {
		return nil, fmt.Errorf("hostsim: negative Inspect.SSInterval")
	}
	pcap, probe, ss := o.Pcap, o.Probe, o.SS
	if !pcap && !probe && !ss {
		pcap, probe, ss = true, true, true
	}
	hosts := c.Hosts()
	if pcap && len(hosts) > 2 {
		// The synthesized capture addressing knows two hosts (10.0.0.1 and
		// 10.0.0.2), one per link direction.
		return nil, fmt.Errorf("hostsim: Inspect.Pcap captures a 2-host topology, not a %d-host fabric; "+
			"set only Probe and/or SS", len(hosts))
	}
	insp := &inspector{}
	if pcap {
		// Interface i carries host i's transmissions: the egress toward the
		// other host, addressed from 10.0.0.(i+1).
		for i, h := range hosts {
			peer := hosts[1-i]
			cap := inspect.NewCapture(eng, h.Name()+"->"+peer.Name(), i, o.SnapLen, o.MaxPackets)
			c.Fabric().Port(1 - i).Out().SetTap(cap.Tap())
			insp.captures = append(insp.captures, cap)
		}
	}
	if probe {
		insp.probes = inspect.NewProbeTrace(o.MaxProbeEvents)
		for _, h := range hosts {
			hook := insp.probes.Hook(h.Name())
			h.ForEachEndpoint(func(ep *core.Endpoint) { ep.Conn().AddProbe(hook) })
		}
	}
	if ss {
		interval := o.SSInterval
		if interval == 0 {
			interval = inspect.DefaultSSInterval
		}
		maxSamples := o.SSMaxSamples
		if maxSamples == 0 {
			maxSamples = inspect.DefaultSSMaxSamples
		}
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
		insp.sampler = telemetry.NewSampler(eng, reg, interval, maxSamples)
		// Sample from t=0: unlike the measurement timeline, socket
		// snapshots deliberately cover warmup, where slow start lives.
		insp.sampler.Start(0)
	}
	return insp, nil
}

// attach moves the inspector's collected artifacts onto the Result.
func (i *inspector) attach(res *Result) {
	res.PacketCaptures = i.captures
	res.ProbeTrace = i.probes
	if i.sampler != nil {
		res.SocketSnapshots = i.sampler.Timeline()
	}
}
