package inspect

import (
	"hostsim/internal/metrics"
	"hostsim/internal/skb"
	"hostsim/internal/tcp"
	"hostsim/internal/telemetry"
)

// RTTMonitor is an ePPing-style passive per-flow RTT monitor: it derives
// a continuous delay signal from the probe events the connections
// already emit on every processed ACK — no new emit sites in TCP — and
// folds each flow's samples into a log-linear histogram. Registered
// gauges ride the ss-style snapshot sampler, so churn and incast runs
// get front-door latency for free alongside queue depths.
//
// All gauges report nanoseconds (the repo-wide latency unit; see package
// stage): rtt_last_ns, rtt_min_ns, rtt_mean_ns, rtt_p50_ns, rtt_p99_ns
// and rtt_samples.
type RTTMonitor struct {
	flows []*rttFlow // by flow id (ids are dense); nil = not watched
}

// rttCols are the column suffixes of one watched flow's block.
var rttCols = []string{"rtt_last_ns", "rtt_min_ns", "rtt_mean_ns", "rtt_p50_ns", "rtt_p99_ns", "rtt_samples"}

// rttFlow is one monitored connection's running RTT state. Its histogram
// (~15 KB of counters) is allocated at the flow's first sample, so a
// watched endpoint that never samples — a receive side — costs none.
type rttFlow struct {
	last int64
	hist *metrics.LogLinear // nil until the first sample
}

// NewRTTMonitor builds an empty monitor.
func NewRTTMonitor() *RTTMonitor { return &RTTMonitor{} }

// Watch registers flow's RTT gauges into reg under prefix (ending in
// "/") and returns the tcp.ProbeFunc feeding them. Install the hook with
// Conn.AddProbe so it composes with other probe consumers; like every
// probe, it is a pure observer.
func (m *RTTMonitor) Watch(reg *telemetry.Registry, prefix string, flow skb.FlowID) tcp.ProbeFunc {
	f := &rttFlow{}
	if n := int(flow) + 1; n > len(m.flows) {
		m.flows = append(m.flows, make([]*rttFlow, n-len(m.flows))...)
	}
	m.flows[flow] = f
	reg.Block(prefix, rttCols, func(dst []float64) {
		dst[0] = float64(f.last)
		if f.hist == nil {
			clear(dst[1:]) // no sample yet: an empty histogram's gauges
			return
		}
		dst[1] = float64(f.hist.Min())
		dst[2] = float64(f.hist.Mean())
		dst[3] = float64(f.hist.Quantile(0.50))
		dst[4] = float64(f.hist.Quantile(0.99))
		dst[5] = float64(f.hist.Count())
	})
	return func(ev tcp.ProbeEvent) {
		// Sample on ACKs that advanced the window: those carry a fresh
		// smoothed-RTT update (retransmitted ranges are excluded from RTT
		// sampling by TCP itself, Karn's rule).
		if ev.Kind != tcp.ProbeAck || ev.AckedBytes == 0 {
			return
		}
		ns := ev.SRTT.Nanoseconds()
		if ns <= 0 {
			return
		}
		f.last = ns
		if f.hist == nil {
			f.hist = metrics.NewLogLinear()
		}
		f.hist.Record(ns)
	}
}
