package core

import (
	"fmt"

	"hostsim/internal/telemetry"
)

// ForEachEndpoint visits the host's local sender endpoints in tx-flow
// order — the same deterministic iteration the invariant checker uses —
// so callers can attach observers or collect terminal per-flow stats
// without reaching into the endpoint tables.
func (h *Host) ForEachEndpoint(fn func(*Endpoint)) {
	for _, ep := range h.eps {
		fn(ep)
	}
}

// RegisterInspect registers the host's `ss -i`-style socket and queue
// gauges into reg, prefixed with the host name: per-flow TCP state (cwnd,
// ssthresh, srtt, rto, bytes in flight, qdisc and receive-queue depths,
// retransmits) plus NIC ring/backlog/GRO occupancy and softirq backlog.
// Every probe is a pure read, so sampling never perturbs the run. Call
// after the workload's connections are open (flows register here, not
// lazily); no-op on a nil registry.
func (h *Host) RegisterInspect(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p := h.name + "/"
	if h.NIC != nil {
		h.NIC.RegisterQueueTelemetry(reg, p+"nic/")
	}
	sys := h.Sys
	reg.Gauge(p+"softirq_backlog", func() float64 { return float64(sys.SoftirqBacklogTotal()) })
	for i := 0; i < h.spec.NumCores(); i++ {
		c := sys.Core(i)
		reg.Gauge(fmt.Sprintf("%score%02d/softirq_backlog", p, i),
			func() float64 { return float64(c.SoftirqBacklog()) })
	}
	for _, ep := range h.eps {
		conn := ep.conn
		fp := fmt.Sprintf("%sflow%03d/", p, ep.txFlow)
		reg.Gauge(fp+"cwnd_bytes", func() float64 { return float64(conn.CC().Cwnd()) })
		reg.Gauge(fp+"ssthresh_bytes", func() float64 { return float64(conn.CC().Ssthresh()) })
		// RTT-class gauges report nanoseconds, the repo-wide latency unit
		// (see package stage) shared with the passive RTT monitor's
		// rtt_*_ns gauges and the tail report.
		reg.Gauge(fp+"srtt_ns", func() float64 { return float64(conn.SRTT().Nanoseconds()) })
		reg.Gauge(fp+"rto_ns", func() float64 { return float64(conn.RTO().Nanoseconds()) })
		reg.Gauge(fp+"inflight_bytes", func() float64 { return float64(conn.InFlight()) })
		reg.Gauge(fp+"qdisc_bytes", func() float64 { return float64(conn.InQdisc()) })
		reg.Gauge(fp+"sndbuf_free_bytes", func() float64 { return float64(conn.SndBufFree()) })
		reg.Gauge(fp+"rcvbuf_bytes", func() float64 { return float64(conn.RcvBuf()) })
		reg.Gauge(fp+"recvq_bytes", func() float64 { return float64(conn.Readable()) })
		reg.Gauge(fp+"ooo_segments", func() float64 { return float64(conn.OOOLen()) })
		reg.Gauge(fp+"retransmits", func() float64 { return float64(conn.Stats().Retransmits) })
	}
}
