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
	h.NIC.RegisterQueueTelemetry(reg, p+"nic/")
	sys := h.Sys
	n := h.spec.NumCores()
	reg.Block(p, coreBacklogCols.get(n), func(dst []float64) {
		dst[0] = float64(sys.SoftirqBacklogTotal())
		for i := 0; i < n; i++ {
			dst[1+i] = float64(sys.Core(i).SoftirqBacklog())
		}
	})
	for _, ep := range h.eps {
		conn := &ep.conn
		// RTT-class gauges report nanoseconds, the repo-wide latency unit
		// (see package stage) shared with the passive RTT monitor's
		// rtt_*_ns gauges and the tail report.
		reg.Block(fmt.Sprintf("%sflow%03d/", p, ep.txFlow), flowInspectCols, func(dst []float64) {
			dst[0] = float64(conn.CC().Cwnd())
			dst[1] = float64(conn.CC().Ssthresh())
			dst[2] = float64(conn.SRTT().Nanoseconds())
			dst[3] = float64(conn.RTO().Nanoseconds())
			dst[4] = float64(conn.InFlight())
			dst[5] = float64(conn.InQdisc())
			dst[6] = float64(conn.SndBufFree())
			dst[7] = float64(conn.RcvBuf())
			dst[8] = float64(conn.Readable())
			dst[9] = float64(conn.OOOLen())
			dst[10] = float64(conn.Stats().Retransmits)
		})
	}
}
