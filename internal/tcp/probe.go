package tcp

import (
	"time"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// ProbeKind labels a tcp_probe-style congestion event.
type ProbeKind uint8

// The probe event kinds, mirroring what the kernel's tcp_probe tracepoint
// plus the retransmission tracepoints expose.
const (
	ProbeAck            ProbeKind = iota // an incoming ACK was processed
	ProbeFastRetransmit                  // recovery entered on dupack/SACK evidence
	ProbeRetransmit                      // one range was retransmitted
	ProbeRTO                             // the retransmission timeout fired
	ProbeRecoveryExit                    // recovery completed (sndUna passed recoveryEnd)
)

// String returns the event's wire label.
func (k ProbeKind) String() string {
	switch k {
	case ProbeAck:
		return "ack"
	case ProbeFastRetransmit:
		return "fast-retransmit"
	case ProbeRetransmit:
		return "retransmit"
	case ProbeRTO:
		return "rto"
	case ProbeRecoveryExit:
		return "recovery-exit"
	default:
		return "unknown"
	}
}

// ProbeEvent is one tcp_probe record: the connection's congestion state
// at the instant the event fired. Values are copied out, so consumers may
// retain events freely.
type ProbeEvent struct {
	At         sim.Time
	Flow       skb.FlowID // the connection's transmit-direction flow
	Kind       ProbeKind
	AckedBytes units.Bytes // newly acked bytes (ack events; 0 otherwise)
	Cwnd       units.Bytes
	Ssthresh   units.Bytes // 0 when the algorithm has none (BBR)
	SRTT       time.Duration
	InFlight   units.Bytes
	SndUna     int64
	SndNxt     int64
}

// ProbeFunc consumes probe events. Implementations must be pure observers
// — no charges, no randomness, no mutation of connection state — so a
// probed run follows the exact trajectory of an unprobed one.
type ProbeFunc func(ev ProbeEvent)

// AddProbe attaches fn alongside any observer already installed: every
// attached probe sees every event, in attachment order. Composing here
// keeps a single emit site in the connection while letting the
// inspector's congestion trace, the passive RTT monitor and the message
// tracer coexist. A nil fn is a no-op.
func (c *Conn) AddProbe(fn ProbeFunc) {
	if fn == nil {
		return
	}
	if c.probe == nil {
		c.probe = fn
		return
	}
	prev := c.probe
	c.probe = func(ev ProbeEvent) {
		prev(ev)
		fn(ev)
	}
}

// emitProbe snapshots the congestion state into the attached probe.
func (c *Conn) emitProbe(at sim.Time, kind ProbeKind, acked units.Bytes) {
	if c.probe == nil {
		return
	}
	c.probe(ProbeEvent{
		At: at, Flow: c.flow, Kind: kind, AckedBytes: acked,
		Cwnd: c.cc.Cwnd(), Ssthresh: c.cc.Ssthresh(), SRTT: c.srtt,
		InFlight: c.InFlight(), SndUna: c.sndUna, SndNxt: c.sndNxt,
	})
}
