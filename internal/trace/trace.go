// Package trace provides a lightweight event tracer for the simulated
// data path — the equivalent of the paper's kernel instrumentation
// scripts. Hosts emit events (syscalls, segment transmissions,
// deliveries, acks, retransmissions) into a bounded ring, which the run
// hands over whole as its recorded timeline.
//
// A nil *Tracer is valid and free: every method no-ops, so the data path
// carries no tracing cost unless a tracer is installed.
package trace

import (
	"slices"
	"time"
)

// Event kinds along the Fig. 1 data path; the names are the public
// identifiers in the run's trace and its Chrome-trace export. The span
// kinds (SoftirqStart through ThreadEnd) delimit per-core execution of
// one work item; for those, A carries the dominant Table-1 category index
// and B the cycles charged. Drop marks a NIC descriptor drop; GROFlush
// marks the end of a NAPI poll's aggregation (A = skbs delivered up,
// B = payload bytes).
const (
	AppWrite     = "app-write"     // application write syscall accepted bytes
	AppRead      = "app-read"      // application read syscall copied bytes
	TxSegment    = "tx-segment"    // TCP handed a segment to the NIC
	Retransmit   = "retransmit"    // TCP retransmitted a range
	DeliverSKB   = "deliver-skb"   // an skb reached TCP/IP Rx processing
	AckSent      = "ack-sent"      // receiver emitted an ACK
	Drop         = "drop"          // NIC dropped a frame (no Rx descriptor)
	GROFlush     = "gro-flush"     // NAPI poll flushed its GRO aggregates
	SoftirqStart = "softirq-start" // a softirq work item began executing
	SoftirqEnd   = "softirq-end"   // a softirq work item finished
	ThreadStart  = "thread-start"  // a thread quantum began executing
	ThreadEnd    = "thread-end"    // a thread quantum finished
)

// Event is one traced occurrence. A and B are kind-specific: sequence
// number and length for data events, cumulative ack and window for acks.
type Event struct {
	At   time.Duration // since simulation start
	Host string
	Core int
	Flow int32
	Kind string
	A, B int64
}

// Tracer is a bounded ring of events. The zero value is unusable;
// construct with New. A nil Tracer is a valid no-op sink.
type Tracer struct {
	ring    []Event // grows by append up to max, then wraps
	max     int
	next    int
	wrapped bool
	flow    int32 // 0 = all flows
}

// initialRing bounds the events New allocates up front; the ring grows
// past it with the events recorded.
const initialRing = 4096

// New builds a tracer holding the most recent max events. The ring starts
// at min(max, initialRing) events and grows as events arrive, so a max far
// above a run's event count costs only what the run records.
func New(max int) *Tracer {
	if max <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Tracer{ring: make([]Event, 0, min(max, initialRing)), max: max}
}

// FilterFlow restricts recording to one flow (0 = all).
func (t *Tracer) FilterFlow(f int32) {
	if t == nil {
		return
	}
	t.flow = f
}

// Emit records an event. Safe on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if t.flow != 0 && e.Flow != t.flow {
		return
	}
	if len(t.ring) < t.max {
		t.ring = append(t.ring, e)
		return
	}
	t.ring[t.next] = e
	t.next = (t.next + 1) % t.max
	t.wrapped = true
}

// Take returns the recorded events, oldest first, and empties the ring.
// It copies nothing: it orders the ring in place and hands it over, so
// call it when the tracer is done recording.
func (t *Tracer) Take() []Event {
	if t == nil {
		return nil
	}
	out := t.ring
	if t.wrapped {
		// Rotate left by next: reversing both halves and then the whole.
		slices.Reverse(out[:t.next])
		slices.Reverse(out[t.next:])
		slices.Reverse(out)
	}
	t.ring, t.next, t.wrapped = nil, 0, false
	return out
}
