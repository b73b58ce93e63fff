// Package trace provides a lightweight event tracer for the simulated
// data path — the equivalent of the paper's kernel instrumentation
// scripts. Hosts emit typed events (syscalls, segment transmissions,
// deliveries, acks, retransmissions) into a bounded ring; tools dump a
// flow's timeline for debugging and teaching.
//
// A nil *Tracer is valid and free: every method no-ops, so the data path
// carries no tracing cost unless a tracer is installed.
package trace

import (
	"fmt"
	"io"
	"slices"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
)

// Kind classifies a traced event.
type Kind uint8

// Event kinds along the Fig. 1 data path. The span kinds (SoftirqStart
// through ThreadEnd) delimit per-core execution of one work item; for
// those, A carries the dominant Table-1 category index and B the cycles
// charged. Drop marks a NIC descriptor drop; GROFlush marks the end of a
// NAPI poll's aggregation (A = skbs delivered up, B = payload bytes).
const (
	AppWrite     Kind = iota // application write syscall accepted bytes
	AppRead                  // application read syscall copied bytes
	TxSegment                // TCP handed a segment to the NIC
	Retransmit               // TCP retransmitted a range
	DeliverSKB               // an skb reached TCP/IP Rx processing
	AckSent                  // receiver emitted an ACK
	Drop                     // NIC dropped a frame (no Rx descriptor)
	GROFlush                 // NAPI poll flushed its GRO aggregates
	SoftirqStart             // a softirq work item began executing
	SoftirqEnd               // a softirq work item finished
	ThreadStart              // a thread quantum began executing
	ThreadEnd                // a thread quantum finished
	numKinds
)

var kindNames = [numKinds]string{
	"app-write", "app-read", "tx-segment", "retransmit", "deliver-skb", "ack-sent",
	"drop", "gro-flush", "softirq-start", "softirq-end", "thread-start", "thread-end",
}

func (k Kind) String() string {
	if k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// Event is one traced occurrence. A and B are kind-specific: sequence
// number and length for data events, cumulative ack and window for acks.
type Event struct {
	At   sim.Time
	Host string
	Core int
	Flow skb.FlowID
	Kind Kind
	A, B int64
}

func (e Event) String() string {
	switch e.Kind {
	case AckSent:
		return fmt.Sprintf("%-12v %-8s core%-3d flow%-4d %-11s cum=%d wnd=%d",
			e.At, e.Host, e.Core, e.Flow, e.Kind, e.A, e.B)
	case SoftirqStart, SoftirqEnd, ThreadStart, ThreadEnd:
		return fmt.Sprintf("%-12v %-8s core%-3d flow%-4d %-11s cat=%d cyc=%d",
			e.At, e.Host, e.Core, e.Flow, e.Kind, e.A, e.B)
	case GROFlush:
		return fmt.Sprintf("%-12v %-8s core%-3d flow%-4d %-11s skbs=%d bytes=%d",
			e.At, e.Host, e.Core, e.Flow, e.Kind, e.A, e.B)
	default:
		return fmt.Sprintf("%-12v %-8s core%-3d flow%-4d %-11s seq=%d len=%d",
			e.At, e.Host, e.Core, e.Flow, e.Kind, e.A, e.B)
	}
}

// Tracer is a bounded ring of events. The zero value is unusable;
// construct with New. A nil Tracer is a valid no-op sink.
type Tracer struct {
	ring    []Event // grows by append up to max, then wraps
	max     int
	next    int
	wrapped bool
	flow    skb.FlowID // 0 = all flows
	dropped int64
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
func (t *Tracer) FilterFlow(f skb.FlowID) {
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
	t.dropped++
}

// Events returns the recorded events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if !t.wrapped {
		out := make([]Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Take returns the recorded events, oldest first, and empties the ring.
// Unlike Events it copies nothing: it orders the ring in place and hands
// it over, so call it when the tracer is done recording.
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

// Dropped returns how many events were evicted from the ring.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Dump writes the timeline to w, oldest first.
func (t *Tracer) Dump(w io.Writer) error {
	for _, e := range t.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	if d := t.Dropped(); d > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier events evicted)\n", d); err != nil {
			return err
		}
	}
	return nil
}
