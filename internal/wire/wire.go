// Package wire models the path between the two hosts' NICs: a full-duplex
// 100Gbps link as two independent unidirectional serializers, with
// propagation delay, an optional random-drop switch (the paper's Fig. 9
// in-network congestion experiment), and an optional ECN marking threshold
// (for DCTCP).
package wire

import (
	"time"

	"hostsim/internal/fifo"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// Egress is a NIC's attachment point to the network: a switch-fabric
// ingress port in every assembled topology (the two-host testbed is a
// 2-port fabric), or a bare point-to-point Link in unit rigs. Send takes
// the frame without charging CPU (transmission is "hardware") and reports
// whether the network dropped it on the spot. A delivered frame belongs
// to the receiver; a dropped one is back with the caller, which recycles
// it. Rate is the attachment's fixed line rate, which the NIC uses to
// pace its Tx pump one frame at a time.
type Egress interface {
	Send(f *skb.Frame) (dropped bool)
	Rate() units.BitRate
}

// Stats counts link activity.
type Stats struct {
	Sent      int64       // frames accepted for transmission
	Delivered int64       // frames handed to the receiver
	Dropped   int64       // frames lost at the switch
	Marked    int64       // frames CE-marked
	TxBytes   units.Bytes // wire bytes serialized (including headers)

	// Payload-byte mirrors of the frame counters, kept so byte
	// conservation (sent = delivered + dropped + in flight) can be
	// audited without multiplying frame counts by an assumed size.
	SentPayload      units.Bytes
	DeliveredPayload units.Bytes
	DroppedPayload   units.Bytes
}

// Link is one direction of the inter-host path. Frames serialize in FIFO
// order at the link rate, then propagate for Delay before delivery.
//
// A frame's delivery time is the serializer's free time plus the fixed
// Delay, and the free time never decreases, so frames reach the far end in
// the order they were sent. The link therefore keeps its in-flight frames
// in a ring and holds one engine event, for the head. Each frame reserves
// its engine sequence number at Send, and the head's event is scheduled
// under it, so every delivery dispatches exactly where a per-frame event
// scheduled at Send would have.
type Link struct {
	eng      *sim.Engine
	rate     units.BitRate
	delay    time.Duration
	deliver  func(*skb.Frame)
	lossRate float64
	// ecnThreshold marks frames CE when the serializer backlog exceeds
	// this many bytes (a proxy for switch queue depth). 0 disables ECN.
	ecnThreshold units.Bytes
	nextFree     sim.Time
	stats        Stats
	tap          func(f *skb.Frame, dropped bool) // nil = capture off
	deliverTap   func(f *skb.Frame)               // nil = delivery observer off
	deliverEv    func(any)                        // bound deliverFrame, allocated once

	// Frames past the switch but not yet delivered (serializing or
	// propagating), oldest first. Only the front has a pending engine
	// event. The two counters are audited by the conservation checker.
	ring            fifo.Ring[inflight]
	inflightFrames  int64
	inflightPayload units.Bytes
}

// inflight is one frame on the link: its delivery time and the engine
// sequence number reserved for its delivery event at Send.
type inflight struct {
	f   *skb.Frame
	at  sim.Time
	seq uint64
}

// NewLink builds a link delivering frames to deliver.
func NewLink(eng *sim.Engine, rate units.BitRate, delay time.Duration, deliver func(*skb.Frame)) *Link {
	if eng == nil || deliver == nil {
		panic("wire: nil engine or delivery callback")
	}
	if rate <= 0 {
		panic("wire: non-positive link rate")
	}
	if delay < 0 {
		panic("wire: negative delay")
	}
	l := &Link{eng: eng, rate: rate, delay: delay, deliver: deliver}
	l.deliverEv = l.deliverFrame
	return l
}

// SetLossRate configures the switch's Bernoulli drop probability.
func (l *Link) SetLossRate(p float64) {
	if p < 0 || p > 1 {
		panic("wire: loss rate outside [0,1]")
	}
	l.lossRate = p
}

// SetECNThreshold enables CE marking when the serializer backlog exceeds
// thresh bytes. Zero disables marking.
func (l *Link) SetECNThreshold(thresh units.Bytes) {
	if thresh < 0 {
		panic("wire: negative ECN threshold")
	}
	l.ecnThreshold = thresh
}

// AddTap installs a frame observer, invoked once for every frame accepted
// by Send — after the ECN-marking and switch-drop decisions, so the
// callback sees the frame exactly as the wire does (dropped reports the
// switch's verdict). It composes tap after any observer already
// installed, so independent subsystems (the inspector's capture, the
// fabric observatory) can watch the same link without clobbering each
// other — the same chaining contract as Conn.AddProbe. A tap must be a
// pure read: it may not mutate or retain the frame (delivered frames are
// recycled by the receiver, dropped ones by the sender), so a tapped run
// follows the exact trajectory of an untapped one. With no tap attached,
// Send pays only a pointer test.
func (l *Link) AddTap(tap func(f *skb.Frame, dropped bool)) {
	if tap == nil {
		panic("wire: nil tap")
	}
	if prev := l.tap; prev != nil {
		l.tap = func(f *skb.Frame, dropped bool) {
			prev(f, dropped)
			tap(f, dropped)
		}
		return
	}
	l.tap = tap
}

// SetDeliverTap installs a delivery observer (nil detaches), invoked once
// for every frame handed to the receiver, immediately before delivery —
// the egress-edge counterpart of AddTap's switch-edge view, giving an
// observer both ends of the hop. Like a tap it must be a pure read: the
// receiver may recycle the frame the moment delivery completes. With no
// observer attached, delivery pays only a pointer test.
func (l *Link) SetDeliverTap(tap func(f *skb.Frame)) { l.deliverTap = tap }

// Rate returns the link rate.
func (l *Link) Rate() units.BitRate { return l.rate }

// Stats returns a copy of the counters.
func (l *Link) Stats() Stats { return l.stats }

// InFlight reports the frames (and their payload bytes) accepted past the
// switch but not yet handed to the receiver.
func (l *Link) InFlight() (int64, units.Bytes) {
	return l.inflightFrames, l.inflightPayload
}

// Backlog returns the bytes' worth of serialization time still queued.
func (l *Link) Backlog() units.Bytes {
	now := l.eng.Now()
	if l.nextFree <= now {
		return 0
	}
	return units.Bytes(int64(l.nextFree-now) * int64(l.rate) / (8 * int64(time.Second)))
}

// Send enqueues f for transmission. Loss and marking are evaluated at the
// switch, i.e. after the frame has consumed wire time. Send reports a
// loss drop; the link keeps no reference to a dropped frame, so the
// caller may recycle it.
func (l *Link) Send(f *skb.Frame) (dropped bool) {
	if f == nil {
		panic("wire: nil frame")
	}
	l.stats.Sent++
	l.stats.SentPayload += f.Len
	now := l.eng.Now()
	start := l.nextFree
	if start < now {
		start = now
	}
	ser := l.rate.Serialize(f.WireSize())
	l.nextFree = start.Add(ser)
	l.stats.TxBytes += f.WireSize()
	if l.ecnThreshold > 0 && l.Backlog() > l.ecnThreshold {
		f.CE = true
		l.stats.Marked++
	}
	dropped = l.lossRate > 0 && l.eng.Rand().Float64() < l.lossRate
	if l.tap != nil {
		l.tap(f, dropped)
	}
	if dropped {
		l.stats.Dropped++
		l.stats.DroppedPayload += f.Len
		return true // consumed wire time, then died at the switch
	}
	it := inflight{f: f, at: l.nextFree.Add(l.delay), seq: l.eng.ReserveSeq()}
	l.ring.Push(it)
	l.inflightFrames++
	l.inflightPayload += f.Len
	if l.ring.Len() == 1 {
		l.eng.AtArgSeq(it.at, it.seq, l.deliverEv, nil)
	}
	return false
}

// deliverFrame is the wire-delivery event for the ring's head. It pops the
// head and schedules the next one before delivering, so a Send made from
// inside the delivery callback finds the ring consistent. In-flight frames
// are immutable (only the receiver mutates frames, after delivery), so
// f.Len here equals its value at Send — but it is read before l.deliver,
// which may recycle f.
func (l *Link) deliverFrame(any) {
	f := l.ring.Pop().f
	pl := f.Len
	l.inflightFrames--
	l.inflightPayload -= pl
	if l.ring.Len() > 0 {
		nx := l.ring.Front()
		l.eng.AtArgSeq(nx.at, nx.seq, l.deliverEv, nil)
	}
	l.stats.Delivered++
	l.stats.DeliveredPayload += pl
	if l.deliverTap != nil {
		l.deliverTap(f)
	}
	l.deliver(f)
}
