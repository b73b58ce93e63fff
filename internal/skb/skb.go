// Package skb models socket buffers and the segmentation/coalescing
// machinery that operates on them: wire frames, the in-kernel SKB unit,
// software segmentation (GSO) and generic receive offload (GRO).
//
// A Frame is what travels on the wire (one MTU-or-smaller unit, or a pure
// ACK); an SKB is the unit handed between stack layers. The receive path
// builds one SKB per frame in the driver and then GRO merges adjacent
// same-flow SKBs, up to 64KB, flushing at NAPI poll boundaries — exactly
// the dynamics whose per-flow batching collapse the paper studies in
// §3.5 (Fig. 8c).
package skb

import (
	"fmt"

	"hostsim/internal/cpumodel"
	"hostsim/internal/mem"
	"hostsim/internal/sim"
	"hostsim/internal/units"
)

// FlowID identifies a TCP connection (one direction of traffic).
type FlowID int32

// MaxGROSize is the largest SKB GRO will build (64KB, like Linux).
const MaxGROSize units.Bytes = 64 * units.KB

// MaxGROFlows is the number of flows GRO tracks concurrently before
// evicting the oldest entry (Linux's legacy gro_list bound).
const MaxGROFlows = 8

// Range is a half-open byte range [Start, End) in a flow's sequence space.
type Range struct {
	Start, End int64
}

// Len returns the range length.
func (r Range) Len() int64 { return r.End - r.Start }

// AckInfo is the TCP acknowledgment content carried by a pure-ACK frame.
type AckInfo struct {
	Cum     int64       // cumulative ack: all bytes < Cum received
	Window  units.Bytes // advertised receive window
	SACK    []Range     // up to 3 selective-ack ranges above Cum
	ECNEcho bool        // DCTCP congestion-experienced echo
}

// Frame is one unit on the wire.
type Frame struct {
	Flow  FlowID
	CE    bool        // ECN congestion-experienced mark (set by a switch)
	Seq   int64       // first payload byte's sequence number
	Len   units.Bytes // payload bytes (0 for a pure ACK)
	Ack   *AckInfo    // non-nil for pure ACKs
	Pages []mem.Page  // receive-side DMA pages (set by the receiving NIC)
	Born  sim.Time    // when NAPI processed this frame at the receiver

	// Lifecycle stamps for the profiler's per-packet latency breakdown
	// (Fig. 9) and the message tracer's tail attribution. Zero when
	// neither a profiler nor a message tracer is attached; plain field
	// writes so the stamps cost nothing on the hot path.
	WriteAt sim.Time // application wrote the first payload byte
	TCPTxAt sim.Time // TCP emitted the segment (left the send path)
	NICTxAt sim.Time // NIC put the frame on the wire
	WireAt  sim.Time // frame arrived at the receiving NIC's ring
}

// IsAck reports whether f is a pure acknowledgment.
func (f *Frame) IsAck() bool { return f.Ack != nil }

// WireSize returns the bytes the frame occupies on the wire, including a
// fixed 66-byte Ethernet+IP+TCP header overhead (14+20+20 + options/FCS).
func (f *Frame) WireSize() units.Bytes {
	const hdr = 66
	return f.Len + hdr
}

// SKB is the in-stack buffer unit: possibly several merged frames.
type SKB struct {
	Flow   FlowID
	Seq    int64
	Len    units.Bytes
	Frames int        // wire frames aggregated into this skb
	Pages  []mem.Page // backing pages (receive path)
	Ack    *AckInfo   // set on pure-ACK skbs
	CE     bool       // any merged frame carried a CE mark
	Born   sim.Time   // NAPI timestamp of the first frame (latency metric)

	// Lifecycle stamps inherited from the FIRST merged frame (like Born),
	// plus receive-side stamps set as the skb moves up the stack.
	WriteAt sim.Time // application write (first frame)
	TCPTxAt sim.Time // TCP transmit (first frame)
	NICTxAt sim.Time // NIC transmit (first frame)
	WireAt  sim.Time // wire arrival (first frame)
	GROAt   sim.Time // GRO flushed the skb toward the stack
	TCPRxAt sim.Time // TCP receive processing began
}

// End returns the sequence number one past the skb's last byte.
func (s *SKB) End() int64 { return s.Seq + int64(s.Len) }

func (s *SKB) String() string {
	return fmt.Sprintf("skb{flow %d seq %d len %d frames %d}", s.Flow, s.Seq, s.Len, s.Frames)
}

// Pool recycles SKB structs — and the page-slice capacity they carry —
// across the receive fast path. At 100Gbps with GRO the stack builds and
// destroys tens of thousands of SKBs per simulated millisecond; recycling
// them makes steady-state Rx processing allocation-free. Fresh SKBs are
// carved from blocks, as FramePool carves frames. The zero value is an
// empty pool.
//
// Get copies the frame's page refs into the SKB's own slice instead of
// aliasing the frame's, so the frame can be recycled (via FramePool) the
// moment Get returns.
type Pool struct {
	free  []*SKB
	block []SKB // unused tail of the block fresh skbs are carved from
	// Recycled/Fresh count Gets served from the pool vs carved fresh.
	Recycled int64
	Fresh    int64
	// Puts counts SKBs returned to the pool.
	Puts int64
}

// Get builds a driver-level SKB from one received frame, reusing a pooled
// struct when available.
func (p *Pool) Get(f *Frame) *SKB {
	var s *SKB
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.Recycled++
	} else {
		if len(p.block) == 0 {
			p.block = make([]SKB, skbBlockLen)
		}
		s = &p.block[0]
		p.block = p.block[1:]
		p.Fresh++
	}
	s.Flow = f.Flow
	s.Seq = f.Seq
	s.Len = f.Len
	s.Frames = 1
	s.Pages = append(s.Pages[:0], f.Pages...)
	s.Ack = f.Ack
	s.CE = f.CE
	s.Born = f.Born
	s.WriteAt = f.WriteAt
	s.TCPTxAt = f.TCPTxAt
	s.NICTxAt = f.NICTxAt
	s.WireAt = f.WireAt
	return s
}

// skbBlockLen is how many fresh skbs one Pool allocation carves.
const skbBlockLen = 16

// Put returns a dead SKB to the pool. The caller must not touch s (or its
// Pages slice) afterwards.
func (p *Pool) Put(s *SKB) {
	p.Puts++
	s.Pages = s.Pages[:0]
	s.Ack = nil
	s.CE = false
	s.Frames = 0
	s.WriteAt = 0
	s.TCPTxAt = 0
	s.NICTxAt = 0
	s.WireAt = 0
	s.GROAt = 0
	s.TCPRxAt = 0
	p.free = append(p.free, s)
}

// Outstanding returns the SKBs handed out but never returned. In a
// quiesced stack every one must be accounted for by a live queue, or it
// leaked.
func (p *Pool) Outstanding() int64 {
	return p.Recycled + p.Fresh - p.Puts
}

// FramePool recycles wire Frame structs for the transmit fast path (one
// Frame per MTU under TSO adds up quickly). Frames are Put back by the
// receiving NIC once GRO has absorbed them, or by the sending NIC when
// the network drops them, so with bidirectional traffic a single pool
// shared by both hosts of a link stays balanced. The zero value is an
// empty pool.
type FramePool struct {
	free  []*Frame
	block []Frame    // unused tail of the block fresh frames are carved from
	acks  []*AckInfo // recycled AckInfo records (see GetAck)
	// Gets/Puts count frames handed out and returned.
	Gets int64
	Puts int64
}

// GetAck returns a zeroed AckInfo, reusing a recycled record (and its SACK
// slice capacity) when available. AckInfos are born on one host's ACK
// path and die on the other's (or at whichever NIC drops the ACK), so
// like frames they pool pair-wide.
func (p *FramePool) GetAck() *AckInfo {
	if n := len(p.acks); n > 0 {
		a := p.acks[n-1]
		p.acks[n-1] = nil
		p.acks = p.acks[:n-1]
		return a
	}
	return &AckInfo{}
}

// PutAck recycles a consumed AckInfo; a nil a (a data frame's) is a no-op.
// The caller must not touch a (or its SACK slice) afterwards.
func (p *FramePool) PutAck(a *AckInfo) {
	if a == nil {
		return
	}
	a.Cum = 0
	a.Window = 0
	a.SACK = a.SACK[:0]
	a.ECNEcho = false
	p.acks = append(p.acks, a)
}

// Get returns a zeroed frame (possibly retaining page-slice capacity from
// a previous life). The caller fills in the fields it needs.
func (p *FramePool) Get() *Frame {
	p.Gets++
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return f
	}
	if len(p.block) == 0 {
		p.block = make([]Frame, frameBlockLen)
	}
	f := &p.block[0]
	p.block = p.block[1:]
	return f
}

// frameBlockLen is how many fresh frames one FramePool allocation carves.
const frameBlockLen = 64

// Put recycles a dead frame. The caller must not touch f afterwards.
func (p *FramePool) Put(f *Frame) {
	p.Puts++
	f.Flow = 0
	f.Seq = 0
	f.Len = 0
	f.Ack = nil
	f.CE = false
	f.Pages = f.Pages[:0]
	f.Born = 0
	f.WriteAt = 0
	f.TCPTxAt = 0
	f.NICTxAt = 0
	f.WireAt = 0
	p.free = append(p.free, f)
}

// Outstanding returns the frames handed out but never returned.
func (p *FramePool) Outstanding() int64 {
	return p.Gets - p.Puts
}

// SegmentSizes returns the wire-frame payload sizes produced by cutting
// total bytes into mss-sized chunks (the GSO/TSO split).
func SegmentSizes(total, mss units.Bytes) []units.Bytes {
	return AppendSegmentSizes(nil, total, mss)
}

// AppendSegmentSizes is SegmentSizes appending into dst, so hot callers
// can reuse a scratch slice across transmissions.
func AppendSegmentSizes(dst []units.Bytes, total, mss units.Bytes) []units.Bytes {
	if mss <= 0 {
		panic("skb: non-positive mss")
	}
	for total > 0 {
		c := mss
		if total < c {
			c = total
		}
		dst = append(dst, c)
		total -= c
	}
	return dst
}

// GRO is the generic receive offload engine: one per NIC Rx queue. It
// merges adjacent in-order frames of the same flow into large SKBs.
type GRO struct {
	costs *cpumodel.Costs
	skbs  *Pool      // builds each held SKB
	fp    *FramePool // takes back each absorbed frame
	// entries in arrival order (index 0 = oldest); at most MaxGROFlows.
	entries []*SKB
	// Merged/Flushed count SKBs for diagnostics.
	Merged  int64
	Flushed int64
}

// NewGRO returns a GRO engine charging costs from the given table,
// drawing SKBs from skbs and recycling every frame it absorbs into fp.
func NewGRO(costs *cpumodel.Costs, skbs *Pool, fp *FramePool) *GRO {
	if costs == nil || skbs == nil || fp == nil {
		panic("skb: nil cost table or pool")
	}
	return &GRO{costs: costs, skbs: skbs, fp: fp}
}

// Receive offers one frame to GRO, charging CPU work to ch. Any SKBs
// flushed as a side effect (a completed 64KB aggregate, a non-mergeable
// predecessor, or an evicted flow) are appended to dst, which is returned.
// Pure ACKs bypass aggregation and are appended immediately.
func (g *GRO) Receive(ch cpumodel.Charger, f *Frame, dst []*SKB) []*SKB {
	if f.IsAck() {
		s := g.skbs.Get(f)
		g.fp.Put(f)
		return append(dst, s)
	}
	out := dst
	idx := -1
	for i, e := range g.entries {
		if e.Flow == f.Flow {
			idx = i
			break
		}
	}
	if idx >= 0 {
		e := g.entries[idx]
		if e.End() == f.Seq && e.Len+f.Len <= MaxGROSize {
			// Contiguous and within bound: merge. The page refs are copied
			// out, so the frame is dead and can be recycled.
			e.Len += f.Len
			e.Frames++
			e.Pages = append(e.Pages, f.Pages...)
			e.CE = e.CE || f.CE
			g.Merged++
			ch.Charge(cpumodel.Netdev, g.costs.GROMergeFrame)
			g.fp.Put(f)
			if e.Len == MaxGROSize {
				out = append(out, g.remove(idx))
			}
			return out
		}
		// Same flow but out of order or full: flush the old entry and
		// start fresh — this is how packet loss and interleaving destroy
		// GRO efficiency.
		out = append(out, g.remove(idx))
	} else if len(g.entries) >= MaxGROFlows {
		// Too many concurrent flows: evict the oldest entry.
		out = append(out, g.remove(0))
	}
	ch.Charge(cpumodel.Netdev, g.costs.GRONewFlow)
	g.entries = append(g.entries, g.skbs.Get(f))
	g.fp.Put(f)
	return out
}

// Flush drains all held entries into dst (called at the end of a NAPI
// poll) and returns the extended slice.
func (g *GRO) Flush(dst []*SKB) []*SKB {
	if len(g.entries) == 0 {
		return dst
	}
	g.Flushed += int64(len(g.entries))
	dst = append(dst, g.entries...)
	for i := range g.entries {
		g.entries[i] = nil
	}
	g.entries = g.entries[:0]
	return dst
}

// Held returns the number of in-progress entries.
func (g *GRO) Held() int { return len(g.entries) }

// HeldBytes returns the payload bytes parked in in-progress entries.
func (g *GRO) HeldBytes() units.Bytes {
	var b units.Bytes
	for _, e := range g.entries {
		b += e.Len
	}
	return b
}

func (g *GRO) remove(i int) *SKB {
	e := g.entries[i]
	g.entries = append(g.entries[:i], g.entries[i+1:]...)
	g.Flushed++
	return e
}
