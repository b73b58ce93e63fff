package core

import (
	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/mem"
	"hostsim/internal/skb"
	"hostsim/internal/tcp"
	"hostsim/internal/trace"
	"hostsim/internal/units"
)

// Notify carries the application-layer callbacks of a socket. Either may
// be nil.
type Notify struct {
	// Readable fires in softirq context when in-order data arrives.
	Readable func(ctx *exec.Ctx, ep *Endpoint)
	// Writable fires when send-buffer space opens after ACKs.
	Writable func(ctx *exec.Ctx, ep *Endpoint)
}

// Endpoint is a socket on a host: one TCP connection endpoint bound to an
// application core, wired through the full Fig. 1 data path. Like a
// kernel tcp_sock, which embeds its generic socket, it holds its
// connection by value and is itself the connection's tcp.Hooks, so one
// socket is one allocation.
type Endpoint struct {
	host    *Host
	appCore int
	irqCore int // where the NIC steers this socket's frames under pinned steering
	txFlow  skb.FlowID
	rxFlow  skb.FlowID
	notify  Notify

	txCompPending   units.Bytes // wire departures awaiting completion softirq
	txCompScheduled bool
	txCompFn        func(*exec.Ctx) // bound completion softirq body, allocated once

	// Hot-path scratch: reused across calls, never retained by callees.
	segSizes []units.Bytes // SendSegment segmentation scratch
	txFrames []*skb.Frame  // SendSegment frame-batch scratch
	oneFrame [1]*skb.Frame // SendAck/SendProbe single-frame scratch

	conn tcp.Conn
}

var _ tcp.Hooks = (*Endpoint)(nil)

func newEndpoint(h *Host, appCore int, txFlow, rxFlow skb.FlowID) *Endpoint {
	ep := &Endpoint{host: h, appCore: appCore, txFlow: txFlow, rxFlow: rxFlow}
	cc := tcp.NewCC(h.stack.CC, h.stack.tcp.MSS)
	tcp.Init(&ep.conn, h.eng, h.costs, h.stack.tcp, txFlow, cc, ep)
	ep.txCompFn = func(ctx *exec.Ctx) {
		ep.txCompScheduled = false
		pend := ep.txCompPending
		ep.txCompPending = 0
		if pend == 0 {
			return
		}
		ctx.Charge(cpumodel.Netdev, h.costs.TxComplete)
		ep.conn.TxCompleted(ctx, pend)
	}
	return ep
}

// AppCore returns the application core this socket is bound to.
func (ep *Endpoint) AppCore() int { return ep.appCore }

// TxFlow returns the flow id of this endpoint's outgoing direction.
func (ep *Endpoint) TxFlow() skb.FlowID { return ep.txFlow }

// RxFlow returns the flow id of this endpoint's incoming direction.
func (ep *Endpoint) RxFlow() skb.FlowID { return ep.rxFlow }

// Host returns the owning host.
func (ep *Endpoint) Host() *Host { return ep.host }

// Conn exposes the TCP state (stats, buffers).
func (ep *Endpoint) Conn() *tcp.Conn { return &ep.conn }

// SetNotify installs the application callbacks.
func (ep *Endpoint) SetNotify(n Notify) { ep.notify = n }

// ---------------------------------------------------------------------------
// Sender-side data path (Fig. 1 left): write syscall -> skb alloc -> data
// copy -> TCP/IP -> (GSO) -> qdisc/driver -> NIC.

// Write performs one send syscall of up to n bytes, returning the bytes
// accepted (0 when the send buffer is full; the application should then
// block and wait for Writable).
func (ep *Endpoint) Write(ctx *exec.Ctx, n units.Bytes) units.Bytes {
	h := ep.host
	costs := h.costs
	prevTag := ctx.FlowTag()
	ctx.SetFlowTag(int32(ep.txFlow))
	defer ctx.SetFlowTag(prevTag)
	ctx.Charge(cpumodel.Etc, costs.SyscallBase)
	free := ep.conn.SndBufFree()
	if free <= 0 {
		return 0
	}
	w := n
	if w > free {
		w = free
	}
	// Socket lock from process context.
	ctx.Charge(cpumodel.Lock, costs.SockLockFast)
	// One kernel skb per tx aggregate.
	segs := int((w + h.stack.tcp.SegmentBytes - 1) / h.stack.tcp.SegmentBytes)
	if segs < 1 {
		segs = 1
	}
	ctx.Charge(cpumodel.Memory, costs.SKBAlloc*units.Cycles(segs))
	ctx.Charge(cpumodel.SKBMgmt, costs.SKBBuild*units.Cycles(segs))
	var pages []mem.Page
	if h.stack.ZeroCopyTx {
		// MSG_ZEROCOPY: pin the application's pages and DMA them in
		// place — no user-to-kernel copy, but get_user_pages and a
		// completion notification are paid per send.
		ctx.Charge(cpumodel.Memory, costs.ZCTxPin*units.Cycles(h.spec.PagesFor(w)))
		ctx.Charge(cpumodel.Memory, costs.ZCTxComplete)
	} else {
		// Data copy user -> kernel. Warmth depends on the host-wide send
		// working set (see senderWSFraction).
		miss := h.senderMissRate()
		per := units.PerByte(float64(costs.CopySenderWarm)*(1-miss) + float64(costs.CopyMissLocal)*miss)
		ctx.ChargeBytes(cpumodel.DataCopy, per, w)
		// The chunk's page slice is a slab the connection recycles from an
		// earlier, fully acked chunk or cuts from a block, with room for
		// every page, so AppendAlloc never reallocates it.
		np := h.spec.PagesFor(w)
		pages = h.Alloc.AppendAlloc(ctx, ep.appCore, np, ep.conn.PageSlab(np))
		h.sndInUse += w
	}
	h.written += w
	h.tracer.Emit(trace.Event{At: ctx.Now().Duration(), Host: h.name, Core: ep.appCore,
		Flow: int32(ep.txFlow), Kind: trace.AppWrite, B: int64(w)})
	// Message tracing: register the accepted bytes before TCP sees them,
	// so segments emitted inside this SendData attach to their message.
	h.mt.OnWrite(ep.txFlow, int64(w), ctx.Now())
	ep.conn.SendData(ctx, w, pages)
	return w
}

// SendSegment implements tcp.Hooks: protocol processing, segmentation
// and handoff to the NIC.
func (ep *Endpoint) SendSegment(ctx *exec.Ctx, c *tcp.Conn, seq int64, length units.Bytes, retrans bool) {
	h := ep.host
	costs := h.costs
	ctx.Charge(cpumodel.TCPIP, costs.TCPTxPerSKB)
	kind := trace.TxSegment
	if retrans {
		kind = trace.Retransmit
	}
	h.tracer.Emit(trace.Event{At: ctx.Now().Duration(), Host: h.name, Core: ctx.Core().ID(),
		Flow: int32(c.Flow()), Kind: kind, A: seq, B: int64(length)})
	sizes := skb.AppendSegmentSizes(ep.segSizes[:0], length, h.stack.tcp.MSS)
	ep.segSizes = sizes
	if !h.stack.TSO && h.stack.GSO && len(sizes) > 1 {
		// Software segmentation in the netdevice subsystem.
		ctx.Charge(cpumodel.Netdev, costs.GSOSegment*units.Cycles(len(sizes)))
		ctx.Charge(cpumodel.SKBMgmt, costs.SKBSplit*units.Cycles(len(sizes)))
	}
	ctx.Charge(cpumodel.Netdev, costs.QdiscEnqueue)
	// DMA mapping of the payload pages (and unmap at completion; both are
	// charged here as the completion interrupt is not modelled apart).
	pages := h.spec.PagesFor(length)
	h.Alloc.DMAMap(ctx, pages)
	h.Alloc.DMAUnmap(ctx, pages)
	// The message tracer's transmission mark must carry the exact instant
	// the frames are stamped below, so a first transmission telescopes to
	// a zero retx_wait.
	h.mt.OnSegment(c.Flow(), seq, length, retrans, ctx.Now())
	fp := h.NIC.FramePool()
	frames := ep.txFrames[:0]
	s := seq
	for _, l := range sizes {
		f := fp.Get()
		f.Flow, f.Seq, f.Len = c.Flow(), s, l
		if h.prof != nil || h.mt != nil {
			f.WriteAt = c.WriteTimeOf(s)
			f.TCPTxAt = ctx.Now()
		}
		frames = append(frames, f)
		s += int64(l)
	}
	h.NIC.SendFrames(ctx, frames) // copies the slice; safe to reuse
	for i := range frames {
		frames[i] = nil
	}
	ep.txFrames = frames[:0]
}

// SendAck implements tcp.Hooks: a pure ACK to the NIC.
func (ep *Endpoint) SendAck(ctx *exec.Ctx, c *tcp.Conn, info *skb.AckInfo) {
	ep.host.tracer.Emit(trace.Event{At: ctx.Now().Duration(), Host: ep.host.name, Core: ctx.Core().ID(),
		Flow: int32(ep.rxFlow), Kind: trace.AckSent, A: info.Cum, B: int64(info.Window)})
	ctx.Charge(cpumodel.Netdev, ep.host.costs.QdiscEnqueue/2)
	// The ACK acknowledges the incoming flow: it carries rxFlow so the
	// peer's NIC steers it to the data sender's queue and socket.
	f := ep.host.NIC.FramePool().Get()
	f.Flow, f.Ack = ep.rxFlow, info
	ep.oneFrame[0] = f
	ep.host.NIC.SendFrames(ctx, ep.oneFrame[:]) // copies the slice; safe to reuse
	ep.oneFrame[0] = nil
}

// SendProbe implements tcp.Hooks: a zero-length window probe to the NIC.
func (ep *Endpoint) SendProbe(ctx *exec.Ctx, c *tcp.Conn) {
	f := ep.host.NIC.FramePool().Get()
	f.Flow = c.Flow()
	ep.oneFrame[0] = f
	ep.host.NIC.SendFrames(ctx, ep.oneFrame[:]) // copies the slice; safe to reuse
	ep.oneFrame[0] = nil
}

// Recycle implements tcp.Hooks: it returns a fully consumed skb to the
// cluster's pool. An attached AckInfo dies here — the skb is the record's
// last reference — so it goes back to the frame pool the peer's SendAck
// draws from.
func (ep *Endpoint) Recycle(s *skb.SKB) {
	if s.Ack != nil {
		ep.host.NIC.FramePool().PutAck(s.Ack)
		s.Ack = nil
	}
	ep.host.NIC.SKBPool().Put(s)
}

// NewAck implements tcp.Hooks: ACK records come from the cluster's frame
// pool, where the peer's Recycle returns them.
func (ep *Endpoint) NewAck() *skb.AckInfo { return ep.host.NIC.FramePool().GetAck() }

// Softirq implements tcp.Hooks: it runs fn on the endpoint's
// TCP-processing core (timer handlers, Tx completion), its charges tagged
// with the endpoint's tx flow.
func (ep *Endpoint) Softirq(fn func(*exec.Ctx)) {
	ep.host.Sys.Core(ep.host.processingCoreFor(ep)).RaiseTaggedSoftirq(fn, int32(ep.txFlow))
}

// OnReadable implements tcp.Hooks: it forwards to the application's
// Readable callback.
func (ep *Endpoint) OnReadable(ctx *exec.Ctx, c *tcp.Conn) {
	if ep.notify.Readable != nil {
		ep.notify.Readable(ctx, ep)
	}
}

// OnWritable implements tcp.Hooks: it forwards to the application's
// Writable callback.
func (ep *Endpoint) OnWritable(ctx *exec.Ctx, c *tcp.Conn) {
	if ep.notify.Writable != nil {
		ep.notify.Writable(ctx, ep)
	}
}

// OnAckedPages implements tcp.Hooks: it frees sender pages once the peer
// acknowledged the bytes.
func (ep *Endpoint) OnAckedPages(ctx *exec.Ctx, c *tcp.Conn, pages []mem.Page) {
	h := ep.host
	ctx.Charge(cpumodel.SKBMgmt, h.costs.SKBRelease)
	ctx.Charge(cpumodel.Memory, h.costs.SKBFree)
	released := units.Bytes(len(pages)) * h.spec.PageSize
	if released > h.sndInUse {
		released = h.sndInUse
	}
	h.sndInUse -= released
	h.Alloc.Free(ctx, ctx.Core().ID(), pages)
}

// ---------------------------------------------------------------------------
// Receiver-side data path (Fig. 1 right): socket receive queue -> recv
// syscall -> data copy (probing DDIO) -> page free.

// Read performs one recv syscall of up to max bytes, copying the payload
// to userspace and freeing kernel pages. Returns bytes read (0 = would
// block).
func (ep *Endpoint) Read(ctx *exec.Ctx, max units.Bytes) units.Bytes {
	h := ep.host
	costs := h.costs
	prevTag := ctx.FlowTag()
	ctx.SetFlowTag(int32(ep.rxFlow))
	defer ctx.SetFlowTag(prevTag)
	ctx.Charge(cpumodel.Etc, costs.SyscallBase)
	skbs := ep.conn.Read(ctx, max)
	if len(skbs) == 0 {
		return 0
	}
	// Socket lock from process context: contended when softirq processing
	// runs on a different core (no aRFS/RFS).
	if h.processingCoreFor(ep) == ep.appCore {
		ctx.Charge(cpumodel.Lock, costs.SockLockFast)
	} else {
		ctx.Charge(cpumodel.Lock, costs.SockLockContended)
	}
	var total units.Bytes
	readerNode := h.spec.NodeOf(ep.appCore)
	nicNode := h.spec.NICNode
	for _, s := range skbs {
		h.latency.Record(float64(ctx.Now() - s.Born))
		total += s.Len
		if h.stack.ZeroCopyRx {
			// mmap-based receive: remap the payload pages into the
			// application instead of copying; pay the page-table work.
			ctx.Charge(cpumodel.Memory, costs.ZCRxMap*units.Cycles(len(s.Pages)))
			for _, p := range s.Pages {
				if h.DCA != nil && p.Node == nicNode {
					h.DCA.Drop(p.ID)
				}
			}
		} else {
			// Copy cost page by page: DDIO hit, local DRAM, or remote DRAM.
			remaining := s.Len
			for _, p := range s.Pages {
				chunk := h.spec.PageSize
				if chunk > remaining {
					chunk = remaining
				}
				remaining -= chunk
				var per units.PerByte
				resident := false
				if h.DCA != nil && p.Node == nicNode {
					resident = h.DCA.Consume(p.ID)
				}
				switch {
				case resident && p.Node == readerNode:
					per = costs.CopyHit
					h.copyHitB += chunk
				case resident && p.Node != readerNode:
					// Data sits in the NIC-local L3 but the reader is on
					// another socket: a cross-socket access, effectively a
					// miss for the reader.
					per = costs.CopyMissRemote
					h.copyMissB += chunk
				case p.Node == readerNode:
					per = costs.CopyMissLocal
					h.copyMissB += chunk
				default:
					per = costs.CopyMissRemote
					h.copyMissB += chunk
				}
				ctx.ChargeBytes(cpumodel.DataCopy, per, chunk)
			}
		}
		ctx.Charge(cpumodel.SKBMgmt, costs.SKBRelease)
		ctx.Charge(cpumodel.Memory, costs.SKBFree)
		if len(s.Pages) > 0 {
			h.Alloc.Free(ctx, ep.appCore, s.Pages)
		}
		if h.prof != nil {
			h.prof.Lifecycle().Record(s, ctx.Now())
		}
		h.mt.OnDeliver(s, ctx.Now())
		ep.Recycle(s)
	}
	h.copied += total
	h.tracer.Emit(trace.Event{At: ctx.Now().Duration(), Host: h.name, Core: ep.appCore,
		Flow: int32(ep.rxFlow), Kind: trace.AppRead, B: int64(total)})
	return total
}
