// Package nic models a commodity 100Gbps NIC and its driver: per-core Rx
// queues with descriptor rings and page stashes, DMA with DDIO insertion
// into the NIC-local L3, interrupt moderation, NAPI polling with budget
// and softirq re-arming, GRO (software) or LRO (hardware) aggregation,
// TSO-style transmission, and receive flow steering (Table 2 of the
// paper: RSS / RPS / RFS / aRFS core selection).
package nic

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"hostsim/internal/cache"
	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/fifo"
	"hostsim/internal/mem"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/telemetry"
	"hostsim/internal/trace"
	"hostsim/internal/units"
	"hostsim/internal/wire"
)

// FrameHeader is the wire overhead per frame (Ethernet+IP+TCP); the MSS is
// MTU minus this, so a full frame occupies exactly MTU bytes on the wire.
const FrameHeader units.Bytes = 66

// Config describes the NIC and driver features in play.
type Config struct {
	RxRing          int           // Rx descriptors per queue
	MTU             units.Bytes   // wire MTU (1500 or 9000)
	TSO             bool          // hardware segmentation offload (Tx)
	GRO             bool          // software receive aggregation
	LRO             bool          // hardware receive aggregation (overrides GRO)
	ModerationDelay time.Duration // IRQ coalescing time
	// DCAHazardFactor scales the descriptor-count-driven eviction hazard
	// (see cache.DCA); hazard = min(maxHazard, factor * ringPages/dcaSlots).
	DCAHazardFactor float64
}

const (
	// moderationFrames is the Rx backlog at which the IRQ fires before
	// the moderation delay runs out.
	moderationFrames = 24
	// napiWeight is the frames one NAPI poll takes before re-arming.
	napiWeight = 64
	// maxHazard caps the DCA eviction hazard.
	maxHazard = 0.9
)

// DefaultConfig mirrors the paper's all-optimizations-enabled setup.
func DefaultConfig() Config {
	return Config{
		RxRing:          1024,
		MTU:             9000,
		TSO:             true,
		GRO:             true,
		LRO:             false,
		ModerationDelay: 12 * time.Microsecond,
		DCAHazardFactor: 0.035,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.RxRing <= 0:
		return fmt.Errorf("nic: RxRing = %d, want > 0", c.RxRing)
	case c.MTU <= FrameHeader:
		return fmt.Errorf("nic: MTU = %d, want > %d", c.MTU, FrameHeader)
	case c.ModerationDelay < 0:
		return fmt.Errorf("nic: negative ModerationDelay")
	case !(c.DCAHazardFactor >= 0 && c.DCAHazardFactor <= math.MaxFloat64):
		return fmt.Errorf("nic: DCAHazardFactor = %v, want finite and >= 0", c.DCAHazardFactor)
	}
	return nil
}

// Steering selects the core whose Rx queue handles a flow — the paper's
// Table 2 mechanisms.
type Steering interface {
	QueueFor(flow skb.FlowID) int
}

// RSS hashes the flow onto one of the given cores (hardware receive side
// scaling: 4-tuple hash → queue).
type RSS struct {
	Cores []int
}

// QueueFor implements Steering.
func (r RSS) QueueFor(flow skb.FlowID) int {
	if len(r.Cores) == 0 {
		panic("nic: RSS with no cores")
	}
	h := uint32(flow) * 2654435761 // Knuth multiplicative hash
	return r.Cores[h%uint32(len(r.Cores))]
}

// Pinned steers flows via an explicit table (aRFS: the NIC learns the core
// the application runs on), with a fallback for unknown flows. Table is
// indexed by flow id; flows past its end or with a negative entry are
// unknown.
type Pinned struct {
	Table    []int
	Fallback Steering
}

// QueueFor implements Steering.
func (p Pinned) QueueFor(flow skb.FlowID) int {
	if uint(flow) < uint(len(p.Table)) && p.Table[flow] >= 0 {
		return p.Table[flow]
	}
	if p.Fallback == nil {
		panic(fmt.Sprintf("nic: no steering entry or fallback for flow %d", flow))
	}
	return p.Fallback.QueueFor(flow)
}

// FixedCore steers every flow to one core (the paper's deterministic
// worst case when aRFS is disabled: IRQs pinned to a remote-NUMA core).
type FixedCore int

// QueueFor implements Steering.
func (f FixedCore) QueueFor(skb.FlowID) int { return int(f) }

// Stats counts NIC-level events.
type Stats struct {
	RxFrames    int64
	RxBytes     units.Bytes
	RxDropped   int64 // no descriptor available
	TxFrames    int64
	TxBytes     units.Bytes
	IRQs        int64
	NAPIPolls   int64
	LROCoalesce int64

	// Conservation-audit mirrors: payload bytes of ring-dropped frames,
	// and SKBs/payload handed up the stack by NAPI. RxBytes must equal
	// RxDelivered plus whatever is parked in backlogs and GRO.
	RxDroppedBytes  units.Bytes
	RxDelivered     units.Bytes
	RxDeliveredSKBs int64
}

// DeliverFunc receives fully assembled SKBs from NAPI, in softirq context
// on the queue's core. It is the entry point into TCP/IP Rx processing.
type DeliverFunc func(*exec.Ctx, *skb.SKB)

// TxCompleteFunc is notified (in "hardware" context — no CPU charge) when
// a data frame has been handed to the wire; hosts use it to drive TCP
// small-queue (TSQ) completions.
type TxCompleteFunc func(flow skb.FlowID, bytes units.Bytes)

// NIC is one host's network interface.
type NIC struct {
	eng     *sim.Engine
	sys     *exec.System
	alloc   *mem.Allocator
	dca     *cache.DCA // nil = DCA disabled
	cfg     Config
	egress  wire.Egress
	txRate  units.BitRate // egress.Rate(), fixed for the attachment's life
	deliver DeliverFunc
	steer   Steering
	queues  []*rxQueue // by core id; nil until the core first receives
	stats   Stats

	// Egress: one Tx queue per submitting core, drained round-robin one
	// frame at a time — the frame-level interleaving of a multi-queue
	// NIC's DMA scheduler. This is what breaks per-flow burst adjacency
	// on the wire when many cores transmit (Fig. 8c).
	txqs     []*txq   // by core id; nil until the core first transmits
	txOrder  []*txq   // round-robin order: queue creation order
	txReady  []uint64 // bit i set: txOrder[i] holds frames
	txFrames int      // frames queued across txOrder
	txNext   int      // txOrder position of the last queue served

	// A frame is serializing while txBusy; its Tx-done is keyed (txAt,
	// txSeq). txHeld: that Tx-done is reserved but not scheduled, because
	// no frame was waiting for it (see enqueueTx).
	txBusy     bool
	txHeld     bool
	txAt       sim.Time
	txSeq      uint64
	txComplete TxCompleteFunc

	// Frames accepted by SendFrames but still riding the Defer to the
	// caller's logical completion time (not yet in any Tx queue).
	txPendingFrames  int
	txPendingPayload units.Bytes
	txBatchFree      []*txBatch

	tracer    *trace.Tracer // nil = no tracing
	traceHost string

	// Fast-path pools, shared with the peer NIC: data frames are born at
	// the sender and die at the receiver, so only a pool spanning both
	// ends stays balanced.
	skbPool   *skb.Pool
	framePool *skb.FramePool

	// pageArena is the unused tail of the block that frames arriving with
	// too little page capacity carve their Pages from.
	pageArena []mem.Page
}

// pageArenaLen is the page count of one frame-Pages arena block.
const pageArenaLen = 1024

// txq is one core's egress queue.
type txq struct {
	frames fifo.Ring[*skb.Frame]
	pos    int // index in txOrder, and bit in txReady
}

type rxQueue struct {
	nic          *NIC
	core         int
	posted       int // descriptors with buffers available
	stash        pageStash
	stashDeficit int                   // pages taken by DMA since the last replenish
	descDeficit  int                   // descriptors consumed since the last replenish
	backlog      fifo.Ring[*skb.Frame] // DMA-ed frames NAPI has not polled
	napi         bool                  // NAPI scheduled or running
	modTimer     sim.Timer
	irqPending   bool     // charge IRQEntry on next poll
	gro          *skb.GRO // persistent across polls (always drained at poll end)

	pollFn func(*exec.Ctx) // bound poll, allocated once
	modFn  func()          // bound moderation-timer body, allocated once
	out    []*skb.SKB      // per-poll delivery scratch
}

// pageStash is an Rx queue's page stash: logically one stack, base ++
// fresh ++ top, that DMA pops from the top. base holds the pageset pages
// of the ifup pre-fill and fresh the rest of that pre-fill, still the
// range the allocator reserved, so a queue that never receives a page
// (an ACK-only queue) never materialises its ring's worth. Emergency
// refills and replenishes push onto top.
type pageStash struct {
	base  []mem.Page
	fresh mem.Fresh
	top   []mem.Page
}

func (s *pageStash) len() int { return len(s.base) + s.fresh.N + len(s.top) }

// take pops len(dst) pages into dst, bottom-most first: the order a copy
// from the end of the flat stack would give.
func (s *pageStash) take(dst []mem.Page) {
	k := len(dst)
	t := min(k, len(s.top))
	k -= t
	copy(dst[k:], s.top[len(s.top)-t:])
	s.top = s.top[:len(s.top)-t]
	f := min(k, s.fresh.N)
	k -= f
	s.fresh.N -= f
	for i := 0; i < f; i++ {
		dst[k+i] = s.fresh.Page(s.fresh.N + i)
	}
	copy(dst[:k], s.base[len(s.base)-k:])
	s.base = s.base[:len(s.base)-k]
}

// New builds a NIC wired to everything it calls. dca may be nil (DCA
// disabled). skbs and frames are the receive fast path's recycling pools,
// typically shared with the peer NICs of the same fabric. egress is the
// wire attachment — the host's fabric ingress port, whose egress twin
// toward this host calls ReceiveFromWire. steer picks each received
// flow's Rx queue, deliver is the Rx upcall and txComplete the per-data-
// frame wire-departure notification; all three are required.
func New(eng *sim.Engine, sys *exec.System, alloc *mem.Allocator, dca *cache.DCA, cfg Config,
	skbs *skb.Pool, frames *skb.FramePool, egress wire.Egress,
	steer Steering, deliver DeliverFunc, txComplete TxCompleteFunc) *NIC {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if eng == nil || sys == nil || alloc == nil || skbs == nil || frames == nil || egress == nil ||
		steer == nil || deliver == nil || txComplete == nil {
		panic("nic: nil dependency")
	}
	cores := sys.Spec().NumCores()
	n := &NIC{
		eng: eng, sys: sys, alloc: alloc, dca: dca, cfg: cfg,
		skbPool: skbs, framePool: frames,
		egress: egress, txRate: egress.Rate(),
		steer: steer, deliver: deliver, txComplete: txComplete,
		queues:  make([]*rxQueue, cores),
		txqs:    make([]*txq, cores),
		txReady: make([]uint64, (cores+63)/64),
	}
	if dca != nil {
		dca.SetHazard(n.DCAHazard())
	}
	return n
}

// DCAHazard computes the descriptor-count-driven eviction hazard for the
// configured ring (see cache.DCA and Fig. 3e).
func (n *NIC) DCAHazard() float64 {
	if n.dca == nil {
		return 0
	}
	pagesPerFrame := n.alloc.PagesFor(n.cfg.MTU)
	ringPages := float64(n.cfg.RxRing * pagesPerFrame)
	h := n.cfg.DCAHazardFactor * ringPages / float64(n.dca.Capacity())
	return min(h, maxHazard)
}

// Config returns the NIC configuration.
func (n *NIC) Config() Config { return n.cfg }

// Stats returns a copy of the counters.
func (n *NIC) Stats() Stats { return n.stats }

// queue returns (creating if needed) the Rx queue bound to core.
func (n *NIC) queue(core int) *rxQueue {
	q := n.queues[core]
	if q == nil {
		q = &rxQueue{nic: n, core: core, posted: n.cfg.RxRing}
		q.pollFn = q.poll
		q.modFn = func() {
			if !q.napi && q.backlog.Len() > 0 {
				q.fireIRQ()
			}
		}
		// Pre-fill the page stash for all posted descriptors, as the
		// driver does at ifup. Boot-time cost is not accounted.
		pages := n.cfg.RxRing * n.alloc.PagesFor(n.cfg.MTU)
		q.stash.base, q.stash.fresh = n.alloc.Reserve(core, pages, nil)
		n.queues[core] = q
	}
	return q
}

// SKBPool returns the NIC's SKB pool.
func (n *NIC) SKBPool() *skb.Pool { return n.skbPool }

// FramePool returns the NIC's frame pool.
func (n *NIC) FramePool() *skb.FramePool { return n.framePool }

// SetTrace installs a tracer (nil = none) for NIC-level events — descriptor
// drops and GRO flushes — tagged with the owning host's name.
func (n *NIC) SetTrace(tr *trace.Tracer, host string) {
	n.tracer = tr
	n.traceHost = host
}

// RingOccupancy returns the number of Rx descriptors currently holding
// DMA-ed frames across all queues (posted descriptors consumed but not yet
// replenished by NAPI).
func (n *NIC) RingOccupancy() int {
	occ := 0
	for _, q := range n.queues {
		if q != nil {
			occ += n.cfg.RxRing - q.posted
		}
	}
	return occ
}

// RxBacklog returns the frames (and payload bytes) DMA-ed into rings but
// not yet processed by NAPI, across all queues.
func (n *NIC) RxBacklog() (int, units.Bytes) {
	var frames int
	var payload units.Bytes
	for _, q := range n.queues {
		if q == nil {
			continue
		}
		frames += q.backlog.Len()
		for i := 0; i < q.backlog.Len(); i++ {
			payload += (*q.backlog.At(i)).Len
		}
	}
	return frames, payload
}

// GROHeld returns the SKBs (and payload bytes) parked in GRO engines
// across all queues.
func (n *NIC) GROHeld() (int, units.Bytes) {
	var skbs int
	var payload units.Bytes
	for _, q := range n.queues {
		if q == nil || q.gro == nil {
			continue
		}
		skbs += q.gro.Held()
		payload += q.gro.HeldBytes()
	}
	return skbs, payload
}

// TxQueued returns the frames (and payload bytes) sitting in Tx queues or
// still in flight toward them, accepted by SendFrames but not yet pushed
// onto the wire.
func (n *NIC) TxQueued() (int, units.Bytes) {
	frames := n.txPendingFrames + n.txFrames
	payload := n.txPendingPayload
	for _, t := range n.txOrder {
		for i := 0; i < t.frames.Len(); i++ {
			payload += (*t.frames.At(i)).Len
		}
	}
	return frames, payload
}

// PostedBounds returns the smallest and largest posted-descriptor count
// across Rx queues; a healthy driver keeps every queue within
// [0, RxRing]. With no queues yet, both bounds are RxRing.
func (n *NIC) PostedBounds() (lo, hi int) {
	lo, hi = n.cfg.RxRing, n.cfg.RxRing
	first := true
	for _, q := range n.queues {
		if q == nil {
			continue
		}
		if first || q.posted < lo {
			lo = q.posted
		}
		if first || q.posted > hi {
			hi = q.posted
		}
		first = false
	}
	return lo, hi
}

// telemetryCols and queueCols are the column suffixes of the NIC's two
// telemetry blocks.
var (
	telemetryCols = []string{"ring_occupancy", "rx_frames", "rx_dropped", "tx_frames", "irqs", "napi_polls", "gro_avg_frames"}
	queueCols     = []string{"ring_occupancy", "rx_backlog_frames", "rx_backlog_bytes", "gro_held_skbs", "gro_held_bytes", "tx_queued_frames", "tx_queued_bytes"}
)

// RegisterTelemetry registers the NIC's gauges under prefix (e.g.
// "rx/") as one block. Probes are pure reads; no-op on a nil registry.
func (n *NIC) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Block(prefix, telemetryCols, func(dst []float64) {
		dst[0] = float64(n.RingOccupancy())
		dst[1] = float64(n.stats.RxFrames)
		dst[2] = float64(n.stats.RxDropped)
		dst[3] = float64(n.stats.TxFrames)
		dst[4] = float64(n.stats.IRQs)
		dst[5] = float64(n.stats.NAPIPolls)
		dst[6] = 0
		if n.stats.NAPIPolls != 0 {
			dst[6] = float64(n.stats.RxFrames) / float64(n.stats.NAPIPolls)
		}
	})
}

// RegisterQueueTelemetry registers the NIC's instantaneous queue-depth
// gauges — Rx ring occupancy, NAPI backlog, GRO-held aggregation state and
// Tx queue depth — into reg under prefix as one block. These are the
// `ss`-style diagnostics of the inspect layer: pure reads of where bytes
// are parked right now, complementing RegisterTelemetry's cumulative
// counters.
func (n *NIC) RegisterQueueTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Block(prefix, queueCols, func(dst []float64) {
		dst[0] = float64(n.RingOccupancy())
		rxFrames, rxBytes := n.RxBacklog()
		dst[1], dst[2] = float64(rxFrames), float64(rxBytes)
		groSKBs, groBytes := n.GROHeld()
		dst[3], dst[4] = float64(groSKBs), float64(groBytes)
		txFrames, txBytes := n.TxQueued()
		dst[5], dst[6] = float64(txFrames), float64(txBytes)
	})
}

// txBatch carries one SendFrames call's frames across the Defer to the
// caller's logical completion time. Batches are pooled per NIC, and the
// frame pointers are copied in, so callers may reuse their slice as soon
// as SendFrames returns.
type txBatch struct {
	nic     *NIC
	core    int
	frames  []*skb.Frame
	payload units.Bytes
}

func (n *NIC) getTxBatch() *txBatch {
	if k := len(n.txBatchFree); k > 0 {
		b := n.txBatchFree[k-1]
		n.txBatchFree = n.txBatchFree[:k-1]
		return b
	}
	return &txBatch{nic: n}
}

// sendFramesEv lands a deferred Tx batch in its queue; static so
// SendFrames never allocates in steady state.
func sendFramesEv(a any) {
	b := a.(*txBatch)
	n := b.nic
	n.txPendingFrames -= len(b.frames)
	n.txPendingPayload -= b.payload
	n.enqueueTx(b.core, b.frames)
	for i := range b.frames {
		b.frames[i] = nil
	}
	b.frames = b.frames[:0]
	b.payload = 0
	n.txBatchFree = append(n.txBatchFree, b)
}

// SendFrames enqueues Tx frames on the calling core's Tx queue at the
// context's logical time, charging the per-skb doorbell cost. The egress
// scheduler drains queues round-robin at line rate. The slice is not
// retained: callers may reuse it immediately.
func (n *NIC) SendFrames(ctx *exec.Ctx, frames []*skb.Frame) {
	if len(frames) == 0 {
		return
	}
	ctx.Charge(cpumodel.Netdev, ctx.Costs().TxDoorbell)
	b := n.getTxBatch()
	b.core = ctx.Core().ID()
	b.frames = append(b.frames, frames...)
	for _, f := range frames {
		b.payload += f.Len
	}
	n.txPendingFrames += len(b.frames)
	n.txPendingPayload += b.payload
	ctx.DeferArg(sendFramesEv, b)
}

func (n *NIC) enqueueTx(core int, frames []*skb.Frame) {
	n.stats.TxFrames += int64(len(frames))
	for _, f := range frames {
		n.stats.TxBytes += f.WireSize()
	}
	t := n.txqs[core]
	if t == nil {
		t = &txq{pos: len(n.txOrder)}
		n.txqs[core] = t
		n.txOrder = append(n.txOrder, t)
	}
	for _, f := range frames {
		t.frames.Push(f)
	}
	n.txFrames += len(frames)
	n.txReady[t.pos/64] |= 1 << (t.pos % 64)
	if n.txHeld {
		// A frame now waits on the held Tx-done. If that event would still
		// be pending, schedule it where it would have dispatched; if it
		// would already have fired (finding nothing to send), send now.
		n.txHeld = false
		if !n.eng.Passed(n.txAt, n.txSeq) {
			n.eng.AtArgSeq(n.txAt, n.txSeq, txDoneEv, n)
			return
		}
		n.txBusy = false
	}
	n.pumpTx()
}

// pumpTx drains the Tx queues round-robin, one frame per service slot, at
// line rate. It reserves the sent frame's Tx-done seq and schedules the
// event only if another frame is waiting for it; otherwise the Tx-done is
// held, and the next enqueueTx schedules it or finds it passed. Every
// field the pump needs is read before the egress takes the frame: a
// delivered frame may be recycled by the receiver, and a dropped one is
// recycled here.
func (n *NIC) pumpTx() {
	if n.txBusy || n.txFrames == 0 {
		return
	}
	f := n.nextTxFrame()
	n.txBusy = true
	f.NICTxAt = n.eng.Now()
	flow, payload, ack := f.Flow, f.Len, f.Ack
	ser := n.txRate.Serialize(f.WireSize())
	if n.egress.Send(f) {
		n.framePool.PutAck(ack)
		n.framePool.Put(f)
	}
	if ack == nil && payload > 0 {
		n.txComplete(flow, payload)
	}
	n.txAt = n.eng.Now().Add(ser)
	n.txSeq = n.eng.ReserveSeq()
	if n.txFrames > 0 {
		n.eng.AtArgSeq(n.txAt, n.txSeq, txDoneEv, n)
	} else {
		n.txHeld = true
	}
}

// txDoneEv ends a frame's serialization slot and starts the next frame.
func txDoneEv(a any) {
	n := a.(*NIC)
	n.txBusy = false
	n.pumpTx()
}

// nextTxFrame pops the head frame of the first non-empty queue after
// txNext in txOrder, wrapping. Some queue must hold a frame.
func (n *NIC) nextTxFrame() *skb.Frame {
	start := n.txNext + 1
	if start == len(n.txOrder) {
		start = 0
	}
	i := n.nextReady(start)
	n.txNext = i
	t := n.txOrder[i]
	f := t.frames.Pop()
	n.txFrames--
	if t.frames.Len() == 0 {
		n.txReady[i/64] &^= 1 << (i % 64)
	}
	return f
}

// nextReady returns the first txOrder position at or after start whose
// ready bit is set, wrapping from the last word to the first and round to
// the start word's lower bits. Some bit must be set.
func (n *NIC) nextReady(start int) int {
	words := n.txReady
	w := start / 64
	if b := words[w] >> (uint(start) % 64); b != 0 {
		return start + bits.TrailingZeros64(b)
	}
	for k := 1; k <= len(words); k++ {
		j := w + k
		if j >= len(words) {
			j -= len(words)
		}
		if b := words[j]; b != 0 {
			return j*64 + bits.TrailingZeros64(b)
		}
	}
	panic("nic: no Tx queue holds a frame")
}

// ReceiveFromWire is the link delivery callback: DMA the frame into host
// memory and schedule NAPI per the moderation policy.
func (n *NIC) ReceiveFromWire(f *skb.Frame) {
	f.WireAt = n.eng.Now()
	core := n.steer.QueueFor(f.Flow)
	q := n.queue(core)
	if q.posted <= 0 {
		n.stats.RxDropped++
		n.stats.RxDroppedBytes += f.Len
		n.tracer.Emit(trace.Event{
			At: n.eng.Now().Duration(), Host: n.traceHost, Core: core, Flow: int32(f.Flow),
			Kind: trace.Drop, A: f.Seq, B: int64(f.Len),
		})
		n.framePool.PutAck(f.Ack)
		n.framePool.Put(f)
		return
	}
	q.posted--
	n.stats.RxFrames++
	n.stats.RxBytes += f.Len
	// DMA: attach pages and, if the memory lands on the NIC-local node
	// with DCA enabled, push the lines into the L3 (DDIO).
	need := n.alloc.PagesFor(f.Len)
	if have := q.stash.len(); need > have {
		// Stash exhausted (replenish lag): emergency refill with no CPU
		// cost attribution (the DMA engine stalls, not the CPU).
		q.stash.top = n.alloc.AppendAlloc(cpumodel.Discard{}, q.core, need-have, q.stash.top)
	}
	if cap(f.Pages) >= need {
		f.Pages = f.Pages[:need]
	} else {
		f.Pages = n.framePages(need)
	}
	q.stash.take(f.Pages)
	q.stashDeficit += need
	q.descDeficit++
	if n.dca != nil {
		nicNode := n.sys.Spec().NICNode
		for _, p := range f.Pages {
			if p.Node == nicNode {
				n.dca.Insert(p.ID)
			}
		}
	}
	if n.cfg.LRO && q.tryLRO(f) {
		n.stats.LROCoalesce++
	} else {
		q.backlog.Push(f)
	}
	q.maybeInterrupt()
}

// framePages carves a need-page slice from the NIC's arena. Its capacity
// is capped at need, so a later append (LRO) copies out rather than
// overrunning the next frame's pages.
func (n *NIC) framePages(need int) []mem.Page {
	if len(n.pageArena) < need {
		n.pageArena = make([]mem.Page, max(need, pageArenaLen))
	}
	p := n.pageArena[:need:need]
	n.pageArena = n.pageArena[need:]
	return p
}

// tryLRO coalesces f into the last backlog frame if contiguous, same-flow
// and within the 64KB aggregate bound — hardware aggregation, no CPU cost.
func (q *rxQueue) tryLRO(f *skb.Frame) bool {
	if f.IsAck() || q.backlog.Len() == 0 {
		return false
	}
	last := *q.backlog.Back()
	if last.IsAck() || last.Flow != f.Flow {
		return false
	}
	if last.Seq+int64(last.Len) != f.Seq || last.Len+f.Len > skb.MaxGROSize {
		return false
	}
	last.Len += f.Len
	last.Pages = append(last.Pages, f.Pages...)
	last.CE = last.CE || f.CE
	// The page refs were copied into last; f is dead and can be reused.
	q.nic.framePool.Put(f)
	return true
}

// maybeInterrupt applies the IRQ moderation policy.
func (q *rxQueue) maybeInterrupt() {
	if q.napi {
		return // NAPI already scheduled/running; it will see the backlog
	}
	if q.backlog.Len() >= moderationFrames {
		q.modTimer.Stop()
		q.fireIRQ()
		return
	}
	if !q.modTimer.Pending() {
		q.modTimer = q.nic.eng.After(q.nic.cfg.ModerationDelay, q.modFn)
	}
}

func (q *rxQueue) fireIRQ() {
	q.nic.stats.IRQs++
	q.napi = true
	q.irqPending = true
	q.scheduleNAPI()
}

func (q *rxQueue) scheduleNAPI() {
	q.nic.sys.Core(q.core).RaiseSoftirq(q.pollFn)
}

// poll is the NAPI handler: drain up to napiWeight frames, build skbs,
// aggregate, deliver upwards, replenish descriptors, and either re-arm
// interrupts or re-schedule itself.
func (q *rxQueue) poll(ctx *exec.Ctx) {
	n := q.nic
	costs := ctx.Costs()
	n.stats.NAPIPolls++
	if q.irqPending {
		ctx.Charge(cpumodel.Etc, costs.IRQEntry)
		q.irqPending = false
	}
	ctx.Charge(cpumodel.Netdev, costs.NAPIPollBase)

	budget := min(napiWeight, q.backlog.Len())

	useGRO := n.cfg.GRO && !n.cfg.LRO
	if useGRO && q.gro == nil {
		q.gro = skb.NewGRO(costs, n.skbPool, n.framePool)
	}
	out := q.out[:0]
	for range budget {
		f := q.backlog.Pop()
		f.Born = ctx.Now()
		ctx.SetFlowTag(int32(f.Flow))
		ctx.Charge(cpumodel.Netdev, costs.NAPIPerFrame)
		ctx.Charge(cpumodel.SKBMgmt, costs.SKBBuild)
		ctx.Charge(cpumodel.Memory, costs.SKBAlloc)
		n.alloc.DMAUnmap(ctx, len(f.Pages))
		if useGRO {
			out = q.gro.Receive(ctx, f, out)
		} else {
			// Get copies the page refs out, so the frame is dead.
			out = append(out, n.skbPool.Get(f))
			n.framePool.Put(f)
		}
	}
	if useGRO {
		out = q.gro.Flush(out)
	}
	if n.tracer != nil && len(out) > 0 {
		var bytes int64
		for _, s := range out {
			bytes += int64(s.Len)
		}
		n.tracer.Emit(trace.Event{
			At: ctx.Now().Duration(), Host: n.traceHost, Core: q.core,
			Kind: trace.GROFlush, A: int64(len(out)), B: bytes,
		})
	}
	for _, s := range out {
		s.GROAt = ctx.Now()
		ctx.SetFlowTag(int32(s.Flow))
		n.stats.RxDeliveredSKBs++
		n.stats.RxDelivered += s.Len
		n.deliver(ctx, s)
	}
	for i := range out {
		out[i] = nil // delivered SKBs are recycled downstream; don't retain
	}
	q.out = out[:0]
	ctx.SetFlowTag(0)

	// Replenish: re-post the descriptors consumed since the last poll and
	// restock exactly the pages DMA took from the stash.
	if budget > 0 {
		if q.stashDeficit > 0 {
			q.stash.top = n.alloc.AppendAlloc(ctx, q.core, q.stashDeficit, q.stash.top)
			n.alloc.DMAMap(ctx, q.stashDeficit)
			q.stashDeficit = 0
		}
		q.posted += q.descDeficit
		q.descDeficit = 0
	}

	if q.backlog.Len() > 0 {
		// More arrived than budget: stay in softirq (no new IRQ).
		q.scheduleNAPI()
		return
	}
	q.napi = false // napi_complete: re-arm interrupts
}
