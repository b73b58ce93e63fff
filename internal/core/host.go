package core

import (
	"fmt"
	"time"

	"hostsim/internal/cache"
	"hostsim/internal/check"
	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/fabric"
	"hostsim/internal/mem"
	"hostsim/internal/metrics"
	"hostsim/internal/mtrace"
	"hostsim/internal/nic"
	"hostsim/internal/profile"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/tcp"
	"hostsim/internal/telemetry"
	"hostsim/internal/topology"
	"hostsim/internal/trace"
	"hostsim/internal/units"
)

// senderWSFraction scales the host's in-use send-buffer bytes into an
// effective cache working set for the sender-side copy. The application's
// source buffers stay hot and copy destinations are write-allocated, so
// only a small fraction of in-flight bytes competes for L3 reads (§3.4:
// the paper observes sender miss rates of only ~8-24% even with 24
// active flows).
const senderWSFraction = 0.08

// senderBaseMiss is the compulsory sender-side copy miss floor.
const senderBaseMiss = 0.04

// senderMissCap bounds the sender-copy miss rate: the dominant read
// stream (the application buffer) stays cache-resident regardless of how
// much acked-pending data exists.
const senderMissCap = 0.35

// Host is one server: cores, memory, cache, NIC and sockets.
type Host struct {
	name  string
	eng   *sim.Engine
	spec  topology.MachineSpec
	costs *cpumodel.Costs
	stack stackSettings

	Sys   *exec.System
	Alloc *mem.Allocator
	DCA   *cache.DCA
	NIC   *nic.NIC

	flows *flowTable  // shared cluster-wide
	eps   []*Endpoint // local endpoints in tx-flow order

	sndInUse units.Bytes // in-use send-buffer bytes (sender cache model)
	senderWS cache.WorkingSet

	// ---- measurement state.
	copied    units.Bytes // bytes delivered to applications
	written   units.Bytes // bytes applications pushed into sockets
	copyHitB  units.Bytes
	copyMissB units.Bytes
	latency   *metrics.Histogram // NAPI -> start of data copy, ns
	skbSizes  *metrics.Histogram // post-GRO data skb sizes, bytes
	unsteered int64
	steerMiss int64             // skbs TCP processed off the app core; not reset at warm-up
	tracer    *trace.Tracer     // nil = tracing off
	prof      *profile.Profiler // nil = profiling off
	mt        *mtrace.Tracer    // nil = message tracing off

	// ---- invariant-checker state (nil/zero when checking is off).
	chkLedger   *check.CycleLedger // independent cycle tally from the charge log
	rpsInFlight int64              // skbs deferred to a cross-core softirq (RPS/RFS)

	telemetry *telemetry.Registry // nil = telemetry off

	// Receiver-driven scheduler state (Stack.RcvSchedulerK), by app core.
	schedGroups  [][]*Endpoint // receiving endpoints
	schedIdx     []int         // rotation offset into schedGroups
	schedStarted bool

	fab  *fabric.Fabric // the switch this host attaches to
	port int            // this host's port on fab
}

// SetTracer installs an event tracer (nil disables tracing). The NIC
// shares it for drop and GRO-flush events.
func (h *Host) SetTracer(tr *trace.Tracer) {
	h.tracer = tr
	h.NIC.SetTrace(tr, h.name)
}

// EnableProfiler attaches a cycle profiler (nil detaches): every work
// item's charge log is forwarded to p tagged with this host's name, and
// the data path starts stamping skb lifecycle points and tagging charge
// contexts with flow ids. With no profiler attached all of those hooks
// reduce to pointer tests and plain field writes — the hot path stays
// allocation-free.
func (h *Host) EnableProfiler(p *profile.Profiler) {
	h.prof = p
	h.installChargeLog()
}

// installChargeLog points the exec layer's charge log at whichever
// consumers are attached — the profiler, the invariant checker's cycle
// ledger, or both — and disables it when neither is.
func (h *Host) installChargeLog() {
	p, led := h.prof, h.chkLedger
	if p == nil && led == nil {
		h.Sys.SetChargeLog(nil)
		return
	}
	name := h.name
	h.Sys.SetChargeLog(func(core int, softirq bool, thread string, log []exec.FlowCharge) {
		if led != nil {
			led.Record(log)
		}
		if p != nil {
			p.Record(name, softirq, thread, log)
		}
	})
}

// EnableMsgTrace attaches the per-message tracer (nil detaches): writes,
// segment emissions and in-order deliveries are reported to t, and the
// data path stamps skb lifecycle points exactly as it does for the
// profiler. Every hook is a pure observer behind a pointer test, so a
// detached tracer costs nothing on the hot path.
func (h *Host) EnableMsgTrace(t *mtrace.Tracer) { h.mt = t }

// newHost builds a host on the cluster's flow table. NewCluster, which
// resolved stack and validated spec, gives it its NIC once the fabric exists.
func newHost(name string, eng *sim.Engine, spec topology.MachineSpec,
	costs *cpumodel.Costs, stack stackSettings, flows *flowTable) *Host {
	h := &Host{
		name:     name,
		eng:      eng,
		spec:     spec,
		costs:    costs,
		stack:    stack,
		Sys:      exec.NewSystem(eng, spec, costs),
		Alloc:    mem.NewAllocator(spec, costs),
		flows:    flows,
		senderWS: cache.WorkingSet{Capacity: spec.L3PerNode, BaseMiss: senderBaseMiss},
		latency:  metrics.NewLatency(),
		skbSizes: metrics.NewSize(),
	}
	if stack.RcvSchedulerK > 0 {
		h.schedGroups = make([][]*Endpoint, spec.NumCores())
		h.schedIdx = make([]int, spec.NumCores())
	}
	h.Alloc.SetIOMMU(stack.IOMMU)
	h.Sys.SetGranularity(stack.granularity)
	h.Alloc.SetPagesetCap(stack.pagesetCap)
	if stack.DCA {
		h.DCA = cache.NewDCA(cache.DCAConfig{
			Capacity: spec.DCACapacity(),
			PageSize: spec.PageSize,
			Rand:     eng.Rand(),
		})
	}
	return h
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// txComplete is the NIC's wire-departure notification: batch it per
// endpoint and process in softirq (TSQ completion).
func (h *Host) txComplete(flow skb.FlowID, bytes units.Bytes) {
	ep := h.sender(flow)
	if ep == nil {
		return
	}
	ep.txCompPending += bytes
	if ep.txCompScheduled {
		return
	}
	ep.txCompScheduled = true
	ep.Softirq(ep.txCompFn)
}

// steering returns the NIC steering of the configured policy.
func (h *Host) steering() nic.Steering {
	all := make([]int, h.spec.NumCores())
	for i := range all {
		all[i] = i
	}
	switch h.stack.steer {
	case SteerRSSHash, SteerRFS, SteerRPS:
		// Hardware only hashes (RSS); software modes forward afterwards.
		return nic.RSS{Cores: all}
	default:
		return pinnedSteering{h: h, rss: nic.RSS{Cores: all}}
	}
}

// pinnedSteering is the NIC steering of the pinned policies (aRFS and the
// fixed IRQ mappings): incoming data and the ACKs for outgoing data both
// land on the IRQ core of the local endpoint of their flow. Flows with no
// local endpoint hash (RSS).
type pinnedSteering struct {
	h   *Host
	rss nic.RSS
}

// QueueFor implements nic.Steering.
func (p pinnedSteering) QueueFor(flow skb.FlowID) int {
	if ep := p.h.sender(flow); ep != nil {
		return ep.irqCore
	}
	if ep := p.h.receiver(flow); ep != nil {
		return ep.irqCore
	}
	return p.rss.QueueFor(flow)
}

// steeringCoreFor returns where a flow's hardware IRQ lands given the
// policy: the app core under aRFS, or an explicit worst-case core on a
// different NUMA node.
func (h *Host) steeringCoreFor(appCore int) int {
	switch h.stack.steer {
	case SteerARFS:
		return appCore
	case SteerWorstCase:
		// The same-index core of the next NUMA node (wrapping):
		// deterministic and always NUMA-remote from the application, as
		// in the paper.
		per := h.spec.CoresPerNode
		remote := (h.spec.NodeOf(appCore) + 1) % h.spec.NUMANodes
		return remote*per + appCore%per
	case SteerSameNUMA:
		// The paper's IRQ-mapping case 2: the next core on the same node.
		per := h.spec.CoresPerNode
		return h.spec.NodeOf(appCore)*per + (appCore%per+1)%per
	default:
		return appCore // table unused under RSS-based modes
	}
}

// processingCoreFor returns where a flow's TCP/IP processing runs: under
// software steering (RPS/RFS) this differs from the hardware IRQ core,
// which register computed once as ep.irqCore.
func (h *Host) processingCoreFor(ep *Endpoint) int {
	switch h.stack.steer {
	case SteerRFS:
		return ep.appCore // software flow steering finds the app's core
	case SteerRPS:
		// Software packet steering: flow hash over all cores.
		hsh := uint32(ep.rxFlow)*2654435761 + 0x9e37
		return int((hsh >> 8) % uint32(h.spec.NumCores()))
	default:
		return ep.irqCore
	}
}

// deliver is the NIC upcall: route the skb to its endpoint and run TCP Rx
// processing — here for hardware-steered modes, or after a forwarding hop
// to the processing core for software RPS/RFS.
func (h *Host) deliver(ctx *exec.Ctx, s *skb.SKB) {
	var ep *Endpoint
	if s.Ack != nil {
		ep = h.sender(s.Flow)
	} else {
		ep = h.receiver(s.Flow)
	}
	if ep == nil {
		h.unsteered++
		return
	}
	target := h.processingCoreFor(ep)
	if (h.stack.steer == SteerRPS || h.stack.steer == SteerRFS) &&
		ctx.Core().ID() != target {
		// enqueue_to_backlog + IPI, then TCP/IP in the target's softirq.
		ctx.Charge(cpumodel.Netdev, h.costs.RPSSteer)
		tc := h.Sys.Core(target)
		h.rpsInFlight++
		ctx.Defer(func() {
			tc.RaiseSoftirq(func(ctx2 *exec.Ctx) {
				h.rpsInFlight--
				ctx2.Charge(cpumodel.Etc, h.costs.IRQEntry/3) // softirq entry
				h.process(ctx2, ep, s)
			})
		})
		return
	}
	h.process(ctx, ep, s)
}

// process runs socket-level Rx handling in the current softirq context.
func (h *Host) process(ctx *exec.Ctx, ep *Endpoint, s *skb.SKB) {
	// Attribute everything from here (socket lock, TCP Rx, ACK-triggered
	// pump and retransmissions) to the skb's flow; for pure ACKs s.Flow is
	// the data flow being acknowledged, which is the right bucket.
	ctx.SetFlowTag(int32(s.Flow))
	if (h.prof != nil || h.mt != nil) && s.Ack == nil {
		s.TCPRxAt = ctx.Now()
	}
	// Socket lock: cheap when the application shares this core,
	// contended otherwise.
	if ctx.Core().ID() == ep.appCore {
		ctx.Charge(cpumodel.Lock, h.costs.SockLockFast)
	} else {
		ctx.Charge(cpumodel.Lock, h.costs.SockLockContended)
		h.steerMiss++
	}
	if s.Ack == nil && s.Len > 0 {
		h.skbSizes.Record(float64(s.Len))
		h.tracer.Emit(trace.Event{At: ctx.Now().Duration(), Host: h.name, Core: ctx.Core().ID(),
			Flow: int32(s.Flow), Kind: trace.DeliverSKB, A: s.Seq, B: int64(s.Len)})
	}
	ep.conn.OnSegment(ctx, s)
}

// EnableTelemetry registers this host's metrics into reg, prefixed with
// the host name (e.g. "sender/copied_bytes"), the NIC's gauges included.
// Call before opening connections (endpoints register per-flow gauges as
// they appear). No-op on a nil registry.
func (h *Host) EnableTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	h.telemetry = reg
	p := h.name + "/"
	reg.Block(p, hostCols, func(dst []float64) {
		dst[0] = float64(h.copied)
		dst[1] = float64(h.written)
		dst[2] = h.CopyMissRate()
		dst[3] = h.skbSizes.Mean()
		dst[4] = h.latency.Quantile(0.99) / 1e3
		dst[5] = float64(h.unsteered)
		dst[6] = float64(h.steerMiss)
	})
	h.NIC.RegisterTelemetry(reg, p+"nic/")
	if h.DCA != nil {
		reg.Block(p, ddioCols, func(dst []float64) {
			dst[0] = 1 - h.DCA.Stats().MissRate()
			dst[1] = float64(h.DCA.Resident())
		})
	}
	n := h.spec.NumCores()
	reg.Block(p, coreTelemCols.get(n), func(dst []float64) {
		for i := 0; i < n; i++ {
			c, d := h.Sys.Core(i), dst[4*i:4*i+4]
			d[0] = c.SoftirqTime().Seconds() * 1e6
			d[1] = c.ThreadTime().Seconds() * 1e6
			d[2] = float64(c.RunqLen())
			d[3] = c.RunqWait().Seconds() * 1e6
		}
	})
}

// registerFlowTelemetry adds per-flow TCP gauges for a newly opened
// endpoint (sender-side state: cwnd, srtt, retransmits, receive buffer).
func (h *Host) registerFlowTelemetry(ep *Endpoint) {
	conn := &ep.conn
	h.telemetry.Block(fmt.Sprintf("%s/flow%03d/", h.name, ep.txFlow), flowTelemCols, func(dst []float64) {
		dst[0] = float64(conn.CC().Cwnd())
		dst[1] = float64(conn.SRTT().Nanoseconds())
		dst[2] = float64(conn.Stats().Retransmits)
		dst[3] = float64(conn.RcvBuf())
	})
}

// EnableSpanTrace streams per-core execution spans (work-item start/end
// with dominant Table-1 category and cycles charged) into the host's
// tracer; pair with a flow-unfiltered tracer and the Chrome-trace
// exporter for a Perfetto view of the run.
func (h *Host) EnableSpanTrace() {
	h.Sys.SetSpanObserver(func(core int, softirq bool, thread string,
		start, end sim.Time, acct *cpumodel.Breakdown, cycles units.Cycles) {
		if h.tracer == nil {
			return
		}
		startKind, endKind := trace.ThreadStart, trace.ThreadEnd
		if softirq {
			startKind, endKind = trace.SoftirqStart, trace.SoftirqEnd
		}
		dom := 0
		for i := 1; i < len(acct); i++ {
			if acct[i] > acct[dom] {
				dom = i
			}
		}
		h.tracer.Emit(trace.Event{At: start.Duration(), Host: h.name, Core: core,
			Kind: startKind, A: int64(dom), B: int64(cycles)})
		h.tracer.Emit(trace.Event{At: end.Duration(), Host: h.name, Core: core,
			Kind: endKind, A: int64(dom), B: int64(cycles)})
	})
}

// ResetMetrics starts a measurement window: clears CPU accounting, cache
// stats and host counters accumulated during warm-up.
func (h *Host) ResetMetrics() {
	h.Sys.ResetAccounting()
	if h.chkLedger != nil {
		// The ledger shadows the Breakdown accounting; reset them together
		// or cycle conservation trivially breaks at the warmup boundary.
		h.chkLedger.Reset()
	}
	if h.DCA != nil {
		h.DCA.ResetStats()
	}
	h.copied, h.written = 0, 0
	h.copyHitB, h.copyMissB = 0, 0
	h.latency.Reset()
	h.skbSizes.Reset()
}

// Copied returns bytes delivered to applications since the last reset.
func (h *Host) Copied() units.Bytes { return h.copied }

// Written returns bytes applications pushed since the last reset.
func (h *Host) Written() units.Bytes { return h.written }

// CopyMissRate returns the fraction of copied bytes that missed cache.
func (h *Host) CopyMissRate() float64 {
	total := h.copyHitB + h.copyMissB
	if total == 0 {
		return 0
	}
	return float64(h.copyMissB) / float64(total)
}

// Latency returns the NAPI-to-copy latency histogram (nanoseconds).
func (h *Host) Latency() *metrics.Histogram { return h.latency }

// SKBSizes returns the post-GRO data skb size histogram (bytes).
func (h *Host) SKBSizes() *metrics.Histogram { return h.skbSizes }

// Endpoints returns the number of registered endpoints (tests).
func (h *Host) Endpoints() int { return len(h.eps) }

// AggregateConnStats sums TCP statistics over all local endpoints.
func (h *Host) AggregateConnStats() tcp.Stats {
	var out tcp.Stats
	for _, ep := range h.eps {
		st := ep.conn.Stats()
		out.SentBytes += st.SentBytes
		out.RetransBytes += st.RetransBytes
		out.Retransmits += st.Retransmits
		out.FastRetransmit += st.FastRetransmit
		out.Timeouts += st.Timeouts
		out.AcksSent += st.AcksSent
		out.DupAcksSent += st.DupAcksSent
		out.AcksReceived += st.AcksReceived
		out.DupAcksRecv += st.DupAcksRecv
		out.DeliveredBytes += st.DeliveredBytes
		out.OOOSegments += st.OOOSegments
		out.Probes += st.Probes
	}
	return out
}

// senderMissRate estimates the sender-copy cache miss probability from
// the host's in-use send-buffer working set.
func (h *Host) senderMissRate() float64 {
	ws := units.Bytes(float64(h.sndInUse) * senderWSFraction)
	m := h.senderWS.MissRate(ws)
	if m > senderMissCap {
		m = senderMissCap
	}
	return m
}

// flowTable hands out the flow ids of one cluster and indexes both ends
// of every flow by id. Ids are dense (1, 2, ...), so the index is a
// slice, not a map: the per-packet lookups on the receive, deliver and
// Tx-completion paths are one bounds check and a load. The table is
// shared by every host of the cluster rather than kept per host: it grows
// with the flow count, where per-host flow-indexed tables would grow with
// hosts×flows (about 256×130k entries on a 256-host all-to-all). Scoping
// it to the cluster (instead of a package global) keeps concurrent
// simulations deterministic and data-race free.
type flowTable struct {
	ends []flowEnds // by flow id; id 0 is never handed out
}

// flowEnds is one flow's two endpoints: the one transmitting its data and
// the one receiving it (and sending its ACKs). They live on different
// hosts.
type flowEnds struct {
	tx, rx *Endpoint
}

func newFlowTable() *flowTable { return &flowTable{ends: make([]flowEnds, 1)} }

func (t *flowTable) alloc() skb.FlowID {
	t.ends = append(t.ends, flowEnds{})
	return skb.FlowID(len(t.ends) - 1)
}

// sender returns the local endpoint transmitting on flow, or nil.
func (h *Host) sender(flow skb.FlowID) *Endpoint {
	if uint(flow) < uint(len(h.flows.ends)) {
		if ep := h.flows.ends[flow].tx; ep != nil && ep.host == h {
			return ep
		}
	}
	return nil
}

// receiver returns the local endpoint receiving flow, or nil.
func (h *Host) receiver(flow skb.FlowID) *Endpoint {
	if uint(flow) < uint(len(h.flows.ends)) {
		if ep := h.flows.ends[flow].rx; ep != nil && ep.host == h {
			return ep
		}
	}
	return nil
}

// OpenConn opens a connection between aCore on host a and bCore on host
// b, returning the two endpoints. Both directions are set up (full
// duplex); steering entries are installed per each host's policy, and
// both flows are routed through the hosts' shared fabric. Pure ACKs
// traverse the fabric in reverse, which the ingress-exclusion routing
// rule handles without per-frame state.
func OpenConn(a *Host, aCore int, b *Host, bCore int) (*Endpoint, *Endpoint) {
	if a.fab != b.fab {
		panic("core: OpenConn needs two hosts of one cluster")
	}
	flowAB := a.flows.alloc()
	flowBA := a.flows.alloc()
	a.fab.Register(flowAB, a.port, b.port)
	a.fab.Register(flowBA, b.port, a.port)
	epA := newEndpoint(a, aCore, flowAB, flowBA)
	epB := newEndpoint(b, bCore, flowBA, flowAB)
	a.register(epA)
	b.register(epB)
	return epA, epB
}

func (h *Host) register(ep *Endpoint) {
	h.flows.ends[ep.txFlow].tx = ep
	h.flows.ends[ep.rxFlow].rx = ep
	h.eps = append(h.eps, ep)
	// Both incoming data (rxFlow) and incoming ACKs (txFlow) steer to the
	// same queue.
	ep.irqCore = h.steeringCoreFor(ep.appCore)
	if h.telemetry != nil {
		h.registerFlowTelemetry(ep)
	}
	if h.stack.RcvSchedulerK > 0 {
		h.schedGroups[ep.appCore] = append(h.schedGroups[ep.appCore], ep)
		h.startRcvScheduler()
	}
}

// rcvSchedPeriod is the receiver-driven scheduler's rotation interval.
const rcvSchedPeriod = time.Millisecond

// startRcvScheduler arms the Homa/pHost-inspired receiver scheduler (§4):
// each rotation, at most K connections per receiving core are granted a
// window (an equal share of the DCA capacity); the rest are clamped to
// zero. Bounding concurrent senders bounds DDIO occupancy and restores
// cache hits under incast — the control TCP's sender-driven design
// denies the receiver (§3.3).
func (h *Host) startRcvScheduler() {
	if h.schedStarted {
		return
	}
	h.schedStarted = true
	k := h.stack.RcvSchedulerK
	clamp := h.spec.DCACapacity() / units.Bytes(2*k)
	var tick func()
	tick = func() {
		for core, eps := range h.schedGroups {
			if len(eps) <= k {
				continue
			}
			h.schedIdx[core] = (h.schedIdx[core] + 1) % len(eps)
			start := h.schedIdx[core]
			for i, ep := range eps {
				active := false
				for j := 0; j < k; j++ {
					if (start+j)%len(eps) == i {
						active = true
						break
					}
				}
				ep, active := ep, active
				h.Sys.Core(h.processingCoreFor(ep)).RaiseSoftirq(func(ctx *exec.Ctx) {
					ctx.Charge(cpumodel.Etc, h.costs.TimerFire)
					if active {
						ep.conn.SetWindowClamp(ctx, clamp)
					} else {
						ep.conn.SetWindowClamp(ctx, 0)
					}
				})
			}
		}
		h.eng.After(rcvSchedPeriod, tick)
	}
	h.eng.After(rcvSchedPeriod, tick)
}
