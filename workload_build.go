package hostsim

import (
	"fmt"
	"time"

	"hostsim/internal/core"
	"hostsim/internal/skb"
	"hostsim/internal/units"
	"hostsim/internal/workload"
)

// builtWorkload holds the running applications and measurement snapshots
// for per-class goodput deltas.
type builtWorkload struct {
	long    []*workload.LongFlow
	clients []*workload.RPCClient

	// senderIdx/receiverIdx pick the representative hosts for the
	// Result.Sender/Result.Receiver views. The default pair is always (0, 1);
	// fabric incast swaps to (1, 0) so Sender is one of the sending hosts.
	senderIdx   int
	receiverIdx int

	longBase     units.Bytes
	longBaseEach []units.Bytes
	rpcBase      units.Bytes
	rpcDone      int64
}

// flowClasses derives the profiler's default flow → class labeling from
// the workload: both directions of every bulk-transfer connection are
// "long", every RPC connection "rpc".
func flowClasses(b *builtWorkload) map[int32]string {
	m := make(map[int32]string)
	for _, lf := range b.long {
		m[int32(lf.Sender.TxFlow())] = "long"
		m[int32(lf.Sender.RxFlow())] = "long"
	}
	for _, c := range b.clients {
		m[int32(c.EP.TxFlow())] = "rpc"
		m[int32(c.EP.RxFlow())] = "rpc"
	}
	return m
}

// msgSizes derives the message tracer's per-flow message sizes, indexed
// by flow id, from the workload: long flows message on their 128KB iPerf
// write unit (tx direction only — the reverse direction carries no data),
// RPC connections on the request/response size in both directions
// (requests out, responses back). A positive override replaces every
// natural size. Untraced flows keep size 0.
func msgSizes(b *builtWorkload, override int64) []units.Bytes {
	var sizes []units.Bytes
	set := func(f skb.FlowID, natural units.Bytes) {
		if override > 0 {
			natural = units.Bytes(override)
		}
		if n := int(f) + 1; n > len(sizes) {
			sizes = append(sizes, make([]units.Bytes, n-len(sizes))...)
		}
		sizes[f] = natural
	}
	for _, lf := range b.long {
		set(lf.Sender.TxFlow(), workload.WriteChunk)
	}
	for _, c := range b.clients {
		set(c.EP.TxFlow(), c.Size)
		set(c.EP.RxFlow(), c.Size)
	}
	return sizes
}

// buildWorkload places the workload on the default pair's cores. Run
// validated the workload first, so the pattern and every scale are in
// range.
func buildWorkload(sender, receiver *core.Host, wl Workload, p workload.Pattern) *builtWorkload {
	b := &builtWorkload{receiverIdx: 1}
	switch wl.Kind {
	case "long":
		if wl.RemoteNUMA {
			// Application on the first core of NUMA node 2 (NIC on node 0).
			rc := receiver.Spec().CoresOnNode(2)[0]
			sEP, rEP := core.OpenConn(sender, 0, receiver, rc)
			b.long = []*workload.LongFlow{workload.StartLongFlow(sEP, rEP)}
			return b
		}
		n := wl.N
		if p == workload.Single {
			n = 1
		}
		b.long = workload.LongFlows(sender, receiver, p, n)
	case "rpc":
		serverCore := 0
		if wl.RemoteNUMA {
			serverCore = receiver.Spec().CoresOnNode(2)[0]
		}
		b.clients, _ = workload.RPCIncast(sender, receiver, wl.RPCClients, serverCore, units.Bytes(wl.RPCSize))
	case "mixed":
		shortCore := 0
		if wl.Segregate {
			shortCore = 1
		}
		lf, clients, _ := workload.MixedSplit(sender, receiver, 0, shortCore, wl.MixedShort, units.Bytes(wl.RPCSize))
		b.long = []*workload.LongFlow{lf}
		b.clients = clients
	}
	return b
}

// buildFabricWorkload places the long-flow patterns across the cluster's
// hosts rather than across one pair's cores: incast is hosts 1..H-1 each
// sending one flow into host 0, outcast the reverse, one-to-one pairs the
// hosts off two at a time, and all-to-all runs one flow per ordered host
// pair. The pattern scale comes from the host count, so Workload.N is
// ignored; cores on a hot host fill round-robin like the paper's
// multi-flow placements. RPC and mixed workloads (and RemoteNUMA) remain
// pair-topology options, which Run's validation enforces.
func buildFabricWorkload(hosts []*core.Host, p workload.Pattern) *builtWorkload {
	h := len(hosts)
	cores := hosts[0].Spec().NumCores()
	b := &builtWorkload{receiverIdx: 1}
	open := func(s, sCore, r, rCore int) {
		sEP, rEP := core.OpenConn(hosts[s], sCore, hosts[r], rCore)
		b.long = append(b.long, workload.StartLongFlow(sEP, rEP))
	}
	switch p {
	case workload.Single:
		open(0, 0, 1, 0)
	case workload.OneToOne:
		for i := 0; i < h; i += 2 {
			open(i, 0, i+1, 0)
		}
	case workload.Incast:
		b.senderIdx, b.receiverIdx = 1, 0
		for i := 1; i < h; i++ {
			open(i, 0, 0, (i-1)%cores)
		}
	case workload.Outcast:
		for i := 1; i < h; i++ {
			open(0, (i-1)%cores, i, 0)
		}
	case workload.AllToAll:
		for i := 0; i < h; i++ {
			for j := 0; j < h; j++ {
				if i == j {
					continue
				}
				// Each host numbers its flows toward the other hosts 0..H-2;
				// that index picks the core, so every host spreads its H-1
				// outgoing (and incoming) flows across its cores evenly.
				sCore := j
				if j > i {
					sCore--
				}
				rCore := i
				if i > j {
					rCore--
				}
				open(i, sCore%cores, j, rCore%cores)
			}
		}
	}
	return b
}

func parsePattern(p Pattern) (workload.Pattern, error) {
	switch p {
	case PatternSingle:
		return workload.Single, nil
	case PatternOneToOne:
		return workload.OneToOne, nil
	case PatternIncast:
		return workload.Incast, nil
	case PatternOutcast:
		return workload.Outcast, nil
	case PatternAllToAll:
		return workload.AllToAll, nil
	default:
		return 0, fmt.Errorf("hostsim: unknown pattern %q", p)
	}
}

// snapshot records baselines at the start of the measurement window.
func (b *builtWorkload) snapshot() {
	b.longBase = 0
	b.longBaseEach = b.longBaseEach[:0]
	for _, lf := range b.long {
		d := lf.Receiver.Conn().Stats().DeliveredBytes
		b.longBase += d
		b.longBaseEach = append(b.longBaseEach, d)
	}
	b.rpcBase, b.rpcDone = 0, 0
	for _, c := range b.clients {
		b.rpcBase += c.EP.Conn().Stats().DeliveredBytes
		b.rpcDone += c.Completed
	}
}

// deltas reports per-class progress over the window.
func (b *builtWorkload) deltas(window time.Duration) (rpcs int64, longGbps, rpcGbps float64) {
	var longBytes units.Bytes
	for _, lf := range b.long {
		longBytes += lf.Receiver.Conn().Stats().DeliveredBytes
	}
	longBytes -= b.longBase
	var rpcBytes units.Bytes
	for _, c := range b.clients {
		rpcBytes += c.EP.Conn().Stats().DeliveredBytes
		rpcs += c.Completed
	}
	rpcBytes -= b.rpcBase
	rpcs -= b.rpcDone
	// RPC goodput is reported one-way (response bytes delivered to the
	// clients), following netperf's transaction-byte convention.
	return rpcs, units.RateOf(longBytes, window).Gigabits(),
		units.RateOf(rpcBytes, window).Gigabits()
}

// perFlow returns each long flow's goodput over the window (Gbps).
func (b *builtWorkload) perFlow(window time.Duration) []float64 {
	if len(b.long) == 0 {
		return nil
	}
	out := make([]float64, len(b.long))
	for i, lf := range b.long {
		d := lf.Receiver.Conn().Stats().DeliveredBytes - b.longBaseEach[i]
		out[i] = units.RateOf(d, window).Gigabits()
	}
	return out
}

// jain computes Jain's fairness index over per-flow goodputs: 1 is
// perfectly fair, 1/n is maximally unfair.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func hostRetransmits(h *core.Host) int64 {
	st := h.AggregateConnStats()
	return st.Retransmits
}

func hostAcksSent(h *core.Host) int64 {
	st := h.AggregateConnStats()
	return st.AcksSent
}
