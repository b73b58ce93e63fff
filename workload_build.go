package hostsim

import (
	"fmt"
	"time"

	"hostsim/internal/core"
	"hostsim/internal/skb"
	"hostsim/internal/topology"
	"hostsim/internal/units"
	"hostsim/internal/workload"
)

// builtWorkload holds the running applications and measurement snapshots
// for per-class goodput deltas.
type builtWorkload struct {
	long    []*workload.LongFlow
	clients []*workload.RPCClient

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

// conn is one connection of a run's workload: the sending host and core,
// the receiving host and core, and whether it carries ping-pong RPCs
// (client on the sender, server on the receiver) rather than a long flow.
type conn struct {
	s, sCore, r, rCore int
	rpc                bool
}

// maxConns is the most connections a valid placement opens: all-to-all
// on the largest fabric, 256 hosts with 255 peers each. The mixed
// workload's one long flow plus MixedShort RPC connections stay within it.
const maxConns = 256 * 255

// place turns the workload into the run's connections, in the order Run
// opens them, and checks it against the topology on the way. The default
// pair places every workload across its two hosts' cores, host 0 sending
// to host 1, so each scale is bounded by the core count. A fabric of
// hosts runs the long-flow patterns only, placed across its hosts and
// scaled by the host count (see placeFabric). RPC connections come last
// and share one server core.
func (wl Workload) place(fabric bool, hosts int, spec topology.MachineSpec) ([]conn, error) {
	cores := spec.NumCores()
	if fabric {
		if wl.Kind != "long" {
			return nil, fmt.Errorf("hostsim: fabric topologies support the long workload only (got %q)", wl.Kind)
		}
		if wl.RemoteNUMA {
			return nil, fmt.Errorf("hostsim: RemoteNUMA is a pair-topology option")
		}
		return placeFabric(wl.Pattern, hosts, cores)
	}
	// RemoteNUMA moves the receiving application to the first core of
	// NUMA node 2; the NIC sits on node 0.
	rxCore := 0
	if wl.RemoteNUMA {
		rxCore = spec.CoresOnNode(2)[0]
	}
	var out []conn
	add := func(sCore, rCore int, rpc bool) {
		out = append(out, conn{s: 0, sCore: sCore, r: 1, rCore: rCore, rpc: rpc})
	}
	switch wl.Kind {
	case "long":
		switch wl.Pattern {
		case PatternSingle:
			if wl.N < 0 || wl.N > 1 {
				return nil, fmt.Errorf("hostsim: single workload N %d outside [0,1]", wl.N)
			}
			add(0, rxCore, false)
			return out, nil
		case PatternOneToOne, PatternIncast, PatternOutcast, PatternAllToAll:
		default:
			return nil, fmt.Errorf("hostsim: unknown pattern %q", wl.Pattern)
		}
		if wl.N < 1 || wl.N > cores {
			return nil, fmt.Errorf("hostsim: %v workload N %d outside [1,%d]", wl.Pattern, wl.N, cores)
		}
		if wl.RemoteNUMA {
			return nil, fmt.Errorf("hostsim: RemoteNUMA supports the single pattern only")
		}
		// Cores fill node-major, so the first 6 are NIC-local.
		for i := 0; i < wl.N; i++ {
			switch wl.Pattern {
			case PatternOneToOne:
				add(i, i, false)
			case PatternIncast:
				add(i, 0, false)
			case PatternOutcast:
				add(0, i, false)
			case PatternAllToAll:
				for j := 0; j < wl.N; j++ {
					add(i, j, false)
				}
			}
		}
	case "rpc":
		// The §3.7 short-flow scenario: one client per core, all against
		// one server core.
		if wl.RPCClients <= 0 || wl.RPCSize <= 0 {
			return nil, fmt.Errorf("hostsim: rpc workload needs RPCClients and RPCSize")
		}
		if wl.RPCClients > cores {
			return nil, fmt.Errorf("hostsim: rpc workload RPCClients %d exceeds %d client cores", wl.RPCClients, cores)
		}
		for i := 0; i < wl.RPCClients; i++ {
			add(i, rxCore, true)
		}
	case "mixed":
		// Fig. 11: one long flow on core 0, its short flows sharing that
		// core on each side, or core 1 when segregated (the paper's §4
		// class-segregated scheduling proposal).
		if wl.MixedShort < 0 {
			return nil, fmt.Errorf("hostsim: negative mixed workload MixedShort %d", wl.MixedShort)
		}
		if wl.MixedShort > maxConns-1 {
			return nil, fmt.Errorf("hostsim: mixed workload MixedShort %d exceeds %d", wl.MixedShort, maxConns-1)
		}
		if wl.RPCSize <= 0 {
			return nil, fmt.Errorf("hostsim: mixed workload needs RPCSize")
		}
		if wl.RemoteNUMA {
			return nil, fmt.Errorf("hostsim: RemoteNUMA is not supported by the mixed workload")
		}
		shortCore := 0
		if wl.Segregate {
			shortCore = 1
		}
		add(0, 0, false)
		for i := 0; i < wl.MixedShort; i++ {
			add(shortCore, shortCore, true)
		}
	default:
		return nil, fmt.Errorf("hostsim: unknown workload kind %q", wl.Kind)
	}
	return out, nil
}

// placeFabric places a long-flow pattern across h hosts rather than
// across one pair's cores: incast is hosts 1..h-1 each sending one flow
// into host 0, outcast the reverse, one-to-one pairs the hosts off two at
// a time, and all-to-all runs one flow per ordered host pair. Workload.N
// is ignored; cores on a hot host fill round-robin like the paper's
// multi-flow placements.
func placeFabric(p Pattern, h, cores int) ([]conn, error) {
	var out []conn
	add := func(s, sCore, r, rCore int) {
		out = append(out, conn{s: s, sCore: sCore, r: r, rCore: rCore})
	}
	switch p {
	case PatternSingle:
		add(0, 0, 1, 0)
	case PatternOneToOne:
		if h%2 != 0 {
			return nil, fmt.Errorf("hostsim: one-to-one needs an even host count (got %d)", h)
		}
		for i := 0; i < h; i += 2 {
			add(i, 0, i+1, 0)
		}
	case PatternIncast:
		for i := 1; i < h; i++ {
			add(i, 0, 0, (i-1)%cores)
		}
	case PatternOutcast:
		for i := 1; i < h; i++ {
			add(0, (i-1)%cores, i, 0)
		}
	case PatternAllToAll:
		for i := 0; i < h; i++ {
			for j := 0; j < h; j++ {
				if i == j {
					continue
				}
				// Each host numbers its flows toward the other hosts 0..h-2;
				// that index picks the core, so every host spreads its h-1
				// outgoing (and incoming) flows across its cores evenly.
				sCore := j
				if j > i {
					sCore--
				}
				rCore := i
				if i > j {
					rCore--
				}
				add(i, sCore%cores, j, rCore%cores)
			}
		}
	default:
		return nil, fmt.Errorf("hostsim: unknown pattern %q", p)
	}
	return out, nil
}

// startWorkload opens the placed connections in order and starts an
// application on each: a long flow, or an RPC client whose server
// endpoint joins the one RPC server started after the loop.
func startWorkload(hosts []*core.Host, conns []conn, size units.Bytes) *builtWorkload {
	b := &builtWorkload{}
	var served []*core.Endpoint
	for _, c := range conns {
		sEP, rEP := core.OpenConn(hosts[c.s], c.sCore, hosts[c.r], c.rCore)
		if c.rpc {
			b.clients = append(b.clients, workload.StartRPCClient(sEP, size))
			served = append(served, rEP)
		} else {
			b.long = append(b.long, workload.StartLongFlow(sEP, rEP))
		}
	}
	if len(served) > 0 {
		workload.StartRPCServer(served[0].Host(), served[0].AppCore(), size, served)
	}
	return b
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
