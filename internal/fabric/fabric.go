// Package fabric models a single-stage switch (a top-of-rack) connecting
// N hosts. It is hostsim's only network: the paper's two-server testbed
// is a 2-port fabric, larger topologies add ports. Each host attaches to
// one port: the port's ingress side accepts frames from the host's NIC
// at zero cost (cut-through — the fabric's internal crossbar is never the
// bottleneck), routes them by flow id, and hands them to the destination
// port's egress serializer, a plain wire.Link carrying the propagation
// delay, the optional ECN marking threshold and the optional Bernoulli
// loss.
//
// Congestion lives entirely in the egress queues. An optional shared
// buffer pool bounds their sum: a frame is admitted to egress queue q
// only while q's backlog stays below the dynamic threshold
// alpha * (B - total occupancy) (Choudhury–Hahne), the classic
// shared-memory switch policy — uncongested ports keep their queues,
// a single hot incast port is throttled before it starves the rest.
//
// Loss is per egress: Config.LossRate sets every egress serializer, and
// a caller may override one port with Port(i).Out().SetLossRate — the
// two-host pair keeps its ACK path (the egress toward the sender)
// lossless that way.
//
// Determinism contract: ingress routing and admission draw no random
// numbers and consume no simulated time; the only randomness is the
// egress links' loss draw (skipped entirely at loss rate 0) and the only
// event scheduling is the egress links' delivery. A 2-host fabric with
// unbounded buffer therefore schedules exactly the events of a
// point-to-point full-duplex link: one serializer per direction.
package fabric

import (
	"fmt"
	"time"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/telemetry"
	"hostsim/internal/units"
	"hostsim/internal/wire"
)

// Config describes the switch.
type Config struct {
	// Ports is the number of attached hosts (>= 2).
	Ports int
	// LinkRate is each port's line rate.
	LinkRate units.BitRate
	// Delay is the host->switch->host propagation delay, charged once on
	// the egress link (the ingress hop is cut-through).
	Delay time.Duration
	// SharedBuffer bounds the sum of all egress backlogs (wire bytes);
	// 0 = unbounded (no admission drops).
	SharedBuffer units.Bytes
	// Alpha is the dynamic-threshold scale factor; 0 = 1.0. Larger alpha
	// lets one port monopolize more of the shared pool.
	Alpha float64
	// ECNThreshold CE-marks frames when their egress backlog exceeds this
	// many bytes; 0 = off.
	ECNThreshold units.Bytes
	// LossRate is each egress serializer's Bernoulli drop probability.
	LossRate float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ports < 2 {
		return fmt.Errorf("fabric: %d ports (want >= 2)", c.Ports)
	}
	if c.LinkRate <= 0 {
		return fmt.Errorf("fabric: non-positive link rate")
	}
	if c.Delay < 0 {
		return fmt.Errorf("fabric: negative delay")
	}
	if c.SharedBuffer < 0 {
		return fmt.Errorf("fabric: negative shared buffer")
	}
	if c.Alpha < 0 {
		return fmt.Errorf("fabric: negative alpha")
	}
	if c.ECNThreshold < 0 {
		return fmt.Errorf("fabric: negative ECN threshold")
	}
	if c.LossRate < 0 || c.LossRate > 1 {
		return fmt.Errorf("fabric: loss rate outside [0,1]")
	}
	return nil
}

// IngressStats counts one port's ingress-side activity (frames arriving
// FROM the attached host).
type IngressStats struct {
	In               int64 // frames offered by the host's NIC
	InPayload        units.Bytes
	Forwarded        int64 // admitted to an egress queue
	ForwardedPayload units.Bytes
	BufDropped       int64 // shared-buffer (dynamic-threshold) drops
	BufDroppedBytes  units.Bytes
}

// DeliverFunc returns the receiver of the frames leaving the fabric toward
// port. New calls it once per port, so each egress link hands its frames
// straight to the attached host.
type DeliverFunc func(port int) func(*skb.Frame)

// Observer receives the fabric's ingress-side frame events — the INT-style
// stamp point. FrameIngress fires once per frame offered to an ingress
// port, after routing to egress port dst and the shared-buffer admission
// verdict (admitted is false for a dynamic-threshold drop). It carries no
// counts: each port's Stats and its Out link's Stats already count every
// frame. depth is the destination egress queue's backlog at the verdict —
// including the frame itself when it was admitted — and occupancy the
// shared buffer's fill at the same instant.
// For admitted frames the hook fires after the egress serializer accepted
// the frame, so the egress link's tap (mark/loss verdict) has already run.
// Observers must be pure reads: they may not mutate or retain the frame,
// so an observed run follows the exact trajectory of an unobserved one.
type Observer interface {
	FrameIngress(dst int, f *skb.Frame, admitted bool, depth, occupancy units.Bytes)
}

// Fabric is the switch: Ports ports, a static flow routing table, and
// the shared-buffer admission state.
type Fabric struct {
	// routes[f] is flow f's two attached ports. Flow ids are dense, so the
	// table is a slice; the zero entry {0, 0} means unrouted, since
	// Register never pins a flow to a single port.
	routes [][2]int
	ports  []Port   // by port id, one allocation for the whole switch
	obs    Observer // nil = observation off
	cfg    Config
	alpha  float64
}

// Port is one host attachment. It implements wire.Egress: the host NIC's
// Send lands on the ingress side; Out is the egress serializer toward the
// attached host.
type Port struct {
	fab   *Fabric
	id    int
	out   *wire.Link
	stats IngressStats
}

// New builds the switch. deliver supplies each port's receiver for the
// frames leaving its egress link.
func New(eng *sim.Engine, cfg Config, deliver DeliverFunc) *Fabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if eng == nil || deliver == nil {
		panic("fabric: nil engine or delivery callback")
	}
	fb := &Fabric{
		cfg:   cfg,
		alpha: cfg.Alpha,
		ports: make([]Port, cfg.Ports),
		// Room for one connection per port (two flow ids each, after
		// the never-issued id 0) before the first regrowth.
		routes: make([][2]int, 0, 2*cfg.Ports+1),
	}
	if fb.alpha == 0 {
		fb.alpha = 1
	}
	for i := range fb.ports {
		p := &fb.ports[i]
		p.fab, p.id = fb, i
		p.out = wire.NewLink(eng, cfg.LinkRate, cfg.Delay, deliver(i))
		if cfg.ECNThreshold > 0 {
			p.out.SetECNThreshold(cfg.ECNThreshold)
		}
		p.out.SetLossRate(cfg.LossRate)
	}
	return fb
}

// Config returns the switch configuration.
func (fb *Fabric) Config() Config { return fb.cfg }

// SetObserver installs the ingress-side frame observer (nil detaches).
// With no observer the ingress path pays only a pointer test per frame.
func (fb *Fabric) SetObserver(obs Observer) { fb.obs = obs }

// Ports returns the port count.
func (fb *Fabric) Ports() int { return len(fb.ports) }

// Port returns port i.
func (fb *Fabric) Port(i int) *Port { return &fb.ports[i] }

// Occupancy is the shared buffer's current fill: the sum of all egress
// backlogs, in wire bytes. Integer arithmetic over link serializer state,
// so it is exact and deterministic.
func (fb *Fabric) Occupancy() units.Bytes {
	var total units.Bytes
	for i := range fb.ports {
		total += fb.ports[i].out.Backlog()
	}
	return total
}

// Register pins a flow to its two attached ports. Routing is symmetric:
// data frames enter at srcPort, the flow's reverse-direction pure ACKs at
// dst, and the egress is always "the port that isn't the ingress" — so
// one entry covers both travel directions.
func (fb *Fabric) Register(flow skb.FlowID, srcPort, dst int) {
	if srcPort < 0 || srcPort >= len(fb.ports) || dst < 0 || dst >= len(fb.ports) {
		panic(fmt.Sprintf("fabric: route %d->%d outside [0,%d)", srcPort, dst, len(fb.ports)))
	}
	if srcPort == dst {
		panic("fabric: flow routed to its own ingress port")
	}
	if flow < 0 {
		panic(fmt.Sprintf("fabric: negative flow id %d", flow))
	}
	for int(flow) >= len(fb.routes) {
		fb.routes = append(fb.routes, [2]int{})
	}
	if fb.routes[flow] != ([2]int{}) {
		panic(fmt.Sprintf("fabric: duplicate route for flow %d", flow))
	}
	fb.routes[flow] = [2]int{srcPort, dst}
}

// Rate implements wire.Egress: the port's line rate paces the host NIC's
// Tx pump.
func (p *Port) Rate() units.BitRate { return p.fab.cfg.LinkRate }

// Send implements wire.Egress: ingress from the attached host. Routing
// and shared-buffer admission are instantaneous and draw no randomness;
// an admitted frame continues into the destination port's egress
// serializer, a rejected one is counted. Send reports a frame the buffer
// rejected or the egress link lost, and the caller recycles it.
func (p *Port) Send(f *skb.Frame) (dropped bool) {
	fb := p.fab
	p.stats.In++
	p.stats.InPayload += f.Len
	var r [2]int
	if uint(f.Flow) < uint(len(fb.routes)) {
		r = fb.routes[f.Flow]
	}
	if r[0] == r[1] {
		panic(fmt.Sprintf("fabric: no route for flow %d (ingress port %d)", f.Flow, p.id))
	}
	dst := r[0]
	if dst == p.id {
		dst = r[1]
	}
	out := fb.ports[dst].out
	// The shared buffer's fill is summed over every port once per frame,
	// and only when admission or the observer reads it.
	var occ units.Bytes
	if fb.cfg.SharedBuffer > 0 || fb.obs != nil {
		occ = fb.Occupancy()
	}
	if b := fb.cfg.SharedBuffer; b > 0 {
		free := max(b-occ, 0)
		if out.Backlog()+f.WireSize() > units.Bytes(fb.alpha*float64(free)) {
			p.stats.BufDropped++
			p.stats.BufDroppedBytes += f.Len
			if fb.obs != nil {
				fb.obs.FrameIngress(dst, f, false, out.Backlog(), occ)
			}
			return true
		}
	}
	p.stats.Forwarded++
	p.stats.ForwardedPayload += f.Len
	if fb.obs == nil {
		return out.Send(f)
	}
	// Only the destination's backlog moves: swap it in the sum.
	before := out.Backlog()
	dropped = out.Send(f)
	after := out.Backlog()
	fb.obs.FrameIngress(dst, f, true, after, occ-before+after)
	return dropped
}

// Out returns the port's egress serializer toward the attached host
// (for taps, checker audits and per-port stats).
func (p *Port) Out() *wire.Link { return p.out }

// Stats returns a copy of the ingress-side counters.
func (p *Port) Stats() IngressStats { return p.stats }

// FabricTotals aggregates the switch's activity across all ports: ingress
// frames, shared-buffer admission drops, egress loss drops, CE marks and
// delivered frames.
type FabricTotals struct {
	In              int64       // frames offered to ingress ports
	BufDropped      int64       // shared-buffer (dynamic-threshold) admission drops
	LossDropped     int64       // Bernoulli loss at the egress serializers
	Marked          int64       // CE marks
	Delivered       int64       // frames handed to the attached hosts
	BufDroppedBytes units.Bytes // payload bytes lost to admission drops
}

// Totals sums every port's ingress and egress counters.
func (fb *Fabric) Totals() FabricTotals {
	var t FabricTotals
	for i := range fb.ports {
		p := &fb.ports[i]
		t.In += p.stats.In
		t.BufDropped += p.stats.BufDropped
		t.BufDroppedBytes += p.stats.BufDroppedBytes
		st := p.out.Stats()
		t.LossDropped += st.Dropped
		t.Marked += st.Marked
		t.Delivered += st.Delivered
	}
	return t
}

// portCols are the column suffixes of one port's telemetry block.
var portCols = []string{"backlog_bytes", "in_frames", "buf_dropped", "wire_dropped", "marked", "delivered"}

// RegisterTelemetry registers the switch's shared-buffer occupancy and
// per-port gauges (egress backlog plus the cumulative ingress/egress
// counters) into reg under prefix, e.g. "fabric/port003/backlog_bytes",
// one block per port. Every probe is a pure read of switch state,
// following the telemetry gauge contract. No-op on a nil registry, like
// all telemetry hooks.
func (fb *Fabric) RegisterTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.Gauge(prefix+"occupancy_bytes", func() float64 { return float64(fb.Occupancy()) })
	for i := range fb.ports {
		p := &fb.ports[i]
		reg.Block(fmt.Sprintf("%sport%03d/", prefix, p.id), portCols, func(dst []float64) {
			dst[0] = float64(p.out.Backlog())
			dst[1] = float64(p.stats.In)
			dst[2] = float64(p.stats.BufDropped)
			st := p.out.Stats()
			dst[3] = float64(st.Dropped)
			dst[4] = float64(st.Marked)
			dst[5] = float64(st.Delivered)
		})
	}
}
