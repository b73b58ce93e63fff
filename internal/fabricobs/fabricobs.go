// Package fabricobs is the switch fabric's observatory: an opt-in
// in-band-telemetry layer modeled on INT/sFlow. It stamps every frame at
// the fabric's two observable edges — ingress (routing + shared-buffer
// admission verdict, with the egress queue depth and pool occupancy the
// frame saw) and egress (the serializer's mark/loss verdict, then the
// delivery that closes the hop) — and condenses the stamps into three
// artifacts:
//
//   - a per-port time-series (egress backlog, utilization, ECN-mark rate,
//     cumulative drops) sampled on a fixed simulated-time interval with
//     the internal/telemetry registry/sampler discipline;
//   - an exact drop/mark attribution ledger: every frame the fabric ever
//     saw is classified as delivered, shared-buffer admission drop, wire
//     (Bernoulli) loss, or still in flight at the horizon. The ledger is
//     the fabric's own counters read at the horizon — each port's
//     IngressStats and its egress link's wire.Stats, the counters the
//     conservation checker audits — so each lost frame is counted once;
//   - microburst events: an egress queue crossing the burst threshold
//     opens a burst that tracks its peak backlog/occupancy, the frames
//     and admission drops it absorbed and the contributing flows, and
//     closes (with hysteresis) when the queue drains to half the
//     threshold.
//
// Every hook is a pure read behind a pointer test, so an observed run is
// byte-identical to an unobserved one — the same transparency contract as
// the tracer, profiler, checker and inspector layers.
package fabricobs

import (
	"fmt"
	"sort"
	"time"

	"hostsim/internal/fabric"
	"hostsim/internal/fifo"
	"hostsim/internal/metrics"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/telemetry"
	"hostsim/internal/units"
	"hostsim/internal/wire"
)

// Options configures the observatory. The zero value samples every 100µs
// and opens bursts at 128KB of egress backlog. The observatory retains
// at most retainedBursts burst events, each with its top burstFlows
// contributing flows, and the time-series ring holds
// telemetry.DefaultMaxSamples samples, evicting the oldest beyond it.
type Options struct {
	// SampleInterval is the simulated time between time-series samples
	// (0 = telemetry.DefaultInterval).
	SampleInterval time.Duration
	// BurstThreshold opens a microburst when a frame enqueues into an
	// egress backlog at or above this many wire bytes; the burst closes
	// when the queue drains to half the threshold (0 = 128KB).
	BurstThreshold units.Bytes
}

const (
	// burstFlows is the number of top contributing flows kept per burst
	// event.
	burstFlows = 4
	// retainedBursts caps retained burst events; further bursts are
	// detected and counted per port but not retained.
	retainedBursts = 1024
)

// FlowFrames is one flow's contribution to a microburst.
type FlowFrames struct {
	Flow   int32 // flow id
	Frames int64 // frames the flow enqueued during the burst
}

// BurstEvent is one detected microburst on an egress port.
type BurstEvent struct {
	Port           int           // egress port
	Host           string        // attached host's name
	Start          time.Duration // simulated time the threshold was crossed
	Duration       time.Duration // until drain below threshold/2 (or the horizon)
	PeakBacklog    int64         // peak egress backlog during the burst, wire bytes
	PeakOccupancy  int64         // peak shared-buffer occupancy during the burst
	Frames         int64         // frames enqueued to the port during the burst
	AdmissionDrops int64         // frames bound for the port dropped at admission during the burst
	Truncated      bool          // still open at the simulation horizon
	Flows          []FlowFrames  // top contributing flows, most frames first
}

// PortReport is one port's end-of-run ledger line, read from the fabric's
// own counters at the horizon. The ingress side is the port's
// IngressStats: frames arriving FROM the attached host, under the
// checker's In == Forwarded + BufDropped rule. The egress side is the
// wire.Stats and in-flight count of the serializer TOWARD the host. Two
// exact identities hold per port:
//
//	InFrames == Forwarded + AdmissionDrops
//	Enqueued == Delivered + WireLossDrops + InFlight
type PortReport struct {
	Port int
	Host string

	// Ingress ledger (frames from the attached host).
	InFrames           int64
	Forwarded          int64
	AdmissionDrops     int64
	AdmissionDropBytes int64 // payload bytes

	// Egress ledger (frames toward the attached host).
	Enqueued      int64
	Delivered     int64
	WireLossDrops int64
	InFlight      int64 // serializing or propagating at the horizon
	ECNMarks      int64
	TxBytes       int64   // wire bytes serialized (headers included)
	Utilization   float64 // TxBytes·8 / (line rate · observed time)

	PeakBacklog   int64 // peak egress backlog seen at any enqueue, wire bytes
	PeakOccupancy int64 // peak shared-buffer occupancy seen at any enqueue

	// Hop latency: egress serializer accept -> delivery to the host
	// (serialization wait + propagation), over delivered frames.
	HopLatencyMean time.Duration
	HopLatencyP50  time.Duration
	HopLatencyP99  time.Duration
	HopLatencyMax  time.Duration

	Bursts int64 // microbursts detected on the port (including unretained)
}

// burst is an open (unclosed) microburst. Its per-flow frame counts are
// dense by flow id and kept across bursts: closing one zeroes only the
// counts it touched.
type burst struct {
	start    sim.Time
	peakBack units.Bytes
	peakOcc  units.Bytes
	frames   int64
	drops    int64
	flows    []int64      // frames per flow id; zero for flows not in ids
	ids      []skb.FlowID // flows with a nonzero count, in first-frame order
}

// count adds one frame of flow id to the burst.
func (b *burst) count(id skb.FlowID) {
	if int(id) >= len(b.flows) {
		b.flows = append(b.flows, make([]int64, int(id)+1-len(b.flows))...)
	}
	if b.flows[id] == 0 {
		b.ids = append(b.ids, id)
	}
	b.flows[id]++
}

// portState is one port's accumulation state.
type portState struct {
	id   int
	out  *wire.Link
	port *fabric.Port

	peakBacklog, peakOccupancy units.Bytes
	hop                        *metrics.Histogram
	// sendAt holds the send times of frames in flight on the egress link.
	// A link delivers in send order and a dropped frame never enters it,
	// so the front is the stamp of the next frame delivered.
	sendAt fifo.Ring[sim.Time]

	cur        *burst // &open while a burst is open, else nil
	open       burst
	burstCount int64

	// Private-registry rate-gauge state (read only by the observer's own
	// sampler, in registration order, so the deltas are deterministic).
	utilT  sim.Time
	utilTx units.Bytes
	markT  sim.Time
	markN  int64
}

// onWire returns the bytes this port's serializer has actually put on
// the wire by now. Link.Stats().TxBytes accrues at enqueue time, so a
// deep backlog would otherwise count as transmitted and push a
// saturated port's utilization past 1.
func (ps *portState) onWire() units.Bytes {
	return ps.out.Stats().TxBytes - ps.out.Backlog()
}

// Observer is the attached observatory. Build with New; read the results
// with Timeline, PortReports and Bursts after Finalize.
type Observer struct {
	eng   *sim.Engine
	fab   *fabric.Fabric
	names []string
	opts  Options

	reg *telemetry.Registry
	smp *telemetry.Sampler

	ports     []*portState
	bursts    []BurstEvent
	maxBursts int // retainedBursts; tests lower it

	attachedAt sim.Time
	finalized  bool
	horizon    sim.Time
	reports    []PortReport
}

// New builds the observatory over fab and arms every hook: the fabric's
// ingress observer, a chained tap and a delivery tap on each egress
// serializer, and a private telemetry registry sampled from simulated time
// zero (like socket snapshots, the time-series covers warmup — slow-start
// bursts are the interesting ones). names labels ports in reports and
// traces; it must have one entry per port. The fabric must not have
// carried a frame yet: the ledger is its counters since construction.
func New(eng *sim.Engine, fab *fabric.Fabric, names []string, opts Options) *Observer {
	if eng == nil || fab == nil {
		panic("fabricobs: nil engine or fabric")
	}
	if len(names) != fab.Ports() {
		panic(fmt.Sprintf("fabricobs: %d names for %d ports", len(names), fab.Ports()))
	}
	if opts.SampleInterval < 0 || opts.BurstThreshold < 0 {
		panic("fabricobs: negative option")
	}
	if opts.BurstThreshold == 0 {
		opts.BurstThreshold = 128 * units.KB
	}
	for i := 0; i < fab.Ports(); i++ {
		p := fab.Port(i)
		if p.Stats() != (fabric.IngressStats{}) || p.Out().Stats() != (wire.Stats{}) {
			panic(fmt.Sprintf("fabricobs: port %d has already carried traffic", i))
		}
	}
	o := &Observer{
		eng:        eng,
		fab:        fab,
		names:      append([]string(nil), names...),
		opts:       opts,
		maxBursts:  retainedBursts,
		attachedAt: eng.Now(),
	}
	o.ports = make([]*portState, fab.Ports())
	for i := range o.ports {
		p := fab.Port(i)
		o.ports[i] = &portState{
			id:    i,
			out:   p.Out(),
			port:  p,
			hop:   metrics.NewLatency(),
			utilT: o.attachedAt,
			markT: o.attachedAt,
		}
	}
	fab.SetObserver(o)
	for _, ps := range o.ports {
		ps := ps
		ps.out.AddTap(func(_ *skb.Frame, dropped bool) { o.wireTap(ps, dropped) })
		ps.out.SetDeliverTap(func(*skb.Frame) { o.deliverTap(ps) })
	}
	o.registerTimeline()
	o.smp = telemetry.NewSampler(eng, o.reg, o.opts.SampleInterval)
	o.smp.Start(0)
	return o
}

// FrameIngress implements fabric.Observer: the ingress-edge stamp.
func (o *Observer) FrameIngress(dst int, f *skb.Frame, admitted bool, depth, occupancy units.Bytes) {
	ds := o.ports[dst]
	if occupancy > ds.peakOccupancy {
		ds.peakOccupancy = occupancy
	}
	if !admitted {
		// The ledger counts an admission drop at its ingress port (the
		// fabric's IngressStats); a burst counts it at the egress queue
		// whose pressure rejected the frame.
		if b := ds.cur; b != nil {
			b.drops++
		}
		return
	}
	if depth > ds.peakBacklog {
		ds.peakBacklog = depth
	}
	o.burstEnqueue(ds, f, depth, occupancy)
}

// wireTap is the egress serializer's switch-edge stamp: it stamps the
// send time of every frame that survives the loss verdict. It fires
// (during the fabric's forward) before FrameIngress.
func (o *Observer) wireTap(ds *portState, dropped bool) {
	if !dropped {
		ds.sendAt.Push(o.eng.Now())
	}
}

// deliverTap is the egress-edge stamp closing the hop.
func (o *Observer) deliverTap(ds *portState) {
	ds.hop.Record(float64(o.eng.Now() - ds.sendAt.Pop()))
	if b := ds.cur; b != nil && ds.out.Backlog() <= o.opts.BurstThreshold/2 {
		o.closeBurst(ds, o.eng.Now(), false)
	}
}

func (o *Observer) burstEnqueue(ds *portState, f *skb.Frame, depth, occ units.Bytes) {
	if b := ds.cur; b != nil {
		b.frames++
		b.count(f.Flow)
		if depth > b.peakBack {
			b.peakBack = depth
		}
		if occ > b.peakOcc {
			b.peakOcc = occ
		}
		return
	}
	if depth >= o.opts.BurstThreshold {
		b := &ds.open
		b.start = o.eng.Now()
		b.peakBack = depth
		b.peakOcc = occ
		b.frames = 1
		b.drops = 0
		b.count(f.Flow)
		ds.cur = b
	}
}

func (o *Observer) closeBurst(ds *portState, end sim.Time, truncated bool) {
	b := ds.cur
	ds.cur = nil
	ds.burstCount++
	if len(o.bursts) < o.maxBursts {
		o.bursts = append(o.bursts, BurstEvent{
			Port:           ds.id,
			Host:           o.names[ds.id],
			Start:          b.start.Duration(),
			Duration:       (end - b.start).Duration(),
			PeakBacklog:    int64(b.peakBack),
			PeakOccupancy:  int64(b.peakOcc),
			Frames:         b.frames,
			AdmissionDrops: b.drops,
			Truncated:      truncated,
			Flows:          topFlows(b.flows, b.ids, burstFlows),
		})
	}
	for _, id := range b.ids {
		b.flows[id] = 0
	}
	b.ids = b.ids[:0]
}

// topFlows returns the k largest contributors among ids, whose frame
// counts flows holds by flow id: frames descending, flow id ascending on
// ties.
func topFlows(flows []int64, ids []skb.FlowID, k int) []FlowFrames {
	out := make([]FlowFrames, 0, len(ids))
	for _, id := range ids {
		out = append(out, FlowFrames{Flow: int32(id), Frames: flows[id]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Frames != out[j].Frames {
			return out[i].Frames > out[j].Frames
		}
		return out[i].Flow < out[j].Flow
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// timelineCols are the column suffixes of one port's timeline block.
var timelineCols = []string{"backlog_bytes", "utilization", "ecn_marks_per_s", "admission_drops", "wire_drops"}

// registerTimeline builds the private registry: the shared-buffer
// occupancy plus, per port, one block of the egress backlog,
// interval-rate utilization and ECN-mark rate, and the cumulative drop
// counters. The rate columns advance the port's last-sample state, which
// is why they rely on a block's read running exactly once per sample.
func (o *Observer) registerTimeline() {
	o.reg = telemetry.NewRegistry()
	o.reg.Gauge("occupancy_bytes", func() float64 { return float64(o.fab.Occupancy()) })
	rate := o.fab.Config().LinkRate
	for _, ps := range o.ports {
		o.reg.Block(fmt.Sprintf("port%03d/", ps.id), timelineCols, func(dst []float64) {
			now := o.eng.Now()
			dst[0] = float64(ps.out.Backlog())

			tx := ps.onWire()
			var u float64
			if dt := now - ps.utilT; dt > 0 {
				u = float64((tx - ps.utilTx).Bits()) * float64(time.Second) /
					(float64(dt) * float64(rate))
			}
			ps.utilT, ps.utilTx = now, tx
			dst[1] = u

			n := ps.out.Stats().Marked
			var r float64
			if dt := now - ps.markT; dt > 0 {
				r = float64(n-ps.markN) * float64(time.Second) / float64(dt)
			}
			ps.markT, ps.markN = now, n
			dst[2] = r

			dst[3] = float64(ps.port.Stats().BufDropped)
			dst[4] = float64(ps.out.Stats().Dropped)
		})
	}
}

// Finalize closes the books at the simulation horizon: open bursts are
// emitted truncated, the burst list is ordered by start time, and the
// per-port reports are built from the fabric's counters. Idempotent; the
// hooks stay attached but the reports freeze at the first call.
func (o *Observer) Finalize() {
	if o.finalized {
		return
	}
	o.finalized = true
	o.horizon = o.eng.Now()
	for _, ps := range o.ports {
		if ps.cur != nil {
			o.closeBurst(ps, o.horizon, true)
		}
	}
	sort.SliceStable(o.bursts, func(i, j int) bool {
		if o.bursts[i].Start != o.bursts[j].Start {
			return o.bursts[i].Start < o.bursts[j].Start
		}
		return o.bursts[i].Port < o.bursts[j].Port
	})
	elapsed := o.horizon - o.attachedAt
	rate := o.fab.Config().LinkRate
	o.reports = make([]PortReport, len(o.ports))
	for i, ps := range o.ports {
		ing, lnk := ps.port.Stats(), ps.out.Stats()
		inFlight, _ := ps.out.InFlight()
		tx := ps.onWire()
		var util float64
		if elapsed > 0 {
			util = float64(tx.Bits()) * float64(time.Second) /
				(float64(elapsed) * float64(rate))
		}
		o.reports[i] = PortReport{
			Port:               ps.id,
			Host:               o.names[i],
			InFrames:           ing.In,
			Forwarded:          ing.Forwarded,
			AdmissionDrops:     ing.BufDropped,
			AdmissionDropBytes: int64(ing.BufDroppedBytes),
			Enqueued:           lnk.Sent,
			Delivered:          lnk.Delivered,
			WireLossDrops:      lnk.Dropped,
			InFlight:           inFlight,
			ECNMarks:           lnk.Marked,
			TxBytes:            int64(tx),
			Utilization:        util,
			PeakBacklog:        int64(ps.peakBacklog),
			PeakOccupancy:      int64(ps.peakOccupancy),
			HopLatencyMean:     time.Duration(ps.hop.Mean()),
			HopLatencyP50:      time.Duration(ps.hop.Quantile(0.50)),
			HopLatencyP99:      time.Duration(ps.hop.Quantile(0.99)),
			HopLatencyMax:      time.Duration(ps.hop.Max()),
			Bursts:             ps.burstCount,
		}
	}
}

// Timeline copies the retained time-series samples.
func (o *Observer) Timeline() *telemetry.Timeline { return o.smp.Timeline() }

// PortReports returns the per-port ledger (port order). Finalize first.
func (o *Observer) PortReports() []PortReport {
	o.Finalize()
	return o.reports
}

// Bursts returns the retained microburst events, ordered by start time.
func (o *Observer) Bursts() []BurstEvent {
	o.Finalize()
	return o.bursts
}
