package tcp

import (
	"fmt"
	"math"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/sim"
	"hostsim/internal/units"
)

// CongestionControl is the pluggable window/rate algorithm. The paper
// compares CUBIC (Linux default), DCTCP and BBR in §3.10.
type CongestionControl interface {
	Name() string
	// Init is called once with the owning connection.
	Init(c *Conn)
	// OnAck reacts to an acknowledgment of newly acked bytes.
	OnAck(ctx *exec.Ctx, acked units.Bytes, srtt time.Duration, ece bool)
	// OnLoss is a fast-retransmit (duplicate-ack/SACK) loss signal.
	OnLoss()
	// OnRTO is a retransmission timeout.
	OnRTO()
	// OnRecoveryExit fires when recovery completes.
	OnRecoveryExit()
	// Cwnd returns the congestion window in bytes.
	Cwnd() units.Bytes
	// Ssthresh returns the slow-start threshold in bytes, or 0 for
	// algorithms without one (BBR).
	Ssthresh() units.Bytes
	// PacingRate returns the pacing rate, or 0 for ack-clocked sending.
	PacingRate() units.BitRate
}

// NewCC builds a congestion controller by name: "cubic", "reno", "dctcp"
// or "bbr".
func NewCC(name string, mss units.Bytes) CongestionControl {
	switch name {
	case "cubic", "":
		return &Cubic{mss: mss}
	case "reno":
		return &Reno{mss: mss}
	case "dctcp":
		return &DCTCP{Reno: Reno{mss: mss}}
	case "bbr":
		return &BBR{mss: mss}
	default:
		panic(fmt.Sprintf("tcp: unknown congestion control %q", name))
	}
}

// ---------------------------------------------------------------------------
// Reno: the additive-increase/multiplicative-decrease baseline, and the
// base for DCTCP.

// Reno implements classic NewReno congestion control.
type Reno struct {
	mss      units.Bytes
	cwnd     units.Bytes
	ssthresh units.Bytes
}

// Name implements CongestionControl.
func (r *Reno) Name() string { return "reno" }

// Init implements CongestionControl.
func (r *Reno) Init(c *Conn) {
	r.cwnd = c.initCwnd
	r.ssthresh = units.Bytes(math.MaxInt64 / 4)
}

// OnAck implements CongestionControl.
func (r *Reno) OnAck(ctx *exec.Ctx, acked units.Bytes, srtt time.Duration, ece bool) {
	if acked <= 0 {
		return
	}
	if r.cwnd < r.ssthresh {
		r.cwnd += acked // slow start
		return
	}
	// Congestion avoidance: one MSS per cwnd of acked data.
	inc := units.Bytes(int64(r.mss) * int64(acked) / int64(r.cwnd))
	if inc < 1 {
		inc = 1
	}
	r.cwnd += inc
}

// OnLoss implements CongestionControl.
func (r *Reno) OnLoss() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2*r.mss {
		r.ssthresh = 2 * r.mss
	}
	r.cwnd = r.ssthresh
}

// OnRTO implements CongestionControl.
func (r *Reno) OnRTO() {
	r.ssthresh = r.cwnd / 2
	if r.ssthresh < 2*r.mss {
		r.ssthresh = 2 * r.mss
	}
	r.cwnd = 2 * r.mss
}

// OnRecoveryExit implements CongestionControl.
func (r *Reno) OnRecoveryExit() {}

// Cwnd implements CongestionControl.
func (r *Reno) Cwnd() units.Bytes { return r.cwnd }

// Ssthresh implements CongestionControl.
func (r *Reno) Ssthresh() units.Bytes { return r.ssthresh }

// PacingRate implements CongestionControl.
func (r *Reno) PacingRate() units.BitRate { return 0 }

// ---------------------------------------------------------------------------
// CUBIC (Linux default).

// Cubic implements the CUBIC window growth function with beta=0.7, C=0.4.
type Cubic struct {
	mss        units.Bytes
	cwnd       units.Bytes
	ssthresh   units.Bytes
	wMax       float64 // MSS units
	k          float64 // seconds
	epochStart sim.Time
	inEpoch    bool
}

const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// Name implements CongestionControl.
func (c *Cubic) Name() string { return "cubic" }

// Init implements CongestionControl.
func (c *Cubic) Init(conn *Conn) {
	c.cwnd = conn.initCwnd
	c.ssthresh = units.Bytes(math.MaxInt64 / 4)
}

// OnAck implements CongestionControl.
func (c *Cubic) OnAck(ctx *exec.Ctx, acked units.Bytes, srtt time.Duration, ece bool) {
	if acked <= 0 {
		return
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += acked
		return
	}
	now := ctx.Now()
	if !c.inEpoch {
		c.inEpoch = true
		c.epochStart = now
		if c.wMax == 0 {
			c.wMax = float64(c.cwnd / c.mss)
			c.k = 0
		}
	}
	t := time.Duration(now - c.epochStart).Seconds()
	wCubic := cubicC*math.Pow(t-c.k, 3) + c.wMax // in MSS
	cur := float64(c.cwnd / c.mss)
	if wCubic > cur {
		// Approach the cubic target proportionally to acked data.
		inc := (wCubic - cur) / cur * float64(acked)
		c.cwnd += units.Bytes(inc)
	} else {
		// TCP-friendly floor: at least Reno-like growth.
		c.cwnd += units.Bytes(int64(c.mss) * int64(acked) / int64(c.cwnd))
	}
}

// OnLoss implements CongestionControl.
func (c *Cubic) OnLoss() {
	c.wMax = float64(c.cwnd / c.mss)
	c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	c.cwnd = units.Bytes(float64(c.cwnd) * cubicBeta)
	if c.cwnd < 2*c.mss {
		c.cwnd = 2 * c.mss
	}
	c.ssthresh = c.cwnd
	c.inEpoch = false
}

// OnRTO implements CongestionControl.
func (c *Cubic) OnRTO() {
	c.wMax = float64(c.cwnd / c.mss)
	c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
	c.ssthresh = units.Bytes(float64(c.cwnd) * cubicBeta)
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = 2 * c.mss
	c.inEpoch = false
}

// OnRecoveryExit implements CongestionControl.
func (c *Cubic) OnRecoveryExit() {}

// Cwnd implements CongestionControl.
func (c *Cubic) Cwnd() units.Bytes { return c.cwnd }

// Ssthresh implements CongestionControl.
func (c *Cubic) Ssthresh() units.Bytes { return c.ssthresh }

// PacingRate implements CongestionControl.
func (c *Cubic) PacingRate() units.BitRate { return 0 }

// ---------------------------------------------------------------------------
// DCTCP: Reno plus ECN-fraction-proportional decrease.

// DCTCP implements the DCTCP alpha estimator on top of Reno growth.
type DCTCP struct {
	Reno
	alpha       float64
	ackedEpoch  units.Bytes
	markedEpoch units.Bytes
}

const dctcpG = 1.0 / 16

// Name implements CongestionControl.
func (d *DCTCP) Name() string { return "dctcp" }

// OnAck implements CongestionControl.
func (d *DCTCP) OnAck(ctx *exec.Ctx, acked units.Bytes, srtt time.Duration, ece bool) {
	d.ackedEpoch += acked
	if ece {
		d.markedEpoch += acked
	}
	if d.ackedEpoch >= d.cwnd && d.cwnd > 0 {
		f := float64(d.markedEpoch) / float64(d.ackedEpoch)
		d.alpha = (1-dctcpG)*d.alpha + dctcpG*f
		if d.markedEpoch > 0 {
			d.cwnd = units.Bytes(float64(d.cwnd) * (1 - d.alpha/2))
			if d.cwnd < 2*d.mss {
				d.cwnd = 2 * d.mss
			}
		}
		d.ackedEpoch, d.markedEpoch = 0, 0
	}
	if d.markedEpoch == 0 {
		d.Reno.OnAck(ctx, acked, srtt, ece)
	}
}

// ---------------------------------------------------------------------------
// BBR: a two-phase (startup, probe) model of BBR's rate-based control.
// The paper exercises BBR's pacing overhead (Fig. 13b), not its control
// fidelity, so this model keeps the essentials: a windowed max filter on
// delivery rate, a min-RTT estimate, gain cycling, and pacing.

// BBR implements simplified BBR congestion control with pacing.
type BBR struct {
	mss        units.Bytes
	cwnd       units.Bytes
	btlBw      units.BitRate
	minRTT     time.Duration
	startup    bool
	lastAckAt  sim.Time
	phase      int
	phaseStart sim.Time
	fullCnt    int
	prevBw     units.BitRate
}

var bbrGains = [8]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// Name implements CongestionControl.
func (b *BBR) Name() string { return "bbr" }

// Init implements CongestionControl.
func (b *BBR) Init(c *Conn) {
	b.cwnd = c.initCwnd
	b.btlBw = 1 * units.Gbps
	b.startup = true
}

// OnAck implements CongestionControl.
func (b *BBR) OnAck(ctx *exec.Ctx, acked units.Bytes, srtt time.Duration, ece bool) {
	now := ctx.Now()
	if srtt > 0 && (b.minRTT == 0 || srtt < b.minRTT) {
		b.minRTT = srtt
	}
	if acked > 0 && b.lastAckAt > 0 && now > b.lastAckAt {
		sample := units.RateOf(acked, time.Duration(now-b.lastAckAt))
		if sample > b.btlBw {
			b.btlBw = sample
		}
	}
	if acked > 0 {
		b.lastAckAt = now
	}
	rtt := b.minRTT
	if rtt == 0 {
		rtt = 50 * time.Microsecond
	}
	if b.startup {
		// Exit startup when the bottleneck estimate plateaus.
		if b.btlBw <= b.prevBw+b.prevBw/4 {
			b.fullCnt++
			if b.fullCnt >= 3 {
				b.startup = false
				b.phaseStart = now
			}
		} else {
			b.fullCnt = 0
			b.prevBw = b.btlBw
		}
	} else if time.Duration(now-b.phaseStart) > rtt {
		b.phase = (b.phase + 1) % len(bbrGains)
		b.phaseStart = now
	}
	// cwnd: 2x BDP cap.
	bdp := units.Bytes(float64(b.btlBw) / 8 * rtt.Seconds())
	b.cwnd = 2 * bdp
	if b.cwnd < 4*b.mss {
		b.cwnd = 4 * b.mss
	}
}

// OnLoss implements CongestionControl. BBR does not react to isolated
// losses; rate control bounds the pipe.
func (b *BBR) OnLoss() {}

// OnRTO implements CongestionControl.
func (b *BBR) OnRTO() {
	b.btlBw = b.btlBw / 2
	if b.btlBw < units.Gbps {
		b.btlBw = units.Gbps
	}
}

// OnRecoveryExit implements CongestionControl.
func (b *BBR) OnRecoveryExit() {}

// Cwnd implements CongestionControl.
func (b *BBR) Cwnd() units.Bytes { return b.cwnd }

// Ssthresh implements CongestionControl. BBR has no slow-start threshold.
func (b *BBR) Ssthresh() units.Bytes { return 0 }

// PacingRate implements CongestionControl.
func (b *BBR) PacingRate() units.BitRate {
	gain := 2.885
	if !b.startup {
		gain = bbrGains[b.phase]
	}
	return units.BitRate(float64(b.btlBw) * gain)
}

// ---------------------------------------------------------------------------
// Pacer: releases segments at the CC's pacing rate via a qdisc-style
// timer. Each release runs in softirq context and pays the timer, qdisc
// and wakeup costs — the source of BBR's sender-side scheduling overhead
// in Fig. 13b.

type pacerState struct {
	timer       sim.Timer
	nextRelease sim.Time
}

func (p *pacerState) active(c *Conn) bool { return c.cc.PacingRate() > 0 }

// pump schedules the next paced release if sending is possible.
func (p *pacerState) pump(ctx *exec.Ctx, c *Conn) {
	p.schedule(c)
	c.maybePersist()
}

func (p *pacerState) schedule(c *Conn) {
	if p.timer.Pending() {
		return
	}
	if !c.canSendNext() {
		return
	}
	at := p.nextRelease
	if now := c.eng.Now(); at < now {
		at = now
	}
	p.timer = c.eng.AtArg(at, pacerEv, c)
}

// pacerEv is the pacing timer: it raises the connection's paced release
// in softirq context.
func pacerEv(a any) {
	c := a.(*Conn)
	if c.pacerBody == nil {
		c.pacerBody = c.pacedRelease
	}
	c.hooks.Softirq(c.pacerBody)
}

// pacedRelease is the pacing timer's softirq body.
func (c *Conn) pacedRelease(ctx *exec.Ctx) { c.pacer.release(ctx, c) }

func (p *pacerState) release(ctx *exec.Ctx, c *Conn) {
	if !c.canSendNext() {
		c.maybePersist()
		return
	}
	costs := c.costs
	ctx.Charge(cpumodel.Etc, costs.TimerFire)
	ctx.Charge(cpumodel.Netdev, costs.PacerRelease)
	// TSQ-style task wake when the qdisc drains.
	ctx.Charge(cpumodel.Sched, costs.Wakeup)
	length := c.sendNext(ctx)
	rate := c.cc.PacingRate()
	if rate <= 0 {
		rate = units.Gbps
	}
	p.nextRelease = ctx.Now().Add(rate.Serialize(length))
	p.schedule(c)
}
