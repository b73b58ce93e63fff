package tcp

import (
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/sim"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// ctxAt fabricates an exec context at a given simulated time for direct
// CC unit tests.
func ctxAt(t *testing.T, at time.Duration, fn func(*exec.Ctx)) {
	t.Helper()
	eng := sim.NewEngine(1)
	sys := exec.NewSystem(eng, topology.Default(), cpumodel.Default())
	eng.At(sim.Time(at), func() {
		sys.Core(0).RaiseSoftirq(func(x *exec.Ctx) {
			x.Charge(cpumodel.Etc, 1)
			fn(x)
		})
	})
	eng.Run(sim.Time(at) + 1000)
}

func TestCCFactoryNames(t *testing.T) {
	for name, want := range map[string]string{
		"":      "cubic",
		"cubic": "cubic",
		"reno":  "reno",
		"dctcp": "dctcp",
		"bbr":   "bbr",
	} {
		cc := NewCC(name, 1448)
		if cc.Name() != want {
			t.Errorf("NewCC(%q).Name() = %q, want %q", name, cc.Name(), want)
		}
	}
}

func TestRenoSlowStartDoubling(t *testing.T) {
	r := &Reno{mss: 1000}
	r.Init(&Conn{initCwnd: 10000})
	// Acking a full window in slow start doubles cwnd.
	r.OnAck(nil, 10000, time.Millisecond, false)
	if r.Cwnd() != 20000 {
		t.Errorf("cwnd = %v, want doubled 20000", r.Cwnd())
	}
}

func TestRenoFloors(t *testing.T) {
	r := &Reno{mss: 1000}
	r.Init(&Conn{initCwnd: 3000})
	r.OnLoss()
	r.OnLoss()
	r.OnLoss()
	if r.Cwnd() < 2000 {
		t.Errorf("cwnd = %v, must not fall below 2 MSS", r.Cwnd())
	}
	r.OnRTO()
	if r.Cwnd() != 2000 {
		t.Errorf("RTO cwnd = %v, want 2 MSS", r.Cwnd())
	}
	// Zero/negative acks are ignored.
	w := r.Cwnd()
	r.OnAck(nil, 0, time.Millisecond, false)
	if r.Cwnd() != w {
		t.Error("zero-byte ack changed cwnd")
	}
}

func TestCubicConvergesTowardWmax(t *testing.T) {
	c := &Cubic{mss: 1448}
	c.Init(&Conn{initCwnd: 100 * 1448})
	c.ssthresh = 1 // force congestion avoidance
	// Take a loss to establish Wmax, then grow back.
	c.OnLoss()
	after := c.Cwnd()
	ctxAt(t, 50*time.Millisecond, func(x *exec.Ctx) {
		for i := 0; i < 50; i++ {
			c.OnAck(x, after, 100*time.Microsecond, false)
		}
	})
	if c.Cwnd() <= after {
		t.Errorf("cubic should regrow after loss: %v -> %v", after, c.Cwnd())
	}
	// K is positive after a loss (time to return to Wmax).
	if c.k <= 0 {
		t.Errorf("K = %v, want > 0", c.k)
	}
}

func TestCubicTCPFriendlyFloor(t *testing.T) {
	c := &Cubic{mss: 1000}
	c.Init(&Conn{initCwnd: 50000})
	c.ssthresh = 1
	c.wMax = 1e9 // park the cubic target far above: the floor applies
	c.k = 1e9
	w0 := c.Cwnd()
	ctxAt(t, time.Millisecond, func(x *exec.Ctx) {
		c.OnAck(x, 50000, time.Millisecond, false)
	})
	if c.Cwnd() < w0+900 {
		t.Errorf("TCP-friendly floor should add ~1 MSS per window: %v -> %v", w0, c.Cwnd())
	}
}

func TestCubicRTOResetsEpoch(t *testing.T) {
	c := &Cubic{mss: 1448}
	c.Init(&Conn{initCwnd: 100 * 1448})
	c.ssthresh = 1
	c.inEpoch = true
	c.OnRTO()
	if c.inEpoch {
		t.Error("RTO should reset the cubic epoch")
	}
	if c.Cwnd() != 2*1448 {
		t.Errorf("RTO cwnd = %v, want 2 MSS", c.Cwnd())
	}
}

func TestDCTCPFullMarkingHalvesWindow(t *testing.T) {
	d := &DCTCP{Reno: Reno{mss: 1000}}
	d.Init(&Conn{initCwnd: 20000})
	d.ssthresh = 1
	w0 := d.Cwnd()
	// Several fully-marked epochs: alpha -> 1, window halves repeatedly.
	for i := 0; i < 80; i++ {
		d.OnAck(nil, d.Cwnd(), time.Millisecond, true)
	}
	if d.alpha < 0.5 {
		t.Errorf("alpha = %v after sustained marking, want high", d.alpha)
	}
	if d.Cwnd() >= w0 {
		t.Errorf("cwnd should shrink under marking: %v -> %v", w0, d.Cwnd())
	}
	if d.Cwnd() < 2000 {
		t.Errorf("cwnd floor violated: %v", d.Cwnd())
	}
}

func TestDCTCPProportionality(t *testing.T) {
	// Half-marked epochs should cut less than fully-marked ones.
	run := func(markEvery int) units.Bytes {
		d := &DCTCP{Reno: Reno{mss: 1000}}
		d.Init(&Conn{initCwnd: 40000})
		d.ssthresh = 1
		for i := 0; i < 200; i++ {
			d.OnAck(nil, 4000, time.Millisecond, i%markEvery == 0)
		}
		return d.Cwnd()
	}
	full := run(1)    // every ack marked
	partial := run(4) // quarter marked
	if full >= partial {
		t.Errorf("full marking (%v) should shrink cwnd more than partial (%v)", full, partial)
	}
}

func TestBBRStartupExitsOnPlateau(t *testing.T) {
	b := &BBR{mss: 1448}
	b.Init(&Conn{initCwnd: 14480})
	if !b.startup {
		t.Fatal("BBR should begin in startup")
	}
	// Feed acks with a flat delivery rate: startup must end.
	ctxAt(t, time.Millisecond, func(x *exec.Ctx) {
		for i := 0; i < 10; i++ {
			b.OnAck(x, 64*units.KB, 50*time.Microsecond, false)
		}
	})
	if b.startup {
		t.Error("BBR should exit startup once the bottleneck estimate plateaus")
	}
	if b.PacingRate() <= 0 {
		t.Error("post-startup pacing rate must be positive")
	}
}

func TestBBRStartupGain(t *testing.T) {
	b := &BBR{mss: 1448}
	b.Init(&Conn{initCwnd: 14480})
	// In startup the pacing gain is 2.885x the bottleneck estimate.
	want := units.BitRate(float64(b.btlBw) * 2.885)
	got := b.PacingRate()
	if got < want-want/100 || got > want+want/100 {
		t.Errorf("startup pacing = %v, want ~%v", got, want)
	}
}

func TestBBRCwndTracksBDP(t *testing.T) {
	b := &BBR{mss: 1448}
	b.Init(&Conn{initCwnd: 14480})
	ctxAt(t, time.Millisecond, func(x *exec.Ctx) {
		b.OnAck(x, 0, 100*time.Microsecond, false) // establish minRTT
	})
	bdp := units.Bytes(float64(b.btlBw) / 8 * (100 * time.Microsecond).Seconds())
	if b.Cwnd() < bdp {
		t.Errorf("cwnd %v below BDP %v", b.Cwnd(), bdp)
	}
}

func TestBBRRTOHalvesEstimate(t *testing.T) {
	b := &BBR{mss: 1448}
	b.Init(&Conn{initCwnd: 14480})
	b.btlBw = 50 * units.Gbps
	b.OnRTO()
	if b.btlBw != 25*units.Gbps {
		t.Errorf("btlBw after RTO = %v, want halved", b.btlBw)
	}
	// Floor at 1Gbps.
	for i := 0; i < 10; i++ {
		b.OnRTO()
	}
	if b.btlBw < units.Gbps {
		t.Errorf("btlBw fell below the floor: %v", b.btlBw)
	}
}

func TestBBRLossIsIgnored(t *testing.T) {
	b := &BBR{mss: 1448}
	b.Init(&Conn{initCwnd: 14480})
	w := b.Cwnd()
	b.OnLoss()
	if b.Cwnd() != w {
		t.Error("BBR should not reduce cwnd on isolated loss")
	}
}

func TestPacerSpacing(t *testing.T) {
	// Paced releases of a BBR sender must be spaced ~length/rate apart.
	p := newPipe(t, 41, "bbr", 8934, nil, 0)
	var releases []sim.Time
	p.ea.onSend = func(int64, units.Bytes) { releases = append(releases, p.eng.Now()) }
	p.send(2 * units.MB)
	p.run(10 * time.Millisecond)
	if len(releases) < 4 {
		t.Fatalf("only %d paced sends", len(releases))
	}
	// After startup the gaps must be non-zero (paced, not back-to-back
	// bursts) for most releases.
	var spaced int
	for i := 1; i < len(releases); i++ {
		if releases[i] > releases[i-1] {
			spaced++
		}
	}
	if spaced < len(releases)/2 {
		t.Errorf("only %d/%d releases were spaced in time", spaced, len(releases)-1)
	}
}

// Paced sending allocates nothing per release once warm: the pacing timer
// schedules a package-level function with the connection as its argument,
// and the softirq body it raises is bound once per connection. The sender
// is muted and its windows held open, so the pacer alone clocks it.
func TestPacedReleaseAllocatesNothing(t *testing.T) {
	p := newPipe(t, 41, "bbr", 8934, nil, 0)
	snd := p.a
	released := 0
	p.ea.mute = true
	p.ea.onSend = func(int64, units.Bytes) { released++ }
	snd.rightEdge = 1 << 40
	snd.cc.(*BBR).cwnd = 1 << 40
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) { snd.SendData(ctx, snd.SndBufFree(), nil) })
	release := func() {
		for n := released; released == n; {
			p.eng.Run(p.eng.Now() + sim.Time(time.Microsecond))
		}
	}
	for i := 0; i < 4; i++ {
		release()
	}
	if allocs := testing.AllocsPerRun(20, release); allocs != 0 {
		t.Errorf("a paced release allocates %v objects, want 0", allocs)
	}
	if snd.Stats().Timeouts != 0 {
		t.Errorf("the sender timed out %d times; releases must come from the pacer alone", snd.Stats().Timeouts)
	}
}
