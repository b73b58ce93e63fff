package tcp

import (
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/mem"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/topology"
	"hostsim/internal/units"
	"hostsim/internal/wire"
)

// New builds a connection on the heap: Init on a fresh Conn.
func New(eng *sim.Engine, costs *cpumodel.Costs, cfg Config, flow skb.FlowID,
	cc CongestionControl, hooks Hooks) *Conn {
	c := new(Conn)
	Init(c, eng, costs, cfg, flow, cc, hooks)
	return c
}

// pipe wires two connection endpoints through wire.Links, bypassing the
// NIC: segments become MSS-sized frames, ACKs become pure-ACK frames.
type pipe struct {
	eng    *sim.Engine
	sys    *exec.System
	a, b   *Conn         // a transmits flow 1 to b
	skbs   skb.Pool      // builds the skb of each frame the wires deliver
	frames skb.FramePool // recycles the AckInfo records of consumed ACKs

	ea, eb *pipeEnd // a's and b's hooks

	recvd  []*skb.SKB // what b's app read
	recvdB units.Bytes
	// readChunk controls b's app read size per readable event; 0 = all.
	readChunk units.Bytes
	autoRead  bool
}

func newPipe(t testing.TB, seed int64, ccName string, mss units.Bytes,
	mut func(*Config), lossAtoB float64) *pipe {
	t.Helper()
	p := &pipe{eng: sim.NewEngine(seed), autoRead: true}
	p.sys = exec.NewSystem(p.eng, topology.Default(), cpumodel.Default())

	cfg := DefaultConfig(mss)
	// The pipe bypasses the NIC, so nothing reports wire departures;
	// disable TSQ gating here (TestTSQGating covers it explicitly).
	cfg.TSQBytes = 1 << 40
	if mut != nil {
		mut(&cfg)
	}

	var toB, toA *wire.Link
	toB = wire.NewLink(p.eng, 100*units.Gbps, 2*time.Microsecond, func(f *skb.Frame) {
		p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
			ctx.Charge(cpumodel.Netdev, 100)
			p.b.OnSegment(ctx, p.skbs.Get(f))
		})
	})
	toB.SetLossRate(lossAtoB)
	toA = wire.NewLink(p.eng, 100*units.Gbps, 2*time.Microsecond, func(f *skb.Frame) {
		p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
			ctx.Charge(cpumodel.Netdev, 100)
			p.a.OnSegment(ctx, p.skbs.Get(f))
		})
	})

	p.ea = &pipeEnd{p: p, out: toB, core: 1}               // a runs on core 1, sends toward b
	p.eb = &pipeEnd{p: p, out: toA, core: 0, reader: true} // b acks flow 1 via toA
	p.a = New(p.eng, cpumodel.Default(), cfg, 1, NewCC(ccName, cfg.MSS), p.ea)
	p.b = New(p.eng, cpumodel.Default(), cfg, 2, NewCC(ccName, cfg.MSS), p.eb)
	return p
}

// pipeEnd is the Hooks of one pipe endpoint: segments, ACKs and probes
// become frames on out, and timer work runs on core.
type pipeEnd struct {
	p      *pipe
	out    *wire.Link
	core   int
	reader bool // the application reads on every readable event (b)
	// mute drops segments and probes and returns ACK records to the pool,
	// for tests that feed the connection directly.
	mute bool
	// onSend, when set, sees each segment the connection transmits.
	onSend func(seq int64, length units.Bytes)
}

func (e *pipeEnd) SendSegment(ctx *exec.Ctx, c *Conn, seq int64, length units.Bytes, retrans bool) {
	if e.onSend != nil {
		e.onSend(seq, length)
	}
	if e.mute {
		return
	}
	ctx.Charge(cpumodel.TCPIP, 500)
	segs := skb.SegmentSizes(length, c.cfg.MSS)
	s := seq
	frames := make([]*skb.Frame, 0, len(segs))
	for _, l := range segs {
		frames = append(frames, &skb.Frame{Flow: c.flow, Seq: s, Len: l})
		s += int64(l)
	}
	ctx.Defer(func() {
		for _, f := range frames {
			e.out.Send(f)
		}
	})
}

func (e *pipeEnd) SendAck(ctx *exec.Ctx, c *Conn, info *skb.AckInfo) {
	if e.mute {
		e.p.frames.PutAck(info)
		return
	}
	f := &skb.Frame{Flow: c.flow, Ack: info}
	ctx.Defer(func() { e.out.Send(f) })
}

func (e *pipeEnd) SendProbe(ctx *exec.Ctx, c *Conn) {
	if e.mute {
		return
	}
	f := &skb.Frame{Flow: c.flow}
	ctx.Defer(func() { e.out.Send(f) })
}

func (e *pipeEnd) Softirq(fn func(*exec.Ctx)) { e.p.sys.Core(e.core).RaiseSoftirq(fn) }

func (e *pipeEnd) OnReadable(ctx *exec.Ctx, c *Conn) {
	p := e.p
	if !e.reader || !p.autoRead {
		return
	}
	max := p.readChunk
	if max == 0 {
		max = units.Bytes(1 << 40)
	}
	for _, s := range c.Read(ctx, max) {
		p.recvd = append(p.recvd, s)
		p.recvdB += s.Len
	}
	ctx.Charge(cpumodel.DataCopy, 100)
}

func (e *pipeEnd) OnWritable(*exec.Ctx, *Conn)               {}
func (e *pipeEnd) OnAckedPages(*exec.Ctx, *Conn, []mem.Page) {}

func (e *pipeEnd) Recycle(s *skb.SKB) {
	e.p.frames.PutAck(s.Ack)
	s.Ack = nil
	e.p.skbs.Put(s)
}

func (e *pipeEnd) NewAck() *skb.AckInfo { return e.p.frames.GetAck() }

// send queues n bytes on a from softirq context, respecting the buffer.
func (p *pipe) send(n units.Bytes) {
	var push func()
	remaining := n
	push = func() {
		p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
			ctx.Charge(cpumodel.Etc, 100)
			free := p.a.SndBufFree()
			if free > remaining {
				free = remaining
			}
			if free > 0 {
				p.a.SendData(ctx, free, nil)
				remaining -= free
			}
			if remaining > 0 {
				ctx.Defer(func() { p.eng.After(20*time.Microsecond, push) })
			}
		})
	}
	push()
}

func (p *pipe) run(d time.Duration) { p.eng.Run(sim.Time(d)) }

// verifyStream checks the received skbs form the exact in-order stream.
func (p *pipe) verifyStream(t *testing.T, want units.Bytes) {
	t.Helper()
	if p.recvdB != want {
		t.Fatalf("received %d bytes, want %d", p.recvdB, want)
	}
	var next int64
	for i, s := range p.recvd {
		if s.Seq != next {
			t.Fatalf("skb %d starts at %d, want %d (stream must be in order, exactly once)", i, s.Seq, next)
		}
		next = s.End()
	}
	if next != int64(want) {
		t.Fatalf("stream ends at %d, want %d", next, want)
	}
}

func TestBulkTransferLossless(t *testing.T) {
	p := newPipe(t, 1, "cubic", 8934, nil, 0)
	const total = 4 * units.MB
	p.send(total)
	p.run(100 * time.Millisecond)
	p.verifyStream(t, total)
	st := p.a.Stats()
	if st.Retransmits != 0 {
		t.Errorf("lossless transfer retransmitted %d times", st.Retransmits)
	}
	if st.SentBytes != total {
		t.Errorf("SentBytes = %d, want %d", st.SentBytes, total)
	}
}

func TestSmallMSSTransfer(t *testing.T) {
	p := newPipe(t, 2, "cubic", 1434, nil, 0)
	const total = 256 * units.KB
	p.send(total)
	p.run(100 * time.Millisecond)
	p.verifyStream(t, total)
}

func TestFlowControlNeverOverflowsRcvBuf(t *testing.T) {
	p := newPipe(t, 3, "cubic", 8934, func(c *Config) {
		c.RcvBuf = 256 * units.KB
		c.RcvBufMax = 0 // fixed
	}, 0)
	p.autoRead = false // the app never reads: queue must cap at rcvBuf
	p.send(4 * units.MB)
	p.run(50 * time.Millisecond)
	if got := p.b.Readable(); got > 256*units.KB {
		t.Errorf("receive queue %d exceeds fixed rcvbuf 256KB", got)
	}
	if p.a.sndNxt >= int64(2*units.MB) {
		t.Errorf("sender pushed %d bytes into a closed window", p.a.sndNxt)
	}
}

func TestZeroWindowReopensOnRead(t *testing.T) {
	p := newPipe(t, 4, "cubic", 8934, func(c *Config) {
		c.RcvBuf = 128 * units.KB
		c.RcvBufMax = 0
	}, 0)
	p.autoRead = false
	p.send(2 * units.MB)
	p.run(20 * time.Millisecond)
	stalledAt := p.a.sndNxt
	if stalledAt >= int64(2*units.MB) {
		t.Fatal("precondition: sender should have stalled on the window")
	}
	// Now the app starts draining.
	p.autoRead = true
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 100)
		for _, s := range p.b.Read(ctx, units.Bytes(1<<40)) {
			p.recvd = append(p.recvd, s)
			p.recvdB += s.Len
		}
	})
	p.run(120 * time.Millisecond)
	p.verifyStream(t, 2*units.MB)
}

func TestLossRecoveryDeliversExactStream(t *testing.T) {
	for _, loss := range []float64{0.001, 0.01} {
		p := newPipe(t, 5, "cubic", 8934, nil, loss)
		const total = 2 * units.MB
		p.send(total)
		p.run(400 * time.Millisecond)
		p.verifyStream(t, total)
		if p.a.Stats().Retransmits == 0 {
			t.Errorf("loss %v: expected retransmissions", loss)
		}
	}
}

func TestHeavyLossStillCompletes(t *testing.T) {
	p := newPipe(t, 6, "cubic", 8934, nil, 0.05)
	const total = 512 * units.KB
	p.send(total)
	p.run(2 * time.Second)
	p.verifyStream(t, total)
}

func TestDupAcksAndSACKGenerated(t *testing.T) {
	p := newPipe(t, 7, "cubic", 8934, nil, 0.01)
	p.send(2 * units.MB)
	p.run(400 * time.Millisecond)
	if p.b.Stats().DupAcksSent == 0 {
		t.Error("receiver should emit duplicate ACKs under loss")
	}
	if p.b.Stats().OOOSegments == 0 {
		t.Error("receiver should see out-of-order segments under loss")
	}
	if p.a.Stats().FastRetransmit == 0 {
		t.Error("sender should fast-retransmit under loss")
	}
}

func TestDelayedAckCadence(t *testing.T) {
	p := newPipe(t, 8, "cubic", 8934, nil, 0)
	const total = 2 * units.MB
	p.send(total)
	p.run(100 * time.Millisecond)
	acks := p.b.Stats().AcksSent
	// One ack at least every DelAckBytes (2*MSS); GRO-less frames here, so
	// expect roughly total/(2*MSS) acks, certainly within 3x either way.
	wantMin := int64(total) / int64(6*8934)
	wantMax := int64(total) / int64(8934)
	if acks < wantMin || acks > wantMax+wantMin {
		t.Errorf("AcksSent = %d, want within [%d, %d]", acks, wantMin, wantMax+wantMin)
	}
}

func TestAutotuneGrowsUnderPressure(t *testing.T) {
	p := newPipe(t, 9, "cubic", 8934, func(c *Config) {
		c.RcvBuf = 128 * units.KB
		c.RcvBufMax = 6 * units.MB
	}, 0)
	// Slow reader: drain only 9KB every 100us (~720Mbps) while the sender
	// can fill whatever window opens — queue pressure must build.
	p.autoRead = false
	var drain func()
	drain = func() {
		p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
			ctx.Charge(cpumodel.Etc, 10)
			for _, s := range p.b.Read(ctx, 9*units.KB) {
				p.recvdB += s.Len
			}
		})
		p.eng.After(100*time.Microsecond, drain)
	}
	p.eng.At(0, func() { drain() })
	p.send(8 * units.MB)
	p.run(200 * time.Millisecond)
	if p.b.RcvBuf() <= 128*units.KB {
		t.Error("autotune should have grown the receive buffer")
	}
	if p.b.RcvBuf() > 6*units.MB {
		t.Errorf("autotune exceeded cap: %v", p.b.RcvBuf())
	}
}

func TestFixedBufferDoesNotAutotune(t *testing.T) {
	p := newPipe(t, 10, "cubic", 8934, func(c *Config) {
		c.RcvBuf = 200 * units.KB
		c.RcvBufMax = 0
	}, 0)
	p.readChunk = 16 * units.KB
	p.send(2 * units.MB)
	p.run(100 * time.Millisecond)
	if p.b.RcvBuf() != 200*units.KB {
		t.Errorf("fixed buffer changed size: %v", p.b.RcvBuf())
	}
}

func TestRTTEstimate(t *testing.T) {
	p := newPipe(t, 11, "cubic", 8934, nil, 0)
	p.send(units.MB)
	p.run(50 * time.Millisecond)
	// Physical RTT is ~4us plus serialization and softirq work.
	if p.a.SRTT() < 4*time.Microsecond || p.a.SRTT() > 200*time.Microsecond {
		t.Errorf("SRTT = %v, want a few to tens of microseconds", p.a.SRTT())
	}
}

func TestSndBufFreeAccounting(t *testing.T) {
	p := newPipe(t, 12, "cubic", 8934, nil, 0)
	if p.a.SndBufFree() != p.a.cfg.SndBuf {
		t.Fatal("fresh connection should have the whole send buffer free")
	}
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.a.SendData(ctx, 64*units.KB, nil)
	})
	p.run(time.Millisecond)
	// By now everything is acked, so the buffer must be free again.
	if p.a.SndBufFree() != p.a.cfg.SndBuf {
		t.Errorf("SndBufFree = %v after full ack, want full buffer", p.a.SndBufFree())
	}
}

func TestSendDataBeyondBufferPanics(t *testing.T) {
	p := newPipe(t, 13, "cubic", 8934, nil, 0)
	panicked := false
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ctx.Charge(cpumodel.Etc, 10)
		p.a.SendData(ctx, p.a.cfg.SndBuf+1, nil)
	})
	p.run(time.Millisecond)
	if !panicked {
		t.Error("overfilling the send buffer should panic")
	}
}

func TestCubicSlowStartAndBackoff(t *testing.T) {
	c := &Cubic{mss: 1448}
	conn := &Conn{initCwnd: 10 * 1448}
	c.Init(conn)
	if c.Cwnd() != 14480 {
		t.Fatalf("initial cwnd = %v", c.Cwnd())
	}
	w0 := c.Cwnd()
	c.OnAck(nil, 14480, time.Millisecond, false)
	if c.Cwnd() != w0+14480 {
		t.Errorf("slow start should grow cwnd by acked bytes: %v", c.Cwnd())
	}
	w1 := c.Cwnd()
	c.OnLoss()
	want := units.Bytes(float64(w1) * cubicBeta)
	if c.Cwnd() != want {
		t.Errorf("OnLoss cwnd = %v, want %v (beta=0.7)", c.Cwnd(), want)
	}
}

func TestRenoAIMD(t *testing.T) {
	r := &Reno{mss: 1000}
	conn := &Conn{initCwnd: 10000}
	r.Init(conn)
	r.ssthresh = 10000 // force congestion avoidance
	r.OnAck(nil, 10000, time.Millisecond, false)
	if r.Cwnd() != 11000 {
		t.Errorf("CA growth: cwnd = %v, want 11000 (one MSS per window)", r.Cwnd())
	}
	r.OnLoss()
	if r.Cwnd() != 5500 {
		t.Errorf("MD: cwnd = %v, want 5500", r.Cwnd())
	}
	r.OnRTO()
	if r.Cwnd() != 2000 {
		t.Errorf("RTO: cwnd = %v, want 2*MSS", r.Cwnd())
	}
}

func TestDCTCPAlphaTracksMarks(t *testing.T) {
	d := &DCTCP{Reno: Reno{mss: 1000}}
	conn := &Conn{initCwnd: 10000}
	d.Init(conn)
	d.ssthresh = 1 // CA
	// One full epoch with every byte marked: alpha rises by g.
	d.OnAck(nil, 10000, time.Millisecond, true)
	if d.alpha <= 0 {
		t.Error("alpha should rise after a fully marked epoch")
	}
	w := d.Cwnd()
	// Epochs without marks decay alpha and let the window grow.
	for i := 0; i < 50; i++ {
		d.OnAck(nil, d.Cwnd(), time.Millisecond, false)
	}
	if d.alpha >= 0.1 {
		t.Errorf("alpha should decay without marks: %v", d.alpha)
	}
	if d.Cwnd() <= w {
		t.Error("window should grow in unmarked epochs")
	}
}

func TestBBRPacesAndTransfers(t *testing.T) {
	p := newPipe(t, 14, "bbr", 8934, nil, 0)
	const total = 2 * units.MB
	p.send(total)
	p.run(200 * time.Millisecond)
	p.verifyStream(t, total)
	if p.a.CC().PacingRate() <= 0 {
		t.Error("BBR should report a pacing rate")
	}
	// Pacing releases run in softirq and charge Sched (TSQ wakeups).
	acct := p.sys.Core(1).Accounting()
	if acct[cpumodel.Sched] == 0 {
		t.Error("paced sending should accrue Sched cycles on the sender core")
	}
}

func TestProbeElicitsAck(t *testing.T) {
	p := newPipe(t, 15, "cubic", 8934, nil, 0)
	before := p.b.Stats().AcksSent
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Len: 0})
	})
	p.run(time.Millisecond)
	if p.b.Stats().AcksSent != before+1 {
		t.Error("window probe should elicit an immediate ACK")
	}
	if p.b.Stats().Probes != 1 {
		t.Errorf("Probes = %d, want 1", p.b.Stats().Probes)
	}
}

func TestTSQGating(t *testing.T) {
	p := newPipe(t, 16, "cubic", 8934, func(c *Config) {
		c.TSQBytes = 128 * units.KB
	}, 0)
	p.send(4 * units.MB)
	p.run(2 * time.Millisecond)
	// Without completions, the sender stops at the TSQ budget (rounded up
	// to whole segments).
	if got := p.a.InQdisc(); got < 128*units.KB || got > 192*units.KB {
		t.Fatalf("InQdisc = %v, want ~TSQ budget 128-192KB", got)
	}
	sent := p.a.Stats().SentBytes
	if sent > 192*units.KB {
		t.Fatalf("sender pushed %v past the TSQ budget", sent)
	}
	// Completions reopen the budget and sending resumes.
	done := false
	var drain func()
	drain = func() {
		p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
			ctx.Charge(cpumodel.Netdev, 100)
			if q := p.a.InQdisc(); q > 0 {
				p.a.TxCompleted(ctx, q)
			}
		})
		if !done {
			p.eng.After(50*time.Microsecond, drain)
		}
	}
	drain()
	p.run(200 * time.Millisecond)
	done = true
	if p.a.Stats().SentBytes < 4*units.MB {
		t.Errorf("sending did not resume after completions: sent %v", p.a.Stats().SentBytes)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MSS = 0 },
		func(c *Config) { c.SegmentBytes = c.MSS - 1 },
		func(c *Config) { c.SndBuf = 0 },
		func(c *Config) { c.RcvBuf = 0 },
	}
	for i, f := range bad {
		cfg := DefaultConfig(1448)
		f(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// The hooks are required: Init refuses a nil Hooks, so no hook is
// nil-checked on the data path.
func TestNewPanicsOnMissingHook(t *testing.T) {
	defer func() {
		if r := recover(); r != "tcp: nil hooks" {
			t.Errorf("nil Hooks: recovered %v, want the nil-hooks panic", r)
		}
	}()
	New(sim.NewEngine(1), cpumodel.Default(), DefaultConfig(1448), 3, NewCC("cubic", 1448), nil)
}

func TestUnknownCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown CC name should panic")
		}
	}()
	NewCC("vegas", 1448)
}

// Byte conservation across random loss rates and read cadences: the
// delivered stream is always exactly the sent prefix, in order.
func TestPropertyStreamIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	cases := []struct {
		seed  int64
		loss  float64
		chunk units.Bytes
		cc    string
	}{
		{100, 0, 0, "cubic"},
		{101, 0.002, 16 * units.KB, "cubic"},
		{102, 0.02, 64 * units.KB, "cubic"},
		{103, 0.005, 8 * units.KB, "reno"},
		{104, 0.01, 0, "dctcp"},
		{105, 0.005, 32 * units.KB, "bbr"},
	}
	for _, tc := range cases {
		p := newPipe(t, tc.seed, tc.cc, 8934, nil, tc.loss)
		p.readChunk = tc.chunk
		const total = units.MB
		p.send(total)
		p.run(2 * time.Second)
		p.verifyStream(t, total)
	}
}
