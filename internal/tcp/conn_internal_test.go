package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// bareConn builds a connection with no-op hooks for scoreboard unit tests.
func bareConn(t *testing.T) (*pipe, *Conn) {
	t.Helper()
	p := newPipe(t, 77, "cubic", 8934, nil, 0)
	return p, p.a
}

func TestMergeSACKCoalesces(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 1000
	c.mergeSACK([]skb.Range{{Start: 5000, End: 6000}})
	c.mergeSACK([]skb.Range{{Start: 6000, End: 7000}}) // adjacent: merge
	c.mergeSACK([]skb.Range{{Start: 9000, End: 9500}})
	c.mergeSACK([]skb.Range{{Start: 5500, End: 6500}}) // overlapping: absorb
	if len(c.sacked) != 2 {
		t.Fatalf("sacked = %v, want 2 coalesced ranges", c.sacked)
	}
	if c.sacked[0] != (skb.Range{Start: 5000, End: 7000}) {
		t.Errorf("first range = %v", c.sacked[0])
	}
	if c.sacked[1] != (skb.Range{Start: 9000, End: 9500}) {
		t.Errorf("second range = %v", c.sacked[1])
	}
}

func TestMergeSACKClampsBelowUna(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 5000
	c.mergeSACK([]skb.Range{{Start: 1000, End: 2000}}) // stale: fully below
	if len(c.sacked) != 0 {
		t.Errorf("stale range accepted: %v", c.sacked)
	}
	c.mergeSACK([]skb.Range{{Start: 4000, End: 7000}}) // partial: clamp
	if len(c.sacked) != 1 || c.sacked[0].Start != 5000 {
		t.Errorf("clamp failed: %v", c.sacked)
	}
}

// Property: any sequence of SACK reports leaves the scoreboard sorted,
// non-overlapping, and entirely above sndUna.
func TestPropertySACKScoreboardInvariants(t *testing.T) {
	f := func(starts []uint16, lens []uint8, una uint16) bool {
		p := newPipe(t, 78, "cubic", 8934, nil, 0)
		c := p.a
		c.sndUna = int64(una)
		n := len(starts)
		if len(lens) < n {
			n = len(lens)
		}
		for i := 0; i < n; i++ {
			s := int64(starts[i])
			c.mergeSACK([]skb.Range{{Start: s, End: s + int64(lens[i])}})
		}
		for i, r := range c.sacked {
			if r.Start >= r.End {
				return false
			}
			if r.Start < c.sndUna {
				return false
			}
			if i > 0 && c.sacked[i-1].End >= r.Start {
				return false // must be sorted and disjoint with gaps
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNextHoleWalksGaps(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 0
	c.sndNxt = 100000
	c.cfg.MSS = 10000
	c.mergeSACK([]skb.Range{{Start: 20000, End: 30000}, {Start: 50000, End: 60000}})
	c.retxNext = 0
	start, l := c.nextHole()
	if start != 0 || l != 10000 {
		t.Fatalf("first hole = (%d,%d), want (0,10000)", start, l)
	}
	c.retxNext = 20000 // first hole retransmitted
	start, l = c.nextHole()
	if start != 30000 || l != 10000 {
		t.Fatalf("second hole = (%d,%d), want (30000,10000)", start, l)
	}
	c.retxNext = 60000 // past the last sacked byte: no evidence of loss
	if _, l = c.nextHole(); l != 0 {
		t.Fatalf("no hole expected above the highest SACK, got %d", l)
	}
}

func TestNextHoleWithoutSACKNeedsDupacks(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 1000
	c.sndNxt = 50000
	if _, l := c.nextHole(); l != 0 {
		t.Error("no dupacks, no SACK: nothing to retransmit")
	}
	c.dupAcks = 3
	c.retxNext = 0
	start, l := c.nextHole()
	if start != 1000 || l != c.cfg.MSS {
		t.Errorf("dupack retransmit = (%d,%d)", start, l)
	}
}

func TestTrimSackedAfterCumAdvance(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 0
	c.mergeSACK([]skb.Range{{Start: 1000, End: 2000}, {Start: 5000, End: 6000}})
	c.sndUna = 5500
	c.trimSacked()
	if len(c.sacked) != 1 || c.sacked[0] != (skb.Range{Start: 5500, End: 6000}) {
		t.Errorf("trim result = %v", c.sacked)
	}
}

func TestRTOBacksOffAndRecovers(t *testing.T) {
	// Deliver nothing (100% loss): RTO must fire and retransmit.
	p := newPipe(t, 79, "cubic", 8934, nil, 1.0)
	p.send(64 * units.KB)
	p.run(100 * time.Millisecond)
	if p.a.Stats().Timeouts == 0 {
		t.Error("total loss should trigger RTO timeouts")
	}
	if p.a.Stats().Retransmits == 0 {
		t.Error("RTO should retransmit")
	}
}

func TestPersistProbeFiresOnZeroWindow(t *testing.T) {
	p := newPipe(t, 80, "cubic", 8934, func(c *Config) {
		c.RcvBuf = 64 * units.KB
		c.RcvBufMax = 0
	}, 0)
	p.autoRead = false // receiver never drains: window slams shut
	p.send(2 * units.MB)
	p.run(50 * time.Millisecond)
	if p.a.Stats().Probes == 0 {
		t.Error("sender should send zero-window probes while stalled")
	}
}

func TestDelAckTimerFlushesTrailingBytes(t *testing.T) {
	p := newPipe(t, 81, "cubic", 8934, nil, 0)
	// One small write, below the 2-MSS delack threshold.
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.a.SendData(ctx, 4*units.KB, nil)
	})
	p.run(20 * time.Millisecond)
	if p.b.Stats().AcksSent == 0 {
		t.Fatal("delayed-ack timer never fired for trailing bytes")
	}
	if p.a.SndBufFree() != p.a.cfg.SndBuf {
		t.Error("trailing bytes never acked; send buffer still charged")
	}
}

func TestQuickackModeAfterOOO(t *testing.T) {
	p := newPipe(t, 82, "cubic", 8934, nil, 0)
	acks0 := p.b.Stats().AcksSent
	// Inject out-of-order then a train of in-order segments directly.
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 8934, Len: 1000}) // gap
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 0, Len: 8934})    // fill
		for i := 0; i < 4; i++ {                                    // in-order train
			p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 9934 + int64(i)*100, Len: 100})
		}
	})
	p.run(time.Millisecond)
	// Quickack: the dup ack + the fill ack + one per train segment.
	if got := p.b.Stats().AcksSent - acks0; got < 5 {
		t.Errorf("quickack mode should ack every segment after OOO, got %d acks", got)
	}
}

func TestInFlightAccountsSacked(t *testing.T) {
	_, c := bareConn(t)
	c.sndUna = 0
	c.sndNxt = 100000
	if c.InFlight() != 100000 {
		t.Fatalf("InFlight = %v", c.InFlight())
	}
	c.mergeSACK([]skb.Range{{Start: 20000, End: 40000}})
	if c.InFlight() != 80000 {
		t.Errorf("InFlight = %v, want 80000 (sacked bytes excluded)", c.InFlight())
	}
}

func TestPartialOverlapRetransmissionTrimmed(t *testing.T) {
	p := newPipe(t, 83, "cubic", 8934, nil, 0)
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 0, Len: 8934})
		// Retransmission overlapping already-received data.
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 4000, Len: 8934})
	})
	p.run(time.Millisecond)
	if got := p.b.Stats().DeliveredBytes; got != 12934 {
		t.Errorf("DeliveredBytes = %v, want 12934 (overlap trimmed)", got)
	}
	if p.b.rcvNxt != 12934 {
		t.Errorf("rcvNxt = %v", p.b.rcvNxt)
	}
}

func TestFullyDuplicateSegmentReacked(t *testing.T) {
	p := newPipe(t, 84, "cubic", 8934, nil, 0)
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 0, Len: 8934})
		p.b.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: 0, Len: 8934}) // dup
	})
	p.run(time.Millisecond)
	if got := p.b.Stats().DeliveredBytes; got != 8934 {
		t.Errorf("DeliveredBytes = %v, duplicate delivered twice", got)
	}
	if p.b.Stats().AcksSent < 1 {
		t.Error("duplicate should still be acked")
	}
}

func TestOOOInsertKeepsOrder(t *testing.T) {
	p := newPipe(t, 85, "cubic", 8934, nil, 0)
	c := p.b
	p.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.Etc, 10)
		for _, seq := range []int64{30000, 10000, 20000, 10000} { // incl. dup
			c.OnSegment(ctx, &skb.SKB{Flow: 1, Seq: seq, Len: 1000})
		}
	})
	p.run(time.Millisecond)
	if len(c.ooo) != 3 {
		t.Fatalf("ooo length = %d, want 3 (dup dropped)", len(c.ooo))
	}
	for i := 1; i < len(c.ooo); i++ {
		if c.ooo[i-1].Seq >= c.ooo[i].Seq {
			t.Fatalf("ooo not sorted: %v %v", c.ooo[i-1].Seq, c.ooo[i].Seq)
		}
	}
	if c.oooBytes != 3000 {
		t.Errorf("oooBytes = %v", c.oooBytes)
	}
}

// Loss recovery keeps its storage: once warmed up, folding SACK reports
// into the scoreboard in any order, an RTO that clears it, and an
// out-of-order insert whose gap fills and drains the queue allocate
// nothing.
func TestLossRecoveryAllocatesNothing(t *testing.T) {
	p := newPipe(t, 86, "cubic", 8934, nil, 0)
	snd, rcv := p.a, p.b
	p.ea.mute, p.eb.mute, p.autoRead = true, true, false
	snd.sndUna, snd.sndNxt = 0, 1<<20

	// Eight SACKed blocks, reported up to three at a time, in shuffled
	// orders; a report may repeat or overlap what is already merged.
	var blocks []skb.Range
	for k := int64(1); k <= 8; k++ {
		blocks = append(blocks, skb.Range{Start: k * 20000, End: k*20000 + 8934})
	}
	rng := rand.New(rand.NewSource(86))
	var orders [][][]skb.Range
	for i := 0; i < 8; i++ {
		perm := append([]skb.Range(nil), blocks...)
		perm = append(perm, blocks[rng.Intn(len(blocks))])
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		var reports [][]skb.Range
		for len(perm) > 0 {
			n := min(1+rng.Intn(3), len(perm))
			reports = append(reports, perm[:n])
			perm = perm[n:]
		}
		orders = append(orders, reports)
	}

	// Two segments arrive past a one-segment gap, the gap fills, and the
	// application reads all three.
	segs := [3]skb.SKB{}
	round := 0
	cycle := func(ctx *exec.Ctx) {
		for _, r := range orders[round%len(orders)] {
			snd.mergeSACK(r)
		}
		if len(snd.sacked) != len(blocks) {
			t.Fatalf("scoreboard holds %d ranges, want %d", len(snd.sacked), len(blocks))
		}
		snd.onRTO(ctx)
		if len(snd.sacked) != 0 {
			t.Fatalf("RTO left %d sacked ranges", len(snd.sacked))
		}
		base := rcv.rcvNxt
		for _, i := range []int{2, 1, 0} {
			segs[i] = skb.SKB{Flow: 1, Seq: base + int64(i)*1000, Len: 1000}
			rcv.onData(ctx, &segs[i])
		}
		if len(rcv.ooo) != 0 || rcv.rcvNxt != base+3000 {
			t.Fatalf("drain left %d queued, rcvNxt %d, want 0 and %d", len(rcv.ooo), rcv.rcvNxt, base+3000)
		}
		if got := rcv.Read(ctx, 1<<40); len(got) != 3 {
			t.Fatalf("read %d skbs, want 3", len(got))
		}
		round++
	}
	var allocs float64
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		for range orders {
			cycle(ctx)
		}
		allocs = testing.AllocsPerRun(100, func() { cycle(ctx) })
	})
	p.run(time.Millisecond)
	if round == 0 {
		t.Fatal("recovery cycle never ran")
	}
	if allocs != 0 {
		t.Errorf("steady-state loss recovery allocates %v objects per cycle, want 0", allocs)
	}
}
