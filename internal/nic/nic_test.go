package nic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hostsim/internal/cache"
	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/mem"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/topology"
	"hostsim/internal/units"
	"hostsim/internal/wire"
)

// rig wires a NIC to a loopback link, a collecting consumer and a
// Tx-completion tally.
type rig struct {
	eng    *sim.Engine
	sys    *exec.System
	alloc  *mem.Allocator
	dca    *cache.DCA
	nic    *NIC
	frames *skb.FramePool
	got    []*skb.SKB

	completions int         // Tx-completion callbacks
	completed   units.Bytes // payload bytes they reported
}

func newRig(t *testing.T, cfg Config, withDCA bool, steer Steering) *rig {
	t.Helper()
	r := &rig{eng: sim.NewEngine(1)}
	spec := topology.Default()
	r.sys = exec.NewSystem(r.eng, spec, cpumodel.Default())
	r.alloc = mem.NewAllocator(spec, cpumodel.Default())
	if withDCA {
		r.dca = cache.NewDCA(cache.DCAConfig{
			Capacity: spec.DCACapacity(),
			PageSize: spec.PageSize,
			Rand:     r.eng.Rand(),
		})
	}
	// Egress link loops back into the same NIC (unused in Rx tests).
	var n *NIC
	link := wire.NewLink(r.eng, spec.LinkRate, 2*time.Microsecond, func(f *skb.Frame) {
		n.ReceiveFromWire(f)
	})
	r.frames = &skb.FramePool{}
	n = New(r.eng, r.sys, r.alloc, r.dca, cfg, &skb.Pool{}, r.frames, link, steer,
		func(ctx *exec.Ctx, s *skb.SKB) { r.got = append(r.got, s) },
		func(_ skb.FlowID, b units.Bytes) { r.completions++; r.completed += b })
	r.nic = n
	return r
}

// discardRx and ignoreTxComplete are the Rx upcall and Tx-completion
// callback of a NIC whose test watches neither.
func discardRx(*exec.Ctx, *skb.SKB)            {}
func ignoreTxComplete(skb.FlowID, units.Bytes) {}

// inject delivers a data frame directly from the "wire".
func (r *rig) inject(flow skb.FlowID, seq int64, l units.Bytes) {
	r.nic.ReceiveFromWire(&skb.Frame{Flow: flow, Seq: seq, Len: l})
}

func (r *rig) run(d time.Duration) { r.eng.Run(sim.Time(d)) }

func TestSingleFrameDeliveredAfterModeration(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, true, FixedCore(0))
	r.inject(1, 0, 4096)
	r.run(time.Millisecond)
	if len(r.got) != 1 {
		t.Fatalf("delivered %d skbs, want 1", len(r.got))
	}
	s := r.got[0]
	if s.Len != 4096 || s.Frames != 1 || s.Flow != 1 {
		t.Errorf("skb = %v", s)
	}
	if s.Born < sim.Time(cfg.ModerationDelay) {
		t.Errorf("NAPI ran at %v, before the moderation delay %v", s.Born, cfg.ModerationDelay)
	}
	if r.nic.Stats().IRQs != 1 {
		t.Errorf("IRQs = %d, want 1", r.nic.Stats().IRQs)
	}
}

func TestBurstTriggersEarlyIRQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModerationDelay = time.Millisecond // would be far too late
	r := newRig(t, cfg, true, FixedCore(0))
	for i := 0; i < moderationFrames; i++ {
		r.inject(1, int64(i)*1500, 1500)
	}
	r.run(100 * time.Microsecond)
	if len(r.got) == 0 {
		t.Fatal("a backlog of moderationFrames should fire the IRQ early")
	}
}

func TestGROAggregatesWithinPoll(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, true, FixedCore(0))
	// 7 contiguous jumbo frames, one flow: one ~62KB skb.
	mss := cfg.MTU - FrameHeader
	for i := 0; i < 7; i++ {
		r.inject(1, int64(i)*int64(mss), mss)
	}
	r.run(time.Millisecond)
	if len(r.got) != 1 {
		t.Fatalf("delivered %d skbs, want 1 aggregate", len(r.got))
	}
	if r.got[0].Frames != 7 || r.got[0].Len != 7*mss {
		t.Errorf("aggregate = %v", r.got[0])
	}
}

func TestGRODisabledDeliversPerFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GRO = false
	r := newRig(t, cfg, true, FixedCore(0))
	for i := 0; i < 5; i++ {
		r.inject(1, int64(i)*1500, 1500)
	}
	r.run(time.Millisecond)
	if len(r.got) != 5 {
		t.Fatalf("delivered %d skbs, want 5 (GRO off)", len(r.got))
	}
}

func TestLROCoalescesWithoutCPU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LRO = true
	r := newRig(t, cfg, true, FixedCore(0))
	mss := cfg.MTU - FrameHeader
	for i := 0; i < 5; i++ {
		r.inject(1, int64(i)*int64(mss), mss)
	}
	r.run(time.Millisecond)
	if len(r.got) != 1 {
		t.Fatalf("delivered %d skbs, want 1 LRO aggregate", len(r.got))
	}
	if r.nic.Stats().LROCoalesce != 4 {
		t.Errorf("LROCoalesce = %d, want 4", r.nic.Stats().LROCoalesce)
	}
}

func TestDescriptorExhaustionDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxRing = 4
	cfg.ModerationDelay = 10 * time.Millisecond // keep NAPI away; 4 frames stay below moderationFrames
	r := newRig(t, cfg, true, FixedCore(0))
	fp := r.frames
	for i := 0; i < 10; i++ {
		r.inject(1, int64(i)*1500, 1500)
	}
	// A dropped ACK's record goes back to the pool with its frame.
	ack := fp.GetAck()
	f := fp.Get()
	f.Flow, f.Ack = 1, ack
	r.nic.ReceiveFromWire(f)
	st := r.nic.Stats()
	if st.RxFrames != 4 || st.RxDropped != 7 {
		t.Errorf("RxFrames = %d RxDropped = %d, want 4/7", st.RxFrames, st.RxDropped)
	}
	if fp.GetAck() != ack {
		t.Error("the dropped ACK's record did not go back to the pool")
	}
}

func TestReplenishRestoresDescriptors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxRing = 4
	r := newRig(t, cfg, true, FixedCore(0))
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			r.inject(1, int64(round*4+i)*1500, 1500)
		}
		r.run(time.Duration(round+1) * 200 * time.Microsecond)
	}
	st := r.nic.Stats()
	if st.RxDropped != 0 {
		t.Errorf("drops with replenish keeping up: %d", st.RxDropped)
	}
	if st.RxFrames != 20 {
		t.Errorf("RxFrames = %d, want 20", st.RxFrames)
	}
}

func TestDDIOInsertsOnlyNICLocalPages(t *testing.T) {
	cfg := DefaultConfig()
	// Flow 1 steers to core 12 (node 2, NIC-remote): its pages allocate
	// on node 2 and must not enter the node-0 DCA. Flow 2 steers to the
	// NIC-local core 0.
	r := newRig(t, cfg, true, Pinned{Table: []int{-1, 12, 0}})
	r.inject(1, 0, 9000-66)
	r.run(time.Millisecond)
	if got := r.dca.Stats().Inserts; got != 0 {
		t.Errorf("remote-node DMA inserted %d pages into DCA, want 0", got)
	}
	// Now a NIC-local queue.
	r.inject(2, 0, 9000-66)
	r.run(2 * time.Millisecond)
	if got := r.dca.Stats().Inserts; got == 0 {
		t.Error("NIC-local DMA should insert into DCA")
	}
}

func TestNAPIBudgetSplitsLargeBacklog(t *testing.T) {
	const frames = 4 * napiWeight
	cfg := DefaultConfig()
	r := newRig(t, cfg, true, FixedCore(0))
	// Keep core 0 busy so the IRQ that moderationFrames fires early finds
	// the whole backlog in place when its poll runs.
	r.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) { ctx.Charge(cpumodel.Etc, 100_000) })
	for i := 0; i < frames; i++ {
		r.inject(1, int64(i)*1500, 1500)
	}
	r.run(5 * time.Millisecond)
	st := r.nic.Stats()
	if st.NAPIPolls < 4 {
		t.Errorf("NAPIPolls = %d, want >= 4 (4 weights of frames)", st.NAPIPolls)
	}
	if st.IRQs != 1 {
		t.Errorf("IRQs = %d, want 1 (softirq re-polls without new IRQs)", st.IRQs)
	}
	var total units.Bytes
	for _, s := range r.got {
		total += s.Len
	}
	if total != frames*1500 {
		t.Errorf("delivered %d bytes, want %d", total, frames*1500)
	}
}

func TestRSSDeterministicSpread(t *testing.T) {
	r := RSS{Cores: []int{0, 1, 2, 3}}
	seen := map[int]bool{}
	for f := skb.FlowID(0); f < 64; f++ {
		c1 := r.QueueFor(f)
		c2 := r.QueueFor(f)
		if c1 != c2 {
			t.Fatal("RSS must be deterministic per flow")
		}
		seen[c1] = true
	}
	if len(seen) < 3 {
		t.Errorf("RSS used %d of 4 cores over 64 flows; poor spread", len(seen))
	}
}

func TestPinnedSteeringWithFallback(t *testing.T) {
	p := Pinned{
		Table:    []int{-1, -1, -1, -1, -1, -1, -1, 3},
		Fallback: FixedCore(9),
	}
	if p.QueueFor(7) != 3 {
		t.Error("pinned entry ignored")
	}
	for _, f := range []skb.FlowID{-1, 0, 6, 8} {
		if p.QueueFor(f) != 9 {
			t.Errorf("flow %d: fallback ignored", f)
		}
	}
}

func TestPinnedWithoutFallbackPanics(t *testing.T) {
	p := Pinned{Table: []int{-1}}
	defer func() {
		if recover() == nil {
			t.Error("missing entry without fallback should panic")
		}
	}()
	p.QueueFor(1)
}

func TestDCAHazardGrowsWithRing(t *testing.T) {
	mk := func(ring int) float64 {
		cfg := DefaultConfig()
		cfg.RxRing = ring
		r := newRig(t, cfg, true, FixedCore(0))
		return r.nic.DCAHazard()
	}
	small, large := mk(128), mk(8192)
	if small >= large {
		t.Errorf("hazard should grow with ring size: %v vs %v", small, large)
	}
	if large > maxHazard {
		t.Errorf("hazard must respect maxHazard, got %v", large)
	}
	cfg := DefaultConfig()
	r := newRig(t, cfg, false, FixedCore(0))
	if r.nic.DCAHazard() != 0 {
		t.Error("hazard without DCA should be 0")
	}
}

func TestSendFramesChargesDoorbellAndTransmits(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, true, FixedCore(0))
	frames := []*skb.Frame{
		{Flow: 1, Seq: 0, Len: 8934},
		{Flow: 1, Seq: 8934, Len: 8934},
	}
	r.sys.Core(3).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.TCPIP, 100)
		r.nic.SendFrames(ctx, frames)
	})
	r.run(time.Millisecond)
	st := r.nic.Stats()
	if st.TxFrames != 2 {
		t.Errorf("TxFrames = %d, want 2", st.TxFrames)
	}
	acct := r.sys.Core(3).Accounting()
	if acct[cpumodel.Netdev] == 0 {
		t.Error("doorbell cost should land in Netdev")
	}
	// The loopback delivers them back: flow 1 steered to core 0.
	if len(r.got) == 0 {
		t.Error("frames never came back around the loopback")
	}
}

func TestPageConservationThroughRxPath(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, true, FixedCore(0))
	for i := 0; i < 20; i++ {
		r.inject(1, int64(i)*4096, 4096)
	}
	r.run(5 * time.Millisecond)
	// Consumer frees the skb pages, as TCP/app would after copy.
	var freed int
	for _, s := range r.got {
		r.alloc.Free(cpumodel.Discard{}, 0, s.Pages)
		freed += len(s.Pages)
	}
	if freed != 20 {
		t.Fatalf("freed %d pages, want 20 (one per 4KB frame)", freed)
	}
	// Replenish allocated exactly what DMA consumed, so the only pages
	// still held are the posted ring's stash (ring x pages-per-MTU).
	want := int64(cfg.RxRing * r.alloc.PagesFor(cfg.MTU))
	if r.alloc.InUse() != want {
		t.Errorf("InUse = %d, want ring stash %d", r.alloc.InUse(), want)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RxRing = 0 },
		func(c *Config) { c.MTU = 66 },
		func(c *Config) { c.ModerationDelay = -1 },
		func(c *Config) { c.DCAHazardFactor = -1 },
		func(c *Config) { c.DCAHazardFactor = math.NaN() },
		func(c *Config) { c.DCAHazardFactor = math.Inf(1) },
	}
	for i, f := range bad {
		cfg := DefaultConfig()
		f(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// New builds a NIC whole: a nil steering policy, Rx upcall or
// Tx-completion callback is refused at construction, not found on the
// first frame.
func TestNewPanicsOnNilCallback(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := topology.Default()
	sys := exec.NewSystem(eng, spec, cpumodel.Default())
	alloc := mem.NewAllocator(spec, cpumodel.Default())
	egress := &txEgress{rate: spec.LinkRate}
	for _, c := range []struct {
		name     string
		steer    Steering
		deliver  DeliverFunc
		complete TxCompleteFunc
	}{
		{"steering", nil, discardRx, ignoreTxComplete},
		{"deliver", FixedCore(0), nil, ignoreTxComplete},
		{"tx completion", FixedCore(0), discardRx, nil},
	} {
		func() {
			defer func() {
				if r := recover(); r != "nic: nil dependency" {
					t.Errorf("nil %s: recovered %v, want the nil-dependency panic", c.name, r)
				}
			}()
			New(eng, sys, alloc, nil, DefaultConfig(), &skb.Pool{}, &skb.FramePool{}, egress, c.steer, c.deliver, c.complete)
		}()
	}
}

func TestTxRoundRobinInterleavesCores(t *testing.T) {
	// Frames submitted from two cores must interleave frame-by-frame on
	// the wire — the multi-queue DMA scheduling that defeats per-flow
	// burst adjacency (Fig. 8c's mechanism).
	eng := sim.NewEngine(1)
	spec := topology.Default()
	sys := exec.NewSystem(eng, spec, cpumodel.Default())
	alloc := mem.NewAllocator(spec, cpumodel.Default())
	var order []skb.FlowID
	link := wire.NewLink(eng, spec.LinkRate, 0, func(f *skb.Frame) { order = append(order, f.Flow) })
	n := New(eng, sys, alloc, nil, DefaultConfig(), &skb.Pool{}, &skb.FramePool{}, link, FixedCore(0), discardRx, ignoreTxComplete)

	burst := func(flow skb.FlowID) []*skb.Frame {
		out := make([]*skb.Frame, 6)
		for i := range out {
			out[i] = &skb.Frame{Flow: flow, Seq: int64(i) * 8934, Len: 8934}
		}
		return out
	}
	sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.TCPIP, 100)
		n.SendFrames(ctx, burst(1))
	})
	sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.TCPIP, 100)
		n.SendFrames(ctx, burst(2))
	})
	eng.Run(sim.Time(time.Millisecond))
	if len(order) != 12 {
		t.Fatalf("delivered %d frames", len(order))
	}
	// After both queues are loaded the scheduler must alternate: no run
	// of more than 2 consecutive same-flow frames.
	run := 1
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			run++
			if run > 2 {
				t.Fatalf("egress did not interleave: %v", order)
			}
		} else {
			run = 1
		}
	}
}

func TestTxCompleteCallbackPerDataFrame(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, false, FixedCore(0))
	r.sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.TCPIP, 100)
		r.nic.SendFrames(ctx, []*skb.Frame{
			{Flow: 5, Seq: 0, Len: 8934},
			{Flow: 5, Seq: 8934, Len: 8934},
			{Flow: 5, Ack: &skb.AckInfo{Cum: 1}}, // pure ACK: no completion
		})
	})
	r.run(time.Millisecond)
	if r.completions != 2 || r.completed != 2*8934 {
		t.Errorf("completions = %d frames / %v bytes, want 2 / %v", r.completions, r.completed, units.Bytes(2*8934))
	}
}

// TestRxPagesFollowFlatStashOrder checks the base ++ fresh ++ top stash
// against the flat slice it replaces: a twin allocator replays the flat
// stash (pre-fill by Alloc, DMA copying from its end, emergency refill
// and replenish appending to it), and every frame's pages must match it
// id for id. The queue is created while its core's pageset holds pages,
// so the pre-fill starts with pageset pages, and the first round drains
// past the whole pre-fill into the emergency refill.
func TestRxPagesFollowFlatStashOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RxRing = 4
	r := newRig(t, cfg, false, FixedCore(0))
	twin := mem.NewAllocator(topology.Default(), cpumodel.Default())
	for _, a := range []*mem.Allocator{r.alloc, twin} {
		a.AppendAlloc(cpumodel.Discard{}, 9, 2, nil)
		a.Free(cpumodel.Discard{}, 0, a.AppendAlloc(cpumodel.Discard{}, 0, 5, nil))
	}
	page := topology.Default().PageSize
	var flat []mem.Page
	var horizon time.Duration
	round := func(lens []units.Bytes) {
		t.Helper()
		deficit := 0
		for i, l := range lens {
			f := &skb.Frame{Flow: 1, Seq: int64(i) * int64(l), Len: l}
			r.nic.ReceiveFromWire(f)
			if flat == nil {
				flat = twin.AppendAlloc(cpumodel.Discard{}, 0, cfg.RxRing*twin.PagesFor(cfg.MTU), nil)
			}
			need := twin.PagesFor(l)
			if need > len(flat) {
				flat = append(flat, twin.AppendAlloc(cpumodel.Discard{}, 0, need-len(flat), nil)...)
			}
			want := flat[len(flat)-need:]
			if len(f.Pages) != need {
				t.Fatalf("frame %d: %d pages, want %d", i, len(f.Pages), need)
			}
			for j := range want {
				if f.Pages[j] != want[j] {
					t.Fatalf("frame %d page %d = %+v, want %+v", i, j, f.Pages[j], want[j])
				}
			}
			flat = flat[:len(flat)-need]
			deficit += need
		}
		horizon += time.Millisecond
		r.run(horizon) // NAPI polls and replenishes the stash
		flat = twin.AppendAlloc(cpumodel.Discard{}, 0, deficit, flat)
	}
	// 1 + 3 + 5 + 5 pages against a 12-page pre-fill.
	round([]units.Bytes{page, 3 * page, 5 * page, 5 * page})
	round([]units.Bytes{2 * page, 4 * page, 0, page})
	if r.alloc.InUse() != twin.InUse() || r.alloc.PagesetLen(0) != twin.PagesetLen(0) {
		t.Errorf("allocator in use %d with pageset %d, want %d with %d",
			r.alloc.InUse(), r.alloc.PagesetLen(0), twin.InUse(), twin.PagesetLen(0))
	}
	if got := twin.PagesetLen(0); got != 0 {
		t.Errorf("pre-fill left %d of 5 pageset pages, want it to take all 5", got)
	}
}

// An ACK-only queue takes no pages, so its pre-fill stays a reserved range
// and no page slice is ever built for it.
func TestAckOnlyQueueLeavesPrefillReserved(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, false, FixedCore(0))
	for i := 0; i < 50; i++ {
		r.nic.ReceiveFromWire(&skb.Frame{Flow: 1, Ack: &skb.AckInfo{Cum: int64(i)}})
	}
	r.run(time.Millisecond)
	st := r.nic.queues[0].stash
	if want := cfg.RxRing * r.alloc.PagesFor(cfg.MTU); st.fresh.N != want || st.base != nil || st.top != nil {
		t.Errorf("stash = %d fresh, %d base, %d top; want %d fresh and no slices",
			st.fresh.N, len(st.base), len(st.top), want)
	}
}

// refTx is the Tx pump the NIC's is checked against: per-core queues
// drained round-robin in creation order by a linear walk, with one engine
// event per frame sent, scheduled whether or not another frame waits.
type refTx struct {
	eng      *sim.Engine
	egress   wire.Egress
	complete TxCompleteFunc
	qs       [][]*skb.Frame // by creation order
	pos      map[int]int    // core → index in qs
	next     int
	busy     bool
	idle     int // Tx-done events that found every queue empty
}

// send is SendFrames: the same doorbell charge and one deferred landing.
func (r *refTx) send(ctx *exec.Ctx, frames []*skb.Frame) {
	ctx.Charge(cpumodel.Netdev, ctx.Costs().TxDoorbell)
	core, batch := ctx.Core().ID(), append([]*skb.Frame(nil), frames...)
	ctx.DeferArg(func(any) { r.land(core, batch) }, nil)
}

func (r *refTx) land(core int, frames []*skb.Frame) {
	i, ok := r.pos[core]
	if !ok {
		i = len(r.qs)
		r.pos[core] = i
		r.qs = append(r.qs, nil)
	}
	r.qs[i] = append(r.qs[i], frames...)
	r.pump()
}

// pump sends one frame if the wire is free and a frame waits, and reports
// whether it sent.
func (r *refTx) pump() bool {
	if r.busy {
		return false
	}
	for range r.qs {
		r.next = (r.next + 1) % len(r.qs)
		q := r.qs[r.next]
		if len(q) == 0 {
			continue
		}
		f := q[0]
		r.qs[r.next] = q[1:]
		r.busy = true
		f.NICTxAt = r.eng.Now()
		r.egress.Send(f)
		if r.complete != nil && !f.IsAck() && f.Len > 0 {
			r.complete(f.Flow, f.Len)
		}
		r.eng.After(r.egress.Rate().Serialize(f.WireSize()), r.done)
		return true
	}
	return false
}

func (r *refTx) done() {
	r.busy = false
	if !r.pump() {
		r.idle++
	}
}

// txPath is a Tx pump under test: send is the SendFrames entry, land a
// deferred batch reaching its queue at an exact instant.
type txPath struct {
	send func(ctx *exec.Ctx, frames []*skb.Frame)
	land func(core int, frames []*skb.Frame)
}

// txEgress records each frame handed to the wire and lets the scenario
// aim events at the frame's Tx-done instant.
type txEgress struct {
	rate   units.BitRate
	onSend func(*skb.Frame)
	refuse func(*skb.Frame) bool // nil: every frame is taken
}

func (e *txEgress) Send(f *skb.Frame) bool {
	if e.onSend != nil {
		e.onSend(f)
	}
	return e.refuse != nil && e.refuse(f)
}

func (e *txEgress) Rate() units.BitRate { return e.rate }

// txRec is one step of a Tx scenario: an unrelated event (kind 'm'), a
// frame sent (kind 's', a = frame id, b = NICTxAt) or a completion (kind
// 'c', a = flow, b = bytes), at the engine time it happened.
type txRec struct {
	kind byte
	at   sim.Time
	a, b int64
}

// txScenario drives one Tx pump with a seeded mix. One chain of ticks
// submits multi-core SendFrames bursts or lands a batch directly, with
// idle gaps long enough for every queue to drain. Leaf events aimed
// exactly at Tx-done instants land batches there: scheduled from the
// egress and the completion callback, before the Tx-done's seq is
// reserved, and from a tick after it. Every random draw happens inside a
// callback, so two pumps stay in step only if they dispatch in the same
// order. It returns the trace and the engine's fired count.
func txScenario(seed int64, mk func(eng *sim.Engine, sys *exec.System, egress wire.Egress, complete TxCompleteFunc) txPath) ([]txRec, uint64) {
	const maxFrames, ticks = 3000, 1500
	eng := sim.NewEngine(1)
	spec := topology.Default()
	sys := exec.NewSystem(eng, spec, cpumodel.Default())
	rng := rand.New(rand.NewSource(seed))
	egress := &txEgress{rate: spec.LinkRate}
	var path txPath
	var trace []txRec
	var lastDone sim.Time // Tx-done instant of the frame sent last
	ids, marks := 0, 0
	burst := func(core int) []*skb.Frame {
		out := make([]*skb.Frame, 1+rng.Intn(3))
		for i := range out {
			f := &skb.Frame{Flow: skb.FlowID(core), Seq: int64(ids)}
			if rng.Intn(4) == 0 {
				f.Ack = &skb.AckInfo{Cum: int64(ids)}
			} else {
				f.Len = units.Bytes(64 + rng.Intn(8934))
			}
			ids++
			out[i] = f
		}
		return out
	}
	land := func() {
		if ids < maxFrames {
			core := rng.Intn(spec.NumCores())
			path.land(core, burst(core))
		}
	}
	// mark schedules an unrelated event at; leaf marks land a batch or not,
	// the tick chain also submits bursts and schedules its successor.
	var mark func(at sim.Time, tick bool)
	mark = func(at sim.Time, tick bool) {
		k := marks
		marks++
		eng.At(at, func() {
			trace = append(trace, txRec{kind: 'm', at: eng.Now(), a: int64(k)})
			if !tick {
				if rng.Intn(2) == 0 {
					land()
				}
				return
			}
			switch rng.Intn(3) {
			case 0: // bursts from several cores at once
				for c := rng.Intn(3); c >= 0 && ids < maxFrames; c-- {
					core := rng.Intn(spec.NumCores())
					fs := burst(core)
					sys.Core(core).RaiseSoftirq(func(ctx *exec.Ctx) {
						ctx.Charge(cpumodel.TCPIP, units.Cycles(rng.Intn(3000)))
						path.send(ctx, fs)
					})
				}
			case 1:
				land()
			}
			now := eng.Now()
			if lastDone >= now && rng.Intn(2) == 0 {
				mark(lastDone, false) // after the Tx-done's seq was reserved
			}
			if k >= ticks {
				return
			}
			if rng.Intn(3) == 0 { // an idle gap: every queue drains first
				mark(now+sim.Time(20_000+rng.Intn(20_000)), true)
			} else {
				mark(now+sim.Time(rng.Intn(3000)), true)
			}
		})
	}
	egress.onSend = func(f *skb.Frame) {
		trace = append(trace, txRec{kind: 's', at: eng.Now(), a: f.Seq, b: int64(f.NICTxAt)})
		lastDone = eng.Now().Add(egress.rate.Serialize(f.WireSize()))
		if rng.Intn(3) == 0 {
			mark(lastDone, false) // before the Tx-done's seq is reserved
		}
	}
	complete := func(flow skb.FlowID, b units.Bytes) {
		trace = append(trace, txRec{kind: 'c', at: eng.Now(), a: int64(flow), b: int64(b)})
		if rng.Intn(4) == 0 {
			mark(lastDone, false)
		}
	}
	path = mk(eng, sys, egress, complete)
	mark(0, true)
	eng.Run(sim.Time(time.Second))
	return trace, eng.Fired()
}

// The NIC's Tx pump, which schedules a Tx-done only when a frame waits for
// it, sends every frame and completes it exactly where one event per frame
// would, with every event around it in the same order, and fires exactly
// the reference's events less the Tx-dones that found every queue empty.
func TestTxPumpMatchesPerFrameEvents(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		var n *NIC
		got, gotFired := txScenario(seed, func(eng *sim.Engine, sys *exec.System, egress wire.Egress, complete TxCompleteFunc) txPath {
			alloc := mem.NewAllocator(topology.Default(), cpumodel.Default())
			n = New(eng, sys, alloc, nil, DefaultConfig(), &skb.Pool{}, &skb.FramePool{}, egress, FixedCore(0), discardRx, complete)
			return txPath{send: n.SendFrames, land: n.enqueueTx}
		})
		var ref *refTx
		want, wantFired := txScenario(seed, func(eng *sim.Engine, _ *exec.System, egress wire.Egress, complete TxCompleteFunc) txPath {
			ref = &refTx{eng: eng, egress: egress, complete: complete, pos: map[int]int{}}
			return txPath{send: ref.send, land: ref.land}
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if ref.idle == 0 || gotFired != wantFired-uint64(ref.idle) {
			t.Errorf("seed %d: fired %d, reference %d with %d idle Tx-dones; want exactly the idle ones saved",
				seed, gotFired, wantFired, ref.idle)
		}
		// Drained, the last Tx-done is held (not an engine event) and past.
		if f, _ := n.TxQueued(); f != 0 || !n.txHeld || !n.eng.Passed(n.txAt, n.txSeq) {
			t.Errorf("seed %d: pump not idle at the end: %d queued, held %v", seed, f, n.txHeld)
		}
	}
}

// TestTxRoundRobinPastOneWord runs the ready bitmap on a 2 × 40-core
// machine with all 80 Tx queues in use, created in a scrambled core order,
// and checks every frame sent against a linear walk over txOrder from the
// last queue served: across words, from the last word back to the first,
// and round to a lower bit of the word the scan started in.
func TestTxRoundRobinPastOneWord(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := topology.Default()
	spec.NUMANodes, spec.CoresPerNode = 2, 40
	sys := exec.NewSystem(eng, spec, cpumodel.Default())
	alloc := mem.NewAllocator(spec, cpumodel.Default())
	nq := spec.NumCores()
	// Shadow of the NIC's queues by txOrder position, and the walk's state.
	order := rand.New(rand.NewSource(3)).Perm(nq) // txOrder position → core
	posOf := make([]int, nq)
	for p, c := range order {
		posOf[c] = p
	}
	shadow := make([]int, nq)
	last := 0
	sent, crossWord, lastToFirst, sameWord := 0, 0, 0, 0
	egress := &txEgress{rate: spec.LinkRate}
	egress.onSend = func(f *skb.Frame) {
		want := -1
		for k := 1; k <= nq; k++ {
			if p := (last + k) % nq; shadow[p] > 0 {
				want = p
				break
			}
		}
		got := posOf[f.Flow]
		if got != want {
			t.Fatalf("frame %d: sent from position %d (core %d), linear walk from %d picks %d",
				sent, got, f.Flow, last, want)
		}
		start := (last + 1) % nq
		switch {
		case got/64 == 0 && start/64 == 1:
			lastToFirst++
		case got/64 == 1 && start/64 == 0:
			crossWord++
		case got < start:
			sameWord++
		}
		shadow[got]--
		last = got
		sent++
	}
	n := New(eng, sys, alloc, nil, DefaultConfig(), &skb.Pool{}, &skb.FramePool{}, egress, FixedCore(0), discardRx, ignoreTxComplete)
	land := func(p, k int) {
		fs := make([]*skb.Frame, k)
		for i := range fs {
			fs[i] = &skb.Frame{Flow: skb.FlowID(order[p]), Len: 1434}
		}
		shadow[p] += k
		n.enqueueTx(order[p], fs)
	}
	at := sim.Time(0)
	step := func(gap sim.Time, fn func()) {
		at += gap
		eng.At(at, fn)
	}
	// Create every queue in txOrder order, with uneven depths so queues
	// drop out of the rotation at different rounds.
	step(0, func() {
		for p := 0; p < nq; p++ {
			land(p, 1+p%5)
		}
	})
	// After an idle gap, single queues: the scan from the last queue served
	// wraps to a lower bit of its own word, or on to the other word.
	for _, p := range []int{75, 70, 3, 1, 66, 64, 79, 0} {
		step(100_000, func() { land(p, 1) })
	}
	// Random refills landing mid-drain.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		step(sim.Time(rng.Intn(2000)), func() { land(rng.Intn(nq), 1+rng.Intn(3)) })
	}
	eng.Run(at + sim.Time(time.Millisecond))
	if int64(sent) != n.Stats().TxFrames {
		t.Errorf("sent %d frames, NIC counted %d", sent, n.Stats().TxFrames)
	}
	if f, _ := n.TxQueued(); f != 0 {
		t.Errorf("%d frames still queued", f)
	}
	if lastToFirst == 0 || crossWord == 0 || sameWord == 0 {
		t.Errorf("scan coverage: %d last-to-first-word wraps, %d cross-word steps, %d same-word wraps; want each > 0",
			lastToFirst, crossWord, sameWord)
	}
}

// A frame the egress refuses goes back to the frame pool, and a refused
// ACK's AckInfo back to the pool's AckInfo records. Every data frame
// still completes with its own flow and payload, read before the frame
// was recycled.
func TestRefusedFramesReturnToPool(t *testing.T) {
	eng := sim.NewEngine(1)
	spec := topology.Default()
	sys := exec.NewSystem(eng, spec, cpumodel.Default())
	alloc := mem.NewAllocator(spec, cpumodel.Default())
	sent, refused := 0, 0
	egress := &txEgress{rate: spec.LinkRate, refuse: func(f *skb.Frame) bool {
		sent++
		if f.IsAck() || sent%3 == 1 {
			refused++
			return true
		}
		return false
	}}
	fp := &skb.FramePool{}
	var completed units.Bytes
	n := New(eng, sys, alloc, nil, DefaultConfig(), &skb.Pool{}, fp, egress, FixedCore(0), discardRx,
		func(flow skb.FlowID, b units.Bytes) {
			if flow != 5 {
				t.Errorf("completion for flow %d, want 5", flow)
			}
			completed += b
		})
	const data = 9
	var frames []*skb.Frame
	for i := 0; i < data; i++ {
		f := fp.Get()
		f.Flow, f.Seq, f.Len = 5, int64(i)*1434, 1434
		frames = append(frames, f)
	}
	ack := fp.GetAck()
	ack.Cum, ack.SACK = 1434, append(ack.SACK, skb.Range{Start: 2868, End: 4302})
	f := fp.Get()
	f.Flow, f.Ack = 5, ack
	frames = append(frames, f)
	sys.Core(0).RaiseSoftirq(func(ctx *exec.Ctx) {
		ctx.Charge(cpumodel.TCPIP, 100)
		n.SendFrames(ctx, frames)
	})
	eng.Run(sim.Time(time.Millisecond))
	if sent != data+1 || refused != 4 {
		t.Fatalf("egress saw %d frames and refused %d, want %d and 4", sent, refused, data+1)
	}
	if fp.Puts != int64(refused) {
		t.Errorf("frame pool got %d frames back, want one per refused frame (%d)", fp.Puts, refused)
	}
	if out := fp.Outstanding(); out != int64(sent-refused) {
		t.Errorf("%d frames outstanding, want the %d the egress took", out, sent-refused)
	}
	if completed != data*1434 {
		t.Errorf("completions reported %v bytes, want %v", completed, units.Bytes(data*1434))
	}
	if got := fp.GetAck(); got != ack || got.Cum != 0 || len(got.SACK) != 0 || cap(got.SACK) == 0 {
		t.Errorf("the refused ACK's record was not recycled clean: got %p (%+v), want %p", got, got, ack)
	}
}
