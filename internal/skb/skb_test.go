package skb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hostsim/internal/cpumodel"
	"hostsim/internal/mem"
	"hostsim/internal/units"
)

// newTestGRO returns a GRO engine over fresh pools.
func newTestGRO() *GRO { return NewGRO(cpumodel.Default(), &Pool{}, &FramePool{}) }

func frame(flow FlowID, seq int64, l units.Bytes) *Frame {
	return &Frame{Flow: flow, Seq: seq, Len: l,
		Pages: []mem.Page{{ID: 1}, {ID: 2}}}
}

func TestSegmentSizes(t *testing.T) {
	cases := []struct {
		total, mss units.Bytes
		want       []units.Bytes
	}{
		{0, 1500, nil},
		{-1, 1500, nil},
		{1000, 1500, []units.Bytes{1000}},
		{3000, 1500, []units.Bytes{1500, 1500}},
		{3100, 1500, []units.Bytes{1500, 1500, 100}},
		{65536, 8900, []units.Bytes{8900, 8900, 8900, 8900, 8900, 8900, 8900, 3236}},
	}
	for _, c := range cases {
		got := SegmentSizes(c.total, c.mss)
		if len(got) != len(c.want) {
			t.Errorf("SegmentSizes(%d,%d) = %v, want %v", c.total, c.mss, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SegmentSizes(%d,%d)[%d] = %d, want %d", c.total, c.mss, i, got[i], c.want[i])
			}
		}
	}
}

func TestSegmentSizesConserveBytes(t *testing.T) {
	f := func(total uint32, mssRaw uint16) bool {
		mss := units.Bytes(mssRaw%9000) + 1
		tot := units.Bytes(total % (1 << 20))
		var sum units.Bytes
		for _, s := range SegmentSizes(tot, mss) {
			if s <= 0 || s > mss {
				return false
			}
			sum += s
		}
		return sum == tot || (tot <= 0 && sum == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSegmentSizesPanicsOnBadMSS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mss=0 should panic")
		}
	}()
	SegmentSizes(100, 0)
}

func TestFrameWireSize(t *testing.T) {
	f := frame(1, 0, 1434)
	if f.WireSize() != 1500 {
		t.Errorf("WireSize = %d, want 1500", f.WireSize())
	}
}

func TestGROMergesContiguousSameFlow(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	if out := g.Receive(ch, frame(1, 0, 9000), nil); len(out) != 0 {
		t.Fatalf("first frame should be held, got %d skbs", len(out))
	}
	if out := g.Receive(ch, frame(1, 9000, 9000), nil); len(out) != 0 {
		t.Fatalf("contiguous frame should merge, got %d skbs", len(out))
	}
	flushed := g.Flush(nil)
	if len(flushed) != 1 {
		t.Fatalf("Flush returned %d skbs, want 1", len(flushed))
	}
	s := flushed[0]
	if s.Len != 18000 || s.Frames != 2 || s.Seq != 0 {
		t.Errorf("merged skb = %v", s)
	}
	if len(s.Pages) != 4 {
		t.Errorf("merged skb has %d pages, want 4", len(s.Pages))
	}
}

func TestGRODoesNotMergeAcrossFlows(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	g.Receive(ch, frame(1, 0, 1500), nil)
	g.Receive(ch, frame(2, 0, 1500), nil)
	flushed := g.Flush(nil)
	if len(flushed) != 2 {
		t.Fatalf("want 2 separate skbs, got %d", len(flushed))
	}
	for _, s := range flushed {
		if s.Frames != 1 {
			t.Errorf("cross-flow merge happened: %v", s)
		}
	}
}

func TestGROFlushesOnGap(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	g.Receive(ch, frame(1, 0, 1500), nil)
	out := g.Receive(ch, frame(1, 3000, 1500), nil) // gap: 1500..3000 missing
	if len(out) != 1 || out[0].Len != 1500 || out[0].Seq != 0 {
		t.Fatalf("gap should flush the old entry, got %v", out)
	}
	flushed := g.Flush(nil)
	if len(flushed) != 1 || flushed[0].Seq != 3000 {
		t.Fatalf("new entry should hold the post-gap frame, got %v", flushed)
	}
}

func TestGROCapsAt64KB(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	var done []*SKB
	var seq int64
	// 16 frames of 4096B = 64KB exactly: the 16th completes the aggregate.
	for i := 0; i < 16; i++ {
		done = append(done, g.Receive(ch, frame(1, seq, 4096), nil)...)
		seq += 4096
	}
	if len(done) != 1 {
		t.Fatalf("expected completed 64KB skb, got %d", len(done))
	}
	if done[0].Len != MaxGROSize || done[0].Frames != 16 {
		t.Errorf("aggregate = %v", done[0])
	}
	if g.Held() != 0 {
		t.Errorf("completed aggregate should leave no held entry, Held=%d", g.Held())
	}
}

func TestGROOverflowStartsNewEntry(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	var out []*SKB
	var seq int64
	// 9000B jumbo frames: 7*9000=63000; the 8th would exceed 65536 so the
	// 63000 entry flushes and a fresh one starts.
	for i := 0; i < 8; i++ {
		out = append(out, g.Receive(ch, frame(1, seq, 9000), nil)...)
		seq += 9000
	}
	if len(out) != 1 || out[0].Len != 63000 || out[0].Frames != 7 {
		t.Fatalf("expected flushed 63000B skb, got %v", out)
	}
	rest := g.Flush(nil)
	if len(rest) != 1 || rest[0].Len != 9000 {
		t.Fatalf("remainder = %v", rest)
	}
}

func TestGROEvictsOldestFlowBeyondCapacity(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	for fl := FlowID(0); fl < MaxGROFlows; fl++ {
		if out := g.Receive(ch, frame(fl, 0, 1500), nil); len(out) != 0 {
			t.Fatalf("flow %d should be held", fl)
		}
	}
	out := g.Receive(ch, frame(99, 0, 1500), nil)
	if len(out) != 1 || out[0].Flow != 0 {
		t.Fatalf("9th flow should evict flow 0, got %v", out)
	}
	if g.Held() != MaxGROFlows {
		t.Errorf("Held = %d, want %d", g.Held(), MaxGROFlows)
	}
}

func TestGROPureAckBypasses(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	g.Receive(ch, frame(1, 0, 1500), nil)
	ack := &Frame{Flow: 1, Ack: &AckInfo{Cum: 100, Window: 1000}}
	out := g.Receive(ch, ack, nil)
	if len(out) != 1 || out[0].Ack == nil {
		t.Fatalf("ACK should pass straight through, got %v", out)
	}
	if g.Held() != 1 {
		t.Error("ACK must not disturb held data entries")
	}
}

func TestGROChargesNetdev(t *testing.T) {
	g := newTestGRO()
	var ch tally
	g.Receive(&ch, frame(1, 0, 1500), nil)
	g.Receive(&ch, frame(1, 1500, 1500), nil)
	if ch.got[cpumodel.Netdev] == 0 {
		t.Error("GRO work should charge Netdev")
	}
}

func TestGROCEPropagates(t *testing.T) {
	g := newTestGRO()
	ch := cpumodel.Discard{}
	g.Receive(ch, frame(1, 0, 1500), nil)
	f := frame(1, 1500, 1500)
	f.CE = true
	g.Receive(ch, f, nil)
	out := g.Flush(nil)
	if len(out) != 1 || !out[0].CE {
		t.Error("CE mark should survive merging")
	}
}

// Property: over any frame arrival pattern, GRO conserves bytes and frame
// counts, never merges across flows, never exceeds MaxGROSize, and every
// output skb covers a contiguous range.
func TestPropertyGROConservation(t *testing.T) {
	f := func(flows []uint8, lens []uint16) bool {
		g := newTestGRO()
		ch := cpumodel.Discard{}
		nextSeq := map[FlowID]int64{}
		inBytes := map[FlowID]units.Bytes{}
		inFrames := 0
		var outs []*SKB
		n := len(flows)
		if len(lens) < n {
			n = len(lens)
		}
		for i := 0; i < n; i++ {
			fl := FlowID(flows[i] % 12)
			l := units.Bytes(lens[i]%9000) + 1
			fr := frame(fl, nextSeq[fl], l)
			nextSeq[fl] += int64(l)
			inBytes[fl] += l
			inFrames++
			outs = append(outs, g.Receive(ch, fr, nil)...)
		}
		outs = append(outs, g.Flush(nil)...)
		outBytes := map[FlowID]units.Bytes{}
		outFrames := 0
		for _, s := range outs {
			if s.Len > MaxGROSize || s.Len <= 0 {
				return false
			}
			outBytes[s.Flow] += s.Len
			outFrames += s.Frames
		}
		if outFrames != inFrames {
			return false
		}
		for fl, b := range inBytes {
			if outBytes[fl] != b {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Interleaving many flows produces smaller aggregates than a single flow —
// the Fig. 8c effect at the GRO level.
func TestInterleavingShrinksAggregates(t *testing.T) {
	avg := func(nflows int) float64 {
		g := newTestGRO()
		ch := cpumodel.Discard{}
		seq := make([]int64, nflows)
		var outs []*SKB
		for round := 0; round < 240; round++ {
			fl := round % nflows
			outs = append(outs, g.Receive(ch, frame(FlowID(fl), seq[fl], 4096), nil)...)
			seq[fl] += 4096
			if round%16 == 15 { // NAPI poll boundary every 16 frames
				outs = append(outs, g.Flush(nil)...)
			}
		}
		outs = append(outs, g.Flush(nil)...)
		var total units.Bytes
		for _, s := range outs {
			total += s.Len
		}
		return float64(total) / float64(len(outs))
	}
	one := avg(1)
	many := avg(16)
	if one < 4*float64(many) {
		t.Errorf("single-flow aggregates (%.0fB) should dwarf 16-flow ones (%.0fB)", one, many)
	}
}

type tally struct{ got cpumodel.Breakdown }

func (t *tally) Charge(cat cpumodel.Category, c units.Cycles) { t.got.Add(cat, c) }

func TestPoolRecyclesSKBs(t *testing.T) {
	p := &Pool{}
	f := &Frame{Flow: 3, Seq: 100, Len: 500, CE: true,
		Pages: []mem.Page{{ID: 1}, {ID: 2}}, Born: 7}
	s := p.Get(f)
	if s.Flow != 3 || s.Seq != 100 || s.Len != 500 || !s.CE || s.Frames != 1 || s.Born != 7 {
		t.Fatalf("Get produced wrong skb: %+v", s)
	}
	if len(s.Pages) != 2 || s.Pages[0].ID != 1 {
		t.Fatalf("Get did not carry pages: %+v", s.Pages)
	}
	// Pool Gets copy the page refs; mutating the frame's slice must not
	// corrupt the SKB.
	f.Pages[0] = mem.Page{ID: 99}
	if s.Pages[0].ID != 1 {
		t.Error("Get aliased the frame's page slice")
	}
	p.Put(s)
	if len(p.free) != 1 {
		t.Fatalf("Held = %d, want 1", len(p.free))
	}
	s2 := p.Get(&Frame{Flow: 4, Seq: 0, Len: 10})
	if s2 != s {
		t.Error("Get did not reuse the pooled struct")
	}
	if s2.Ack != nil || s2.CE || len(s2.Pages) != 0 || s2.Flow != 4 {
		t.Errorf("recycled skb carries stale state: %+v", s2)
	}
	if p.Recycled != 1 || p.Fresh != 1 {
		t.Errorf("counters = recycled %d fresh %d, want 1/1", p.Recycled, p.Fresh)
	}
}

// Fresh skbs come out of blocks: the first skbBlockLen are consecutive
// slots of one block, each distinct, and the next starts a new block.
// Recycling is unchanged: Get hands back the last skb put, before any
// block slot, and the counters see only skbs.
func TestPoolCarvesFreshSKBsFromBlocks(t *testing.T) {
	p := &Pool{}
	f := &Frame{Flow: 1, Len: 100, Pages: []mem.Page{{ID: 7}}}
	first := p.Get(f)
	rest := p.block // the first block after its slot 0
	if len(rest) != skbBlockLen-1 {
		t.Fatalf("first block has %d slots left, want %d", len(rest), skbBlockLen-1)
	}
	seen := map[*SKB]bool{first: true}
	for i := range rest {
		s := p.Get(f)
		if s != &rest[i] || seen[s] {
			t.Fatalf("fresh skb %d is not the first block's next slot", i+1)
		}
		seen[s] = true
	}
	next := p.Get(f)
	if seen[next] || len(p.block) != skbBlockLen-1 {
		t.Fatalf("skb %d did not start a new block (%d slots left)", skbBlockLen+1, len(p.block))
	}
	for s := range seen {
		if len(s.Pages) != 1 || s.Pages[0].ID != 7 || s.Flow != 1 {
			t.Fatalf("carved skb not built from its frame: %+v", s)
		}
	}
	first.Pages[0] = mem.Page{ID: 99}
	if rest[0].Pages[0].ID != 7 {
		t.Error("skbs of one block share page storage")
	}

	p.Put(first)
	p.Put(next)
	if p.Get(f) != next || p.Get(f) != first {
		t.Error("Get did not recycle the put skbs last-in first-out")
	}
	if s := p.Get(f); seen[s] {
		t.Error("Get after the recycled skbs returned an skb already handed out")
	}
	if want := int64(skbBlockLen + 2); p.Fresh != want || p.Recycled != 2 || p.Outstanding() != want {
		t.Errorf("Fresh %d Recycled %d Outstanding %d, want %d, 2, %d", p.Fresh, p.Recycled, p.Outstanding(), want, want)
	}
}

func TestPoolGetCopiesPages(t *testing.T) {
	p := &Pool{}
	p.Put(&SKB{}) // ensure the recycled path
	f := &Frame{Flow: 1, Len: 100, Pages: []mem.Page{{ID: 5}}}
	s := p.Get(f)
	f.Pages[0] = mem.Page{ID: 42}
	if s.Pages[0].ID != 5 {
		t.Error("pooled Get aliased the frame's page slice")
	}
}

func TestFramePoolClearsState(t *testing.T) {
	fp := &FramePool{}
	f := &Frame{Flow: 9, Seq: 5, Len: 3, CE: true, Born: 11,
		Ack: &AckInfo{Cum: 1}, Pages: []mem.Page{{ID: 1}}}
	fp.Put(f)
	g := fp.Get()
	if g != f {
		t.Fatal("FramePool did not recycle the struct")
	}
	if g.Flow != 0 || g.Seq != 0 || g.Len != 0 || g.CE || g.Born != 0 || g.Ack != nil || len(g.Pages) != 0 {
		t.Errorf("recycled frame carries stale state: %+v", g)
	}
	if cap(g.Pages) == 0 {
		t.Error("recycled frame should keep its page-slice capacity")
	}
}

// Fresh frames come out of blocks, but the counters see only frames:
// Held counts recycled frames, never a block's uncarved tail, and every
// Get and Put moves Outstanding by one.
func TestFramePoolBlocksKeepCounters(t *testing.T) {
	fp := &FramePool{}
	n := frameBlockLen + 3 // spill into a second block
	frames := make([]*Frame, n)
	seen := map[*Frame]bool{}
	for i := range frames {
		frames[i] = fp.Get()
		if seen[frames[i]] {
			t.Fatalf("Get %d returned a frame already handed out", i)
		}
		seen[frames[i]] = true
		if len(fp.free) != 0 || fp.Outstanding() != int64(i+1) {
			t.Fatalf("after Get %d: Held=%d Outstanding=%d, want 0 and %d",
				i, len(fp.free), fp.Outstanding(), i+1)
		}
	}
	for i, f := range frames {
		fp.Put(f)
		if len(fp.free) != i+1 || fp.Outstanding() != int64(n-i-1) {
			t.Fatalf("after Put %d: Held=%d Outstanding=%d, want %d and %d",
				i, len(fp.free), fp.Outstanding(), i+1, n-i-1)
		}
	}
	if f := fp.Get(); f != frames[n-1] || len(fp.free) != n-1 {
		t.Errorf("Get after Puts should recycle the last frame put (Held=%d)", len(fp.free))
	}
	if fp.Gets != int64(n+1) || fp.Puts != int64(n) {
		t.Errorf("Gets=%d Puts=%d, want %d and %d", fp.Gets, fp.Puts, n+1, n)
	}
}

// GRO with pools: frames are recycled as they are absorbed and steady
// state allocates nothing once the pools are primed.
func TestGROPooledRecyclesFrames(t *testing.T) {
	skbs, frames := &Pool{}, &FramePool{}
	g := NewGRO(cpumodel.Default(), skbs, frames)
	ch := cpumodel.Discard{}
	var seq int64
	for i := 0; i < 10; i++ {
		f := frames.Get()
		f.Flow, f.Seq, f.Len = 1, seq, 8934
		seq += 8934
		for _, s := range g.Receive(ch, f, nil) {
			skbs.Put(s)
		}
	}
	for _, s := range g.Flush(nil) {
		skbs.Put(s)
	}
	// Each Receive recycles the frame and the next Get reuses it, so a
	// single Frame struct serves the whole stream.
	if len(frames.free) != 1 {
		t.Errorf("frames held = %d, want 1 (one struct circulating)", len(frames.free))
	}
	// Steady state: no allocations per frame.
	allocs := testing.AllocsPerRun(200, func() {
		f := frames.Get()
		f.Flow, f.Seq, f.Len = 1, seq, 8934
		seq += 8934
		for _, s := range g.Receive(ch, f, nil) {
			skbs.Put(s)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled GRO fast path allocates %v per frame, want 0", allocs)
	}
}

// gro is one held or emitted aggregate of the GRO merge model.
type gro struct {
	flow   FlowID
	seq    int64
	length units.Bytes
	frames int
	pages  int
	ack    bool
	ce     bool
}

// groModel is GRO's merge rule with no pools and no recycling: one held
// aggregate per flow, in arrival order, at most MaxGROFlows of them.
type groModel struct{ held []gro }

// receive offers one frame and returns the aggregates it flushes.
func (m *groModel) receive(f gro) []gro {
	if f.ack {
		return []gro{f}
	}
	var out []gro
	for i, e := range m.held {
		if e.flow != f.flow {
			continue
		}
		if e.seq+int64(e.length) == f.seq && e.length+f.length <= MaxGROSize {
			e.length += f.length
			e.frames++
			e.pages += f.pages
			e.ce = e.ce || f.ce
			m.held[i] = e
			if e.length == MaxGROSize {
				out = append(out, m.take(i))
			}
			return out
		}
		out = append(out, m.take(i))
		m.held = append(m.held, f)
		return out
	}
	if len(m.held) >= MaxGROFlows {
		out = append(out, m.take(0))
	}
	m.held = append(m.held, f)
	return out
}

func (m *groModel) take(i int) gro {
	e := m.held[i]
	m.held = append(m.held[:i], m.held[i+1:]...)
	return e
}

func (m *groModel) flush() []gro {
	out := m.held
	m.held = nil
	return out
}

// TestGROPooledMatchesUnpooled drives GRO, which builds its SKBs from a
// pool and recycles every frame it absorbs, and the unpooled merge model
// with one random stream: 11 flows (more than MaxGROFlows, so entries
// evict), sequence gaps, CE marks, pure ACKs and flushes at random poll
// boundaries. Flow 0 carries most frames, all 4096 B, so its aggregates
// reach exactly MaxGROSize; flows 1-3 send jumbo frames, which overflow
// it, and the rest random sizes. Every emitted SKB must equal the
// model's aggregate, and the pools must end balanced.
func TestGROPooledMatchesUnpooled(t *testing.T) {
	skbs, fp := &Pool{}, &FramePool{}
	g := NewGRO(cpumodel.Default(), skbs, fp)
	ch := cpumodel.Discard{}
	var model groModel
	rng := rand.New(rand.NewSource(5))
	seqs := map[FlowID]int64{}
	emitted, full := 0, 0
	check := func(got []*SKB, want []gro) {
		t.Helper()
		for _, w := range want {
			if w.length == MaxGROSize {
				full++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("after %d skbs: GRO emitted %d, model %d", emitted, len(got), len(want))
		}
		for i, s := range got {
			have := gro{s.Flow, s.Seq, s.Len, s.Frames, len(s.Pages), s.Ack != nil, s.CE}
			if have != want[i] {
				t.Fatalf("skb %d: GRO %+v, model %+v", emitted+i, have, want[i])
			}
			skbs.Put(s)
		}
		emitted += len(got)
	}
	for i := 0; i < 3000; i++ {
		fl := FlowID(0)
		if rng.Intn(3) == 0 {
			fl = FlowID(1 + rng.Intn(10))
		}
		f := fp.Get()
		f.Flow = fl
		if rng.Intn(10) == 0 {
			f.Ack = &AckInfo{Cum: seqs[fl]}
		} else {
			if rng.Intn(50) == 0 {
				seqs[fl] += 100 // a gap: the held entry flushes
			}
			l := units.Bytes(4096)
			switch {
			case fl >= 4:
				l = units.Bytes(1 + rng.Intn(4000))
			case fl >= 1:
				l = 8934
			}
			f.Seq, f.Len, f.CE = seqs[fl], l, rng.Intn(8) == 0
			f.Pages = append(f.Pages, make([]mem.Page, 1+int(l)/4096)...)
			seqs[fl] += int64(l)
		}
		want := model.receive(gro{f.Flow, f.Seq, f.Len, 1, len(f.Pages), f.Ack != nil, f.CE})
		check(g.Receive(ch, f, nil), want)
		if rng.Intn(60) == 0 {
			check(g.Flush(nil), model.flush())
		}
	}
	check(g.Flush(nil), model.flush())
	if full == 0 {
		t.Error("no aggregate reached MaxGROSize; the stream misses the full-aggregate flush")
	}
	if skbs.Outstanding() != 0 || fp.Outstanding() != 0 {
		t.Errorf("pools unbalanced: %d skbs and %d frames outstanding", skbs.Outstanding(), fp.Outstanding())
	}
}
