package tcp

import (
	"slices"
	"testing"
	"time"

	"hostsim/internal/cache"
	"hostsim/internal/exec"
	"hostsim/internal/mem"
	"hostsim/internal/units"
)

// fillSlab appends n pages with ids from first on to s.
func fillSlab(s []mem.Page, first, n int) []mem.Page {
	for i := 0; i < n; i++ {
		s = append(s, mem.MakePage(cache.PageID(first+i), 0))
	}
	return s
}

// A fresh slab is empty and has room for exactly the pages asked for.
func TestPageSlabCapacityExact(t *testing.T) {
	_, c := bareConn(t)
	for _, n := range []int{1, 3, 8, 17, 5, 128, 200, 2} {
		s := c.PageSlab(n)
		if len(s) != 0 || cap(s) != n {
			t.Errorf("PageSlab(%d): len %d cap %d, want 0 and %d", n, len(s), cap(s), n)
		}
	}
}

// Slabs cut from one block do not overlap: appending past a full slab
// moves it elsewhere instead of writing into the slab cut after it.
func TestPageSlabAppendNeverOverlaps(t *testing.T) {
	_, c := bareConn(t)
	a := fillSlab(c.PageSlab(3), 0, 3)
	b := fillSlab(c.PageSlab(4), 100, 4)
	a = append(a, mem.MakePage(999, 0))
	for i, p := range b {
		if p.ID() != cache.PageID(100+i) {
			t.Fatalf("appending to a full slab overwrote the next slab: b[%d] = %d, want %d", i, p.ID(), 100+i)
		}
	}
	if len(a) != 4 || a[3].ID() != 999 {
		t.Errorf("append to a full slab lost a page: %v", a)
	}
}

// The last released slab is reused when it holds the pages asked for. A
// smaller one is dropped, not kept for later: the next slab is fresh and
// the free list is empty.
func TestPageSlabDropsTooSmallSlab(t *testing.T) {
	_, c := bareConn(t)
	small := fillSlab(c.PageSlab(2), 0, 2)
	c.slabFree = append(c.slabFree, small[:0])
	s := c.PageSlab(3)
	if cap(s) != 3 || len(c.slabFree) != 0 {
		t.Fatalf("PageSlab(3) after a 2-page release: cap %d, %d slabs kept; want a fresh 3-page slab and none kept", cap(s), len(c.slabFree))
	}
	if s = fillSlab(s, 10, 3); small[0].ID() != 0 || small[1].ID() != 1 {
		t.Error("the fresh slab shares storage with the dropped one")
	}
	c.slabFree = append(c.slabFree, s[:0])
	if r := c.PageSlab(2); cap(r) != 3 || &r[:1][0] != &s[0] {
		t.Errorf("PageSlab(2) did not reuse the released 3-page slab (cap %d)", cap(r))
	}
}

// A new block holds max(n, min(max(cut, 8), 128)) pages, where cut is
// what the connection has cut so far: the first blocks are small, then
// each doubles what is cut, up to 2 KB; a slab larger than that gets a
// block of its own size.
func TestPageSlabBlockSizes(t *testing.T) {
	for _, c := range []struct {
		name   string
		writes []int // pages per PageSlab call, repeated until blocks are seen
		calls  int
		want   []int
	}{
		{"one-page", []int{1}, 300, []int{8, 8, 16, 32, 64, 128, 128}},
		{"large-first", []int{200, 1}, 2, []int{200, 128}},
		{"eight-page", []int{8}, 40, []int{8, 8, 16, 32, 64, 128, 128}},
		{"twenty-page", []int{20}, 4, []int{20, 20, 40}},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, conn := bareConn(t)
			var blocks []int
			for i := 0; i < c.calls; i++ {
				n := c.writes[i%len(c.writes)]
				fresh := len(conn.slabBlock) < n
				conn.PageSlab(n)
				if fresh {
					blocks = append(blocks, len(conn.slabBlock)+n)
				}
			}
			if len(blocks) > len(c.want) {
				blocks = blocks[:len(c.want)]
			}
			if !slices.Equal(blocks, c.want) {
				t.Errorf("blocks %v, want %v", blocks, c.want)
			}
		})
	}
}

// sendAckCycle returns one round of the sender's Write -> ack -> Write
// cycle on p.a: it fills the send buffer with 32 KB writes, each backed by
// a PageSlab slab, then acks everything sent until every byte is acked.
// Segments go nowhere; the acks are fed straight to the connection.
func sendAckCycle(tb testing.TB, p *pipe) func(ctx *exec.Ctx) {
	snd := p.a
	p.ea.mute = true
	const chunk = 32 * units.KB
	pages := int(chunk / (4 * units.KB))
	ack := p.frames.GetAck()
	return func(ctx *exec.Ctx) {
		writes := 0
		for snd.SndBufFree() >= chunk {
			snd.SendData(ctx, chunk, fillSlab(snd.PageSlab(pages), 0, pages))
			writes++
		}
		for snd.sndUna < snd.appLimit {
			ack.Cum, ack.Window = snd.sndNxt, snd.cfg.SndBuf
			snd.onAck(ctx, ack)
		}
		if writes == 0 || snd.chunks.Len() != 0 {
			tb.Fatalf("cycle wrote %d chunks and left %d unacked", writes, snd.chunks.Len())
		}
	}
}

// sendAckWarmup is how many cycles warm a connection up: the first cuts
// the slabs, and the second, with the window grown to the whole buffer,
// releases all of it at once and so sizes releaseAcked's page buffer.
const sendAckWarmup = 4

// Once warm, filling the send buffer and acking it allocates nothing:
// every write takes back a released slab. The count is the total over 20
// cycles, so a single allocation anywhere among them fails the test.
func TestSendAckCycleAllocatesNothing(t *testing.T) {
	p := newPipe(t, 87, "cubic", 8934, nil, 0)
	cycle := sendAckCycle(t, p)
	var allocs float64
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		for i := 0; i < sendAckWarmup; i++ {
			cycle(ctx)
		}
		allocs = testing.AllocsPerRun(1, func() {
			for i := 0; i < 20; i++ {
				cycle(ctx)
			}
		})
	})
	p.run(time.Millisecond)
	if allocs != 0 {
		t.Errorf("20 steady-state send/ack cycles allocate %v objects, want 0", allocs)
	}
}

// BenchmarkSendAckCycle measures one fill of a 4 MB send buffer with
// 32 KB writes and the acks that release it. It reports 0 allocs/op.
func BenchmarkSendAckCycle(b *testing.B) {
	p := newPipe(b, 87, "cubic", 8934, nil, 0)
	cycle := sendAckCycle(b, p)
	b.ReportAllocs()
	p.sys.Core(1).RaiseSoftirq(func(ctx *exec.Ctx) {
		for i := 0; i < sendAckWarmup; i++ {
			cycle(ctx)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(ctx)
		}
		b.StopTimer()
	})
	p.run(time.Millisecond)
}
