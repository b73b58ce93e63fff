package mtrace

import (
	"reflect"
	"testing"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/tcp"
	"hostsim/internal/units"
)

// cycler drives one flow of 100-byte messages through write → segment →
// deliver, one message at a time, reusing a single SKB.
type cycler struct {
	tr   *Tracer
	s    skb.SKB
	off  int64
	base sim.Time
}

// cycle completes one message of the given latency, with one segment
// (retransmitted too when retx is set).
func (c *cycler) cycle(latency sim.Time, retx bool) {
	w := c.base + 1
	tx := w + 1
	c.tr.OnWrite(1, 100, w)
	c.tr.OnSegment(1, c.off, 100, false, tx)
	if retx {
		tx += 2
		c.tr.OnSegment(1, c.off, 100, true, tx)
	}
	c.s = skb.SKB{
		Flow: 1, Seq: c.off, Len: 100,
		TCPTxAt: tx, NICTxAt: tx + 1, WireAt: tx + 2,
		Born: tx + 3, GROAt: tx + 4, TCPRxAt: tx + 5,
	}
	read := tx + 5 + latency
	c.tr.OnDeliver(&c.s, read)
	c.off += 100
	c.base = read
}

// newWarmCycler returns a tracer whose exemplar heap is full of slow
// messages and whose record cap is reached, so later fast messages are
// neither admitted nor retained.
func newWarmCycler(slowest int) *cycler {
	c := &cycler{tr: New(Options{MsgBytes: []units.Bytes{1: 100}, Slowest: slowest})}
	c.tr.maxRecs = 1
	for i := 0; i < slowest; i++ {
		c.cycle(1000, true)
	}
	c.cycle(1, false)
	return c
}

// Once warm, a message that is not admitted as an exemplar costs no
// allocation: its *message comes from the free list with its segment
// capacity, and the in-flight and first-tx logs reuse their arrays.
func TestTracerCycleAllocationFree(t *testing.T) {
	c := newWarmCycler(2)
	if allocs := testing.AllocsPerRun(100, func() { c.cycle(1, false) }); allocs != 0 {
		t.Errorf("warm write→segment→deliver cycle allocates %v per message, want 0", allocs)
	}
	if n := c.tr.Summary().Count; n != 2+1+101 {
		t.Fatalf("histogram saw %d messages, want %d", n, 2+1+101)
	}
}

// An admitted exemplar keeps its segments and recovery events after its
// *message goes back to the free list and is reused by later messages.
func TestExemplarSurvivesMessageReuse(t *testing.T) {
	c := &cycler{tr: New(Options{MsgBytes: []units.Bytes{1: 100}, Slowest: 1})}
	probe := c.tr.ProbeHook()
	probe(tcp.ProbeEvent{At: 3, Flow: 1, Kind: tcp.ProbeRetransmit})
	c.cycle(1000, true)
	ex := c.tr.Exemplars()
	if len(ex) != 1 || len(ex[0].Segs) != 2 || len(ex[0].Events) != 1 {
		t.Fatalf("slow message not kept with its detail: %+v", ex)
	}
	segs := append([]SegmentSpan(nil), ex[0].Segs...)
	events := append([]Recovery(nil), ex[0].Events...)
	for i := 0; i < 10; i++ {
		probe(tcp.ProbeEvent{At: c.base + 1, Flow: 1, Kind: tcp.ProbeRTO})
		c.cycle(1, true)
	}
	after := c.tr.Exemplars()
	if len(after) != 1 || after[0] != ex[0] {
		t.Fatalf("a faster message displaced the slow exemplar: %+v", after)
	}
	if !reflect.DeepEqual(after[0].Segs, segs) || !reflect.DeepEqual(after[0].Events, events) {
		t.Errorf("exemplar detail changed under message reuse:\n segs %+v, want %+v\n events %+v, want %+v",
			after[0].Segs, segs, after[0].Events, events)
	}
}

func BenchmarkTracerCycle(b *testing.B) {
	c := newWarmCycler(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.cycle(1, i%4 == 0)
	}
}
