package mtrace

import (
	"bytes"
	"strings"
	"testing"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/telemetry"
	"hostsim/internal/units"
)

// deliver feeds one fully-stamped data SKB covering [seq, seq+n) with a
// base timestamp: tx at base, then one tick per stage hop.
func deliver(t *Tracer, flow skb.FlowID, seq, n int64, txAt, readAt sim.Time) {
	s := &skb.SKB{
		Flow: flow, Seq: seq, Len: units.Bytes(n),
		TCPTxAt: txAt, NICTxAt: txAt + 1, WireAt: txAt + 2,
		Born: txAt + 3, GROAt: txAt + 4, TCPRxAt: txAt + 5,
	}
	t.OnDeliver(s, readAt)
}

func newFlowTracer(msgBytes int64) *Tracer {
	return New(Options{MsgBytes: []units.Bytes{1: units.Bytes(msgBytes)}})
}

func TestTelescopingSimple(t *testing.T) {
	tr := newFlowTracer(100)
	tr.OnWrite(1, 100, 10)
	tr.OnSegment(1, 0, 100, false, 20)
	deliver(tr, 1, 0, 100, 20, 80)
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (dropped %d)", len(recs), tr.dropped)
	}
	r := recs[0]
	if r.Total != 70 {
		t.Fatalf("total = %d, want 70", r.Total)
	}
	var sum int64
	for _, v := range r.Stages {
		sum += v
	}
	if sum != r.Total {
		t.Fatalf("stage sum %d != total %d", sum, r.Total)
	}
	if r.Stages[0] != 10 { // sndbuf: write 10 → first tx 20
		t.Fatalf("sndbuf = %d, want 10", r.Stages[0])
	}
	if r.Stages[1] != 0 { // no retransmission
		t.Fatalf("retx_wait = %d, want 0", r.Stages[1])
	}
}

func TestRetransmitWait(t *testing.T) {
	tr := newFlowTracer(100)
	tr.OnWrite(1, 100, 10)
	tr.OnSegment(1, 0, 100, false, 20) // first transmission, lost
	tr.OnSegment(1, 0, 100, true, 120) // retransmission arrives
	deliver(tr, 1, 0, 100, 120, 180)
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records (dropped %d)", len(recs), tr.dropped)
	}
	r := recs[0]
	if r.Stages[1] != 100 { // retx_wait: first tx 20 → arriving tx 120
		t.Fatalf("retx_wait = %d, want 100", r.Stages[1])
	}
	if r.Stages[0] != 10 {
		t.Fatalf("sndbuf = %d, want 10", r.Stages[0])
	}
	ex := tr.Exemplars()
	if len(ex) != 1 || len(ex[0].Segs) != 2 || !ex[0].Segs[1].Retrans {
		t.Fatalf("exemplar should carry both transmissions: %+v", ex)
	}
}

func TestGROSpanningMessages(t *testing.T) {
	tr := newFlowTracer(100)
	tr.OnWrite(1, 300, 5) // three messages in one write
	tr.OnSegment(1, 0, 100, false, 10)
	tr.OnSegment(1, 100, 100, false, 12)
	tr.OnSegment(1, 200, 100, false, 14)
	// One GRO aggregate delivers all three; stamps inherit the first frame.
	deliver(tr, 1, 0, 300, 10, 90)
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3 (dropped %d)", len(recs), tr.dropped)
	}
	for _, r := range recs {
		var sum int64
		for _, v := range r.Stages {
			sum += v
		}
		if sum != r.Total || r.Total != 85 {
			t.Fatalf("record %d: sum %d total %d", r.ID, sum, r.Total)
		}
	}
}

func TestIncompleteStampsDropped(t *testing.T) {
	tr := newFlowTracer(100)
	tr.OnWrite(1, 100, 10)
	tr.OnSegment(1, 0, 100, false, 20)
	s := &skb.SKB{Flow: 1, Seq: 0, Len: 100, TCPTxAt: 20} // missing the rest
	tr.OnDeliver(s, 80)
	if len(tr.Records()) != 0 || tr.dropped != 1 {
		t.Fatalf("records %d dropped %d, want 0/1", len(tr.Records()), tr.dropped)
	}
}

func TestUntracedFlowIgnored(t *testing.T) {
	tr := newFlowTracer(100)
	tr.OnWrite(7, 100, 10)
	tr.OnSegment(7, 0, 100, false, 20)
	deliver(tr, 7, 0, 100, 20, 80)
	if len(tr.Records()) != 0 || tr.dropped != 0 {
		t.Fatal("untraced flow must not contribute")
	}
	var nilT *Tracer
	nilT.OnWrite(1, 100, 10)
	nilT.OnSegment(1, 0, 100, false, 20)
	nilT.OnDeliver(&skb.SKB{Flow: 1, Len: 100}, 30)
	if nilT.Summary().Count != 0 || nilT.Exemplars() != nil || nilT.ProbeHook() != nil {
		t.Fatal("nil tracer must no-op")
	}
}

func TestBandsAndExemplars(t *testing.T) {
	tr := New(Options{
		MsgBytes: []units.Bytes{1: 100},
		Slowest:  4,
	})
	// 2000 messages with strictly increasing latency.
	var off int64
	base := sim.Time(0)
	for i := 0; i < 2000; i++ {
		w := base + 1
		tx := w + 1
		read := tx + 10 + sim.Time(i) // total grows with i
		tr.OnWrite(1, 100, w)
		tr.OnSegment(1, off, 100, false, tx)
		deliver(tr, 1, off, 100, tx, read)
		off += 100
		base = read
	}
	s := tr.Summary()
	if s.Count != 2000 || s.Dropped != 0 {
		t.Fatalf("count %d dropped %d", s.Count, s.Dropped)
	}
	var bandSum int64
	for i, b := range s.Bands {
		bandSum += b.Count
		if i > 0 && b.Count > 0 && b.MeanTotal < s.Bands[i-1].MeanTotal {
			t.Fatalf("band %s mean %d below previous band", b.Name, b.MeanTotal)
		}
	}
	if bandSum != 2000 {
		t.Fatalf("band counts sum to %d, want 2000", bandSum)
	}
	if last := s.Bands[len(s.Bands)-1]; last.Count != 2 || last.Name != "p999-max" {
		t.Fatalf("p999-max band: %+v", last)
	}
	ex := tr.Exemplars()
	if len(ex) != 4 {
		t.Fatalf("kept %d exemplars, want 4", len(ex))
	}
	for i := 1; i < len(ex); i++ {
		if ex[i].Total > ex[i-1].Total {
			t.Fatal("exemplars not sorted slowest first")
		}
	}
	if ex[0].ID != 1999 {
		t.Fatalf("slowest exemplar is msg %d, want 1999", ex[0].ID)
	}
	// The formatted report is stable, includes canonical stage names and
	// renders through the shared trace writer without error.
	text := s.Format()
	for _, want := range []string{"retx_wait", "sock_queue", "p999-max", "messages 2000"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeSpans(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "slow01") {
		t.Fatal("span export missing the slowest exemplar process")
	}
}

func TestRecordCap(t *testing.T) {
	tr := New(Options{MsgBytes: []units.Bytes{1: 100}})
	tr.maxRecs = 3
	var off int64
	for i := 0; i < 5; i++ {
		w := sim.Time(1 + i*100)
		tr.OnWrite(1, 100, w)
		tr.OnSegment(1, off, 100, false, w+1)
		deliver(tr, 1, off, 100, w+1, w+50)
		off += 100
	}
	if len(tr.Records()) != 3 || tr.truncated != 2 {
		t.Fatalf("records %d truncated %d, want 3/2", len(tr.Records()), tr.truncated)
	}
	if tr.Summary().Count != 5 {
		t.Fatal("histogram must still see truncated completions")
	}
}
