package trace

import (
	"slices"
	"strings"
	"testing"

	"hostsim/internal/sim"
	"hostsim/internal/skb"
)

func ev(at int64, flow skb.FlowID, k Kind) Event {
	return Event{At: sim.Time(at), Host: "rcv", Core: 0, Flow: flow, Kind: k, A: at, B: 100}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.FilterFlow(3)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer must be a pure no-op")
	}
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil || sb.Len() != 0 {
		t.Error("nil tracer Dump should write nothing")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	tr := New(3)
	for i := int64(1); i <= 5; i++ {
		tr.Emit(ev(i, 1, AppRead))
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, want := range []int64{3, 4, 5} {
		if got[i].A != want {
			t.Errorf("event %d = %d, want %d (oldest first)", i, got[i].A, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tr.Dropped())
	}
}

func TestOrderBeforeWrap(t *testing.T) {
	tr := New(10)
	for i := int64(1); i <= 4; i++ {
		tr.Emit(ev(i, 1, TxSegment))
	}
	got := tr.Events()
	if len(got) != 4 || got[0].A != 1 || got[3].A != 4 {
		t.Errorf("events = %v", got)
	}
}

func TestFlowFilter(t *testing.T) {
	tr := New(10)
	tr.FilterFlow(7)
	tr.Emit(ev(1, 7, AppWrite))
	tr.Emit(ev(2, 8, AppWrite))
	tr.Emit(ev(3, 7, AckSent))
	if n := len(tr.Events()); n != 2 {
		t.Fatalf("%d events, want 2 (flow filter)", n)
	}
	for _, e := range tr.Events() {
		if e.Flow != 7 {
			t.Errorf("flow %d leaked through the filter", e.Flow)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		AppWrite: "app-write", AppRead: "app-read", TxSegment: "tx-segment",
		Retransmit: "retransmit", DeliverSKB: "deliver-skb", AckSent: "ack-sent",
		Drop: "drop", GROFlush: "gro-flush",
		SoftirqStart: "softirq-start", SoftirqEnd: "softirq-end",
		ThreadStart: "thread-start", ThreadEnd: "thread-end",
		Kind(99): "invalid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// Every declared kind must have a distinct, non-empty name: the names are
// the public identifiers in Result.Trace and the Chrome-trace export.
func TestKindNamesCompleteAndUnique(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || s == "invalid" {
			t.Errorf("kind %d has no name", k)
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
}

func TestSpanAndNICEventFormats(t *testing.T) {
	cases := []struct {
		e    Event
		want []string
	}{
		{Event{Host: "snd", Core: 1, Kind: SoftirqStart, A: 3, B: 12345},
			[]string{"softirq-start", "cat=3", "cyc=12345"}},
		{Event{Host: "snd", Core: 1, Kind: ThreadEnd, A: 0, B: 99},
			[]string{"thread-end", "cat=0", "cyc=99"}},
		{Event{Host: "rcv", Core: 0, Kind: GROFlush, A: 4, B: 180000},
			[]string{"gro-flush", "skbs=4", "bytes=180000"}},
		{Event{Host: "rcv", Core: 0, Flow: 2, Kind: Drop, A: 4096, B: 1500},
			[]string{"drop", "seq=4096", "len=1500"}},
	}
	for _, c := range cases {
		out := c.e.String()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%v.String() = %q, missing %q", c.e.Kind, out, want)
			}
		}
	}
}

func TestDumpFormats(t *testing.T) {
	tr := New(4)
	tr.Emit(Event{Host: "snd", Core: 2, Flow: 1, Kind: TxSegment, A: 8934, B: 65536})
	tr.Emit(Event{Host: "rcv", Core: 0, Flow: 1, Kind: AckSent, A: 65536, B: 3 << 20})
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"tx-segment", "seq=8934", "ack-sent", "cum=65536", "wnd="} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// Wrap-around must preserve global emission order, not just membership.
func TestWrapAroundOrdering(t *testing.T) {
	tr := New(4)
	for i := int64(1); i <= 11; i++ {
		tr.Emit(ev(i, 1, DeliverSKB))
	}
	got := tr.Events()
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At <= got[i-1].At {
			t.Fatalf("events out of order after wrap: %v", got)
		}
	}
	if got[0].A != 8 || got[3].A != 11 {
		t.Errorf("expected events 8..11, got %v", got)
	}
	if tr.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", tr.Dropped())
	}
}

// Take hands over the same events, in the same order, as Events, and
// leaves the tracer empty.
func TestTakeMatchesEvents(t *testing.T) {
	for _, n := range []int64{0, 3, 4, 11, 12} {
		tr := New(4)
		for i := int64(1); i <= n; i++ {
			tr.Emit(ev(i, 1, DeliverSKB))
		}
		want := tr.Events()
		if got := tr.Take(); !slices.Equal(got, want) {
			t.Errorf("%d events: Take = %v, want %v", n, got, want)
		}
		if held := len(tr.Events()); held != 0 {
			t.Errorf("%d events: tracer holds %d events after Take", n, held)
		}
	}
	var nilTr *Tracer
	if nilTr.Take() != nil {
		t.Error("nil tracer Take must be nil")
	}
}

func TestDumpReportsEvicted(t *testing.T) {
	tr := New(2)
	for i := int64(1); i <= 5; i++ {
		tr.Emit(ev(i, 1, AppWrite))
	}
	var sb strings.Builder
	if err := tr.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "3 earlier events evicted") {
		t.Errorf("dump should note evictions:\n%s", sb.String())
	}
}

func TestFilterFlowZeroRecordsAll(t *testing.T) {
	tr := New(10)
	tr.FilterFlow(7)
	tr.FilterFlow(0) // reset to all flows
	tr.Emit(ev(1, 7, AppWrite))
	tr.Emit(ev(2, 8, AppWrite))
	if n := len(tr.Events()); n != 2 {
		t.Errorf("%d events, want 2 after clearing the filter", n)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}
