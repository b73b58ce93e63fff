package trace

import (
	"slices"
	"testing"
	"time"
)

func ev(at int64, flow int32, k string) Event {
	return Event{At: time.Duration(at), Host: "rcv", Core: 0, Flow: flow, Kind: k, A: at, B: 100}
}

// seqs returns each event's A, the emission index ev stamps.
func seqs(events []Event) []int64 {
	out := make([]int64, len(events))
	for i, e := range events {
		out[i] = e.A
	}
	return out
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.FilterFlow(3)
	if tr.Take() != nil {
		t.Error("nil tracer must be a pure no-op")
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	tr := New(3)
	for i := int64(1); i <= 5; i++ {
		tr.Emit(ev(i, 1, AppRead))
	}
	if got, want := seqs(tr.Take()), []int64{3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("events %v, want %v (the most recent, oldest first)", got, want)
	}
}

func TestOrderBeforeWrap(t *testing.T) {
	tr := New(10)
	for i := int64(1); i <= 4; i++ {
		tr.Emit(ev(i, 1, TxSegment))
	}
	if got, want := seqs(tr.Take()), []int64{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("events %v, want %v", got, want)
	}
}

func TestFlowFilter(t *testing.T) {
	tr := New(10)
	tr.FilterFlow(7)
	tr.Emit(ev(1, 7, AppWrite))
	tr.Emit(ev(2, 8, AppWrite))
	tr.Emit(ev(3, 7, AckSent))
	got := tr.Take()
	if len(got) != 2 {
		t.Fatalf("%d events, want 2 (flow filter)", len(got))
	}
	for _, e := range got {
		if e.Flow != 7 {
			t.Errorf("flow %d leaked through the filter", e.Flow)
		}
	}
}

// The kind names are the public identifiers in Result.Trace and the
// Chrome-trace export.
func TestKindStrings(t *testing.T) {
	want := map[string]string{
		AppWrite: "app-write", AppRead: "app-read", TxSegment: "tx-segment",
		Retransmit: "retransmit", DeliverSKB: "deliver-skb", AckSent: "ack-sent",
		Drop: "drop", GROFlush: "gro-flush",
		SoftirqStart: "softirq-start", SoftirqEnd: "softirq-end",
		ThreadStart: "thread-start", ThreadEnd: "thread-end",
	}
	for k, s := range want {
		if k != s {
			t.Errorf("kind %q, want %q", k, s)
		}
	}
}

// Every kind must have a distinct, non-empty name.
func TestKindNamesCompleteAndUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range []string{
		AppWrite, AppRead, TxSegment, Retransmit, DeliverSKB, AckSent,
		Drop, GROFlush, SoftirqStart, SoftirqEnd, ThreadStart, ThreadEnd,
	} {
		if k == "" || seen[k] {
			t.Errorf("kind %q is empty or shared", k)
		}
		seen[k] = true
	}
}

// Wrap-around must preserve global emission order, not just membership.
func TestWrapAroundOrdering(t *testing.T) {
	tr := New(4)
	for i := int64(1); i <= 11; i++ {
		tr.Emit(ev(i, 1, DeliverSKB))
	}
	got := tr.Take()
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
}

// Take hands over the most recent events in emission order, before and
// after the ring wraps, and leaves the tracer empty.
func TestTakeMatchesEvents(t *testing.T) {
	for _, n := range []int64{0, 3, 4, 11, 12} {
		tr := New(4)
		var want []int64
		for i := int64(1); i <= n; i++ {
			tr.Emit(ev(i, 1, DeliverSKB))
			want = append(want, i)
		}
		want = want[max(0, len(want)-4):]
		if got := seqs(tr.Take()); !slices.Equal(got, want) {
			t.Errorf("%d events: Take = %v, want %v", n, got, want)
		}
		if held := len(tr.Take()); held != 0 {
			t.Errorf("%d events: tracer holds %d events after Take", n, held)
		}
	}
}

func TestFilterFlowZeroRecordsAll(t *testing.T) {
	tr := New(10)
	tr.FilterFlow(7)
	tr.FilterFlow(0) // reset to all flows
	tr.Emit(ev(1, 7, AppWrite))
	tr.Emit(ev(2, 8, AppWrite))
	if n := len(tr.Take()); n != 2 {
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

// BenchmarkEmit times the two states a data-path Emit meets: no tracer
// armed, and an armed ring that has wrapped, so each event overwrites a
// slot. Neither allocates.
func BenchmarkEmit(b *testing.B) {
	wrapped := New(64)
	for i := int64(0); i < 100; i++ {
		wrapped.Emit(ev(i, 1, TxSegment))
	}
	for _, c := range []struct {
		name string
		tr   *Tracer
	}{{"nil", nil}, {"wrapped", wrapped}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			e := ev(1, 1, TxSegment)
			for i := 0; i < b.N; i++ {
				e.A = int64(i)
				c.tr.Emit(e)
			}
		})
	}
}
