package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hostsim/internal/trace"
)

// chromeEvent mirrors the trace-event fields for round-trip decoding.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, EventSpans(nil)); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.String())
	}
	if len(evs) != 0 {
		t.Errorf("want empty array, got %v", evs)
	}
}

func TestChromeTraceSpansAndInstants(t *testing.T) {
	events := []trace.Event{
		{At: 0, Host: "sender", Core: 0, Kind: trace.ThreadStart, A: 0, B: 500},
		{At: 2 * time.Microsecond, Host: "sender", Core: 0, Kind: trace.ThreadEnd, A: 0, B: 500},
		{At: 3 * time.Microsecond, Host: "receiver", Core: 1, Kind: trace.SoftirqStart, A: 2, B: 900},
		{At: 4 * time.Microsecond, Host: "receiver", Core: 1, Flow: 1,
			Kind: trace.DeliverSKB, A: 4096, B: 65536},
		{At: 5 * time.Microsecond, Host: "receiver", Core: 1, Kind: trace.SoftirqEnd, A: 2, B: 900},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, EventSpans(events)); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}

	var meta, spans, instants []chromeEvent
	for _, e := range evs {
		switch e.Ph {
		case "M":
			meta = append(meta, e)
		case "X":
			spans = append(spans, e)
		case "i":
			instants = append(instants, e)
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if len(meta) != 2 {
		t.Fatalf("want 2 process_name records, got %d", len(meta))
	}
	if meta[0].Args["name"] != "sender" || meta[1].Args["name"] != "receiver" {
		t.Errorf("process names wrong: %v", meta)
	}
	if meta[0].Pid == meta[1].Pid {
		t.Error("hosts must map to distinct pids")
	}
	if len(spans) != 2 {
		t.Fatalf("want 2 complete spans, got %d", len(spans))
	}
	thread, softirq := spans[0], spans[1]
	if thread.Cat != "thread" || thread.Ts != 0 || thread.Dur != 2 {
		t.Errorf("thread span = %+v", thread)
	}
	if softirq.Cat != "softirq" || softirq.Ts != 3 || softirq.Dur != 2 || softirq.Tid != 1 {
		t.Errorf("softirq span = %+v", softirq)
	}
	if softirq.Args["cycles"] != float64(900) {
		t.Errorf("cycles arg = %v", softirq.Args["cycles"])
	}
	if len(instants) != 1 || instants[0].Name != "deliver-skb" ||
		instants[0].S != "t" || instants[0].Args["flow"] != float64(1) {
		t.Errorf("instants = %+v", instants)
	}
}

// An end without a start (its start was evicted from the ring) is dropped
// rather than producing a broken span.
func TestChromeTraceSkipsOrphanEnd(t *testing.T) {
	events := []trace.Event{
		{At: time.Microsecond, Host: "h", Core: 0, Kind: trace.SoftirqEnd, A: 1, B: 10},
	}
	var buf bytes.Buffer
	if err := WriteChromeSpans(&buf, EventSpans(events)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"X"`) {
		t.Errorf("orphan end produced a span: %s", buf.String())
	}
}

func TestChromeTraceDeterministicBytes(t *testing.T) {
	events := []trace.Event{
		{At: 0, Host: "a", Core: 0, Kind: trace.ThreadStart, A: 1, B: 2},
		{At: time.Microsecond, Host: "a", Core: 0, Kind: trace.ThreadEnd, A: 1, B: 2},
		{At: 2 * time.Microsecond, Host: "b", Core: 3, Flow: 9,
			Kind: trace.GROFlush, A: 4, B: 180000},
	}
	var b1, b2 bytes.Buffer
	if err := WriteChromeSpans(&b1, EventSpans(events)); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeSpans(&b2, EventSpans(events)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("chrome trace bytes differ for identical input")
	}
}
