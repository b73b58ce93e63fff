package hostsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hostsim/internal/telemetry"
)

func TestTimelineNilWithoutTelemetry(t *testing.T) {
	res, err := Run(quickCfg(AllOptimizations()), LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Error("Timeline must be nil when Config.Telemetry is unset")
	}
}

func TestTelemetryTimelinePopulated(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.Telemetry = &Telemetry{SampleInterval: 500 * time.Microsecond}
	res, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil || tl.Len() == 0 {
		t.Fatal("Timeline missing or empty")
	}
	// 8ms window at 500µs spacing: 16 samples starting at warm-up.
	if tl.Len() != 16 {
		t.Errorf("Len = %d, want 16", tl.Len())
	}
	if tl.Times[0] != cfg.Warmup {
		t.Errorf("first sample at %v, want warm-up boundary %v", tl.Times[0], cfg.Warmup)
	}
	for _, name := range []string{
		"sender/written_bytes", "receiver/copied_bytes",
		"sender/nic/tx_frames", "receiver/nic/ring_occupancy",
		"receiver/ddio/hit_rate", "receiver/core00/softirq_us",
		"sender/flow001/cwnd_bytes", "sender/flow001/srtt_ns",
	} {
		vals, ok := tl.Column(name)
		if !ok {
			t.Errorf("metric %q missing from timeline (have %d columns)", name, len(tl.Names))
			continue
		}
		if len(vals) != tl.Len() {
			t.Errorf("%q has %d samples, want %d", name, len(vals), tl.Len())
		}
	}
	// The run actually moved data, so the last copied_bytes sample is > 0.
	if vals, _ := tl.Column("receiver/copied_bytes"); vals[len(vals)-1] == 0 {
		t.Error("receiver/copied_bytes never advanced")
	}
}

// Enabling telemetry must not perturb the simulation: the sampler is a
// pure read interleaved with the event queue.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	base := quickCfg(AllOptimizations())
	plain, err := Run(base, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Telemetry = &Telemetry{}
	sampled, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if plain.ThroughputGbps != sampled.ThroughputGbps {
		t.Errorf("throughput changed: %v vs %v", plain.ThroughputGbps, sampled.ThroughputGbps)
	}
	if plain.Sender.BusyCores != sampled.Sender.BusyCores ||
		plain.Receiver.BusyCores != sampled.Receiver.BusyCores {
		t.Error("busy-core accounting changed under telemetry")
	}
}

// Two same-seed runs must serialize to byte-identical timelines: the
// determinism contract of netsim -telemetry-out.
func TestTelemetryDeterministicBytes(t *testing.T) {
	render := func() (string, string) {
		cfg := quickCfg(AllOptimizations())
		cfg.Telemetry = &Telemetry{SampleInterval: time.Millisecond}
		res, err := Run(cfg, LongFlowWorkload(PatternIncast, 4))
		if err != nil {
			t.Fatal(err)
		}
		var csv, jsonl strings.Builder
		if err := res.Timeline.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := res.Timeline.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return csv.String(), jsonl.String()
	}
	csv1, jsonl1 := render()
	csv2, jsonl2 := render()
	if csv1 != csv2 {
		t.Error("CSV timelines differ across identical runs")
	}
	if jsonl1 != jsonl2 {
		t.Error("JSONL timelines differ across identical runs")
	}
}

func TestWriteChromeTraceRoundTrips(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.TraceEvents = 1 << 14
	cfg.TraceSpans = true
	res, err := Run(cfg, LongFlowWorkload(PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, a := range res.Artifacts() {
		if a.Name == "trace" {
			if err := a.Write(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	events, err := telemetry.ReadChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("chrome trace empty")
	}
	phases := make(map[string]int)
	for _, e := range events {
		phases[e.Ph]++
	}
	if phases["M"] != 2 {
		t.Errorf("want 2 process metadata events, got %d", phases["M"])
	}
	if phases["X"] == 0 {
		t.Error("no execution spans in the trace (TraceSpans set)")
	}
	if phases["i"] == 0 {
		t.Error("no instant events in the trace")
	}
}

func TestTraceSpansRequiresTraceEvents(t *testing.T) {
	cfg := quickCfg(AllOptimizations())
	cfg.TraceSpans = true
	if _, err := Run(cfg, LongFlowWorkload(PatternSingle, 1)); err == nil {
		t.Error("TraceSpans without TraceEvents should be rejected")
	}
}

func TestTelemetryConfigValidation(t *testing.T) {
	for name, tel := range map[string]*Telemetry{
		"negative interval": {SampleInterval: -time.Microsecond},
	} {
		cfg := quickCfg(AllOptimizations())
		cfg.Telemetry = tel
		if _, err := Run(cfg, LongFlowWorkload(PatternSingle, 1)); err == nil {
			t.Errorf("%s should be rejected", name)
		}
	}
}
