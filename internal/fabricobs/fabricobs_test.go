package fabricobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hostsim/internal/fabric"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/telemetry"
	"hostsim/internal/units"
)

// discard receives nothing: the observatory tests read the fabric's own
// counters, not the delivered frames.
func discard(int) func(*skb.Frame) { return func(*skb.Frame) {} }

// testFabric builds an N-port fabric with a slow (1Gbps) egress so
// backlogs build deterministically, plus an observer with the given
// options. Flows s (1..N-1) are registered port s -> port 0.
func testFabric(t *testing.T, cfg fabric.Config, opts Options) (*sim.Engine, *fabric.Fabric, *Observer) {
	t.Helper()
	eng := sim.NewEngine(1)
	fb := fabric.New(eng, cfg, discard)
	for s := 1; s < cfg.Ports; s++ {
		fb.Register(skb.FlowID(s), s, 0)
	}
	names := make([]string, cfg.Ports)
	for i := range names {
		names[i] = "h" + string(rune('a'+i))
	}
	return eng, fb, New(eng, fb, names, opts)
}

func slowCfg(ports int) fabric.Config {
	return fabric.Config{Ports: ports, LinkRate: units.Gbps, Delay: time.Microsecond}
}

// TestLedgerIdentities drives an incast with a bounded shared buffer,
// Bernoulli loss and ECN marking — all three loss/mark classes active —
// and requires both ledger identities on every port and ledger sums equal
// to the switch totals.
func TestLedgerIdentities(t *testing.T) {
	cfg := slowCfg(4)
	cfg.SharedBuffer = 128 * units.KB
	cfg.LossRate = 0.2
	cfg.ECNThreshold = 8 * units.KB
	eng, fb, obs := testFabric(t, cfg, Options{})
	for i := 0; i < 100; i++ {
		for s := 1; s < 4; s++ {
			fb.Port(s).Send(&skb.Frame{Flow: skb.FlowID(s), Seq: int64(i), Len: 1500})
		}
	}
	eng.Run(sim.Time(10 * time.Millisecond))
	obs.Finalize()
	reports := obs.PortReports()
	var adm, loss, marks, delivered int64
	for _, p := range reports {
		if p.InFrames != p.Forwarded+p.AdmissionDrops {
			t.Errorf("port %d: ingress identity broken: %+v", p.Port, p)
		}
		if p.Enqueued != p.Delivered+p.WireLossDrops+p.InFlight {
			t.Errorf("port %d: egress identity broken: %+v", p.Port, p)
		}
		adm += p.AdmissionDrops
		loss += p.WireLossDrops
		marks += p.ECNMarks
		delivered += p.Delivered
	}
	tot := fb.Totals()
	if adm != tot.BufDropped || loss != tot.LossDropped || marks != tot.Marked || delivered != tot.Delivered {
		t.Fatalf("ledger totals adm=%d loss=%d marks=%d deliv=%d, fabric %+v",
			adm, loss, marks, delivered, tot)
	}
	if adm == 0 || loss == 0 || marks == 0 {
		t.Fatalf("scenario must exercise all classes: adm=%d loss=%d marks=%d", adm, loss, marks)
	}
	// All frames drained: nothing is left in flight.
	if hot := reports[0]; hot.InFlight != 0 {
		t.Fatalf("in flight %d on the hot port after draining", hot.InFlight)
	}
}

// TestBurstDetection pins the microburst detector against a hand-computed
// open-loop burst: 10 MTU frames back to back on a 1Gbps egress with a
// 4KB threshold open one burst at the third frame, absorb the rest, and
// close after the queue drains below 2KB.
func TestBurstDetection(t *testing.T) {
	eng, fb, obs := testFabric(t, slowCfg(2), Options{BurstThreshold: 4 * units.KB})
	for i := 0; i < 10; i++ {
		fb.Port(1).Send(&skb.Frame{Flow: 1, Seq: int64(i), Len: 1500})
	}
	eng.Run(sim.Time(time.Millisecond))
	obs.Finalize()
	bursts := obs.Bursts()
	if len(bursts) != 1 {
		t.Fatalf("bursts = %d, want 1: %+v", len(bursts), bursts)
	}
	b := bursts[0]
	// Wire size 1566B: depth crosses 4096 at the 3rd enqueue; frames
	// 3..10 belong to the burst.
	if b.Frames != 8 {
		t.Errorf("burst frames = %d, want 8", b.Frames)
	}
	if b.Port != 0 || b.Truncated || b.Duration <= 0 {
		t.Errorf("burst = %+v, want closed burst on port 0", b)
	}
	if b.PeakBacklog < 4096 {
		t.Errorf("peak backlog = %d, want >= threshold", b.PeakBacklog)
	}
	if len(b.Flows) != 1 || b.Flows[0].Flow != 1 || b.Flows[0].Frames != 8 {
		t.Errorf("burst flows = %+v, want flow 1 with 8 frames", b.Flows)
	}
	if rep := obs.PortReports()[0]; rep.Bursts != 1 {
		t.Errorf("port report bursts = %d, want 1", rep.Bursts)
	}
}

// TestBurstRetentionCap sends two separate bursts under maxBursts 1: the
// first is retained, the second is detected and counted on its port but
// not kept.
func TestBurstRetentionCap(t *testing.T) {
	eng, fb, obs := testFabric(t, slowCfg(2), Options{BurstThreshold: 4 * units.KB})
	obs.maxBursts = 1
	for burst := 0; burst < 2; burst++ {
		for i := 0; i < 10; i++ {
			fb.Port(1).Send(&skb.Frame{Flow: 1, Seq: int64(10*burst + i), Len: 1500})
		}
		// 10 frames drain in ~125µs, closing the burst well before 1ms.
		eng.Run(sim.Time(time.Duration(burst+1) * time.Millisecond))
	}
	obs.Finalize()
	bursts := obs.Bursts()
	if len(bursts) != 1 || bursts[0].Start >= time.Millisecond || bursts[0].Truncated {
		t.Fatalf("bursts = %+v, want only the first, closed", bursts)
	}
	if rep := obs.PortReports()[0]; rep.Bursts != 2 {
		t.Errorf("port report bursts = %d, want 2", rep.Bursts)
	}
}

// TestBurstTruncatedAtHorizon stops the engine mid-burst and requires the
// open burst to be emitted truncated.
func TestBurstTruncatedAtHorizon(t *testing.T) {
	eng, fb, obs := testFabric(t, slowCfg(2), Options{BurstThreshold: 4 * units.KB})
	for i := 0; i < 10; i++ {
		fb.Port(1).Send(&skb.Frame{Flow: 1, Seq: int64(i), Len: 1500})
	}
	// 10 frames need ~125µs to serialize at 1Gbps; stop at 20µs.
	eng.Run(sim.Time(20 * time.Microsecond))
	obs.Finalize()
	bursts := obs.Bursts()
	if len(bursts) != 1 || !bursts[0].Truncated {
		t.Fatalf("bursts = %+v, want one truncated burst", bursts)
	}
	if rep := obs.PortReports()[0]; rep.InFlight == 0 {
		t.Errorf("in-flight = 0 at mid-burst horizon, want > 0")
	}
}

// TestHopLatency pins the first frame's hop: serialization + propagation
// on an idle queue.
func TestHopLatency(t *testing.T) {
	eng, fb, obs := testFabric(t, slowCfg(2), Options{})
	fb.Port(1).Send(&skb.Frame{Flow: 1, Len: 1500})
	eng.Run(sim.Time(time.Millisecond))
	obs.Finalize()
	rep := obs.PortReports()[0]
	if rep.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1", rep.Delivered)
	}
	// 1566B at 1Gbps = 12.528µs serialize + 1µs delay.
	want := units.Gbps.Serialize(1566) + time.Microsecond
	got := rep.HopLatencyMean
	if got < want || got > want+want/10 {
		t.Errorf("hop mean = %v, want ~%v (log-bucket upper bound)", got, want)
	}
	if rep.HopLatencyMax < want {
		t.Errorf("hop max = %v, want >= %v", rep.HopLatencyMax, want)
	}
}

func TestTopFlows(t *testing.T) {
	got := topFlows([]int64{0, 1, 7, 0, 0, 3, 0, 0, 0, 3}, []skb.FlowID{9, 1, 5, 2}, 3)
	want := []FlowFrames{{2, 7}, {5, 3}, {9, 3}}
	if len(got) != 3 {
		t.Fatalf("topFlows kept %d, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topFlows = %+v, want %+v", got, want)
		}
	}
}

// TestTransparency runs the same open-loop schedule with and without an
// observer and requires identical fabric counters — the unit-level half
// of the byte-identity contract (the hostsim-level test pins full
// results).
func TestTransparency(t *testing.T) {
	run := func(observe bool) fabric.FabricTotals {
		eng := sim.NewEngine(7)
		cfg := slowCfg(4)
		cfg.SharedBuffer = 32 * units.KB
		cfg.LossRate = 0.1
		fb := fabric.New(eng, cfg, discard)
		for s := 1; s < 4; s++ {
			fb.Register(skb.FlowID(s), s, 0)
		}
		if observe {
			New(eng, fb, []string{"a", "b", "c", "d"}, Options{})
		}
		for i := 0; i < 200; i++ {
			for s := 1; s < 4; s++ {
				fb.Port(s).Send(&skb.Frame{Flow: skb.FlowID(s), Seq: int64(i), Len: 1500})
			}
		}
		eng.Run(sim.Time(10 * time.Millisecond))
		return fb.Totals()
	}
	if off, on := run(false), run(true); off != on {
		t.Fatalf("observed run diverged: off=%+v on=%+v", off, on)
	}
}

// TestTimeline checks the sampled series: monotone timestamps, the
// registered column set, and a nonzero hot-port backlog sample.
func TestTimeline(t *testing.T) {
	eng, fb, obs := testFabric(t, slowCfg(2), Options{SampleInterval: 10 * time.Microsecond})
	for i := 0; i < 20; i++ {
		fb.Port(1).Send(&skb.Frame{Flow: 1, Seq: int64(i), Len: 1500})
	}
	eng.Run(sim.Time(time.Millisecond))
	tl := obs.Timeline()
	if tl.Len() == 0 {
		t.Fatal("empty timeline")
	}
	for i := 1; i < tl.Len(); i++ {
		if tl.Times[i] <= tl.Times[i-1] {
			t.Fatalf("timestamps not strictly increasing at %d: %v then %v", i, tl.Times[i-1], tl.Times[i])
		}
	}
	backlog, ok := tl.Column("port000/backlog_bytes")
	if !ok {
		t.Fatalf("no hot-port backlog column; names = %v", tl.Names)
	}
	var peak float64
	for _, v := range backlog {
		if v > peak {
			peak = v
		}
	}
	if peak == 0 {
		t.Error("hot-port backlog never sampled above zero")
	}
	if _, ok := tl.Column("port001/utilization"); !ok {
		t.Error("no utilization column")
	}
}

// TestWritersDeterministic renders every artifact twice and requires
// byte-identical output; spot-checks the content shapes.
func TestWritersDeterministic(t *testing.T) {
	cfg := slowCfg(3)
	cfg.SharedBuffer = 16 * units.KB
	eng, fb, obs := testFabric(t, cfg, Options{BurstThreshold: 4 * units.KB})
	for i := 0; i < 50; i++ {
		for s := 1; s < 3; s++ {
			fb.Port(s).Send(&skb.Frame{Flow: skb.FlowID(s), Seq: int64(i), Len: 1500})
		}
	}
	eng.Run(sim.Time(10 * time.Millisecond))
	obs.Finalize()

	render := func() (csv, jsonl, tr string) {
		var a, b, c bytes.Buffer
		if err := WriteReportCSV(&a, obs.PortReports(), obs.Bursts()); err != nil {
			t.Fatal(err)
		}
		if err := WriteReportJSONL(&b, obs.PortReports(), obs.Bursts()); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteChromeSpans(&c, Spans(obs.PortReports(), obs.Timeline(), obs.Bursts())); err != nil {
			t.Fatal(err)
		}
		return a.String(), b.String(), c.String()
	}
	c1, j1, t1 := render()
	c2, j2, t2 := render()
	if c1 != c2 || j1 != j2 || t1 != t2 {
		t.Fatal("writers are not deterministic across renders")
	}
	if !strings.HasPrefix(c1, portCSVHeader+"\n") || !strings.Contains(c1, burstCSVHeader) {
		t.Fatalf("CSV missing section headers:\n%s", c1)
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(j1[:strings.IndexByte(j1, '\n')]), &first); err != nil {
		t.Fatalf("JSONL first line not JSON: %v", err)
	}
	if first["type"] != "port" {
		t.Fatalf("JSONL first line type = %v, want port", first["type"])
	}
	var arr []map[string]any
	if err := json.Unmarshal([]byte(t1), &arr); err != nil {
		t.Fatalf("trace not a JSON array: %v", err)
	}
	if len(arr) == 0 {
		t.Fatal("empty chrome trace")
	}
	if FormatReport(obs.PortReports(), obs.Bursts()) == "" {
		t.Fatal("empty text report")
	}
}

// TestNewPanics pins constructor validation.
func TestNewPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	fb := fabric.New(eng, slowCfg(2), discard)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("nil engine", func() { New(nil, fb, []string{"a", "b"}, Options{}) })
	expectPanic("nil fabric", func() { New(eng, nil, []string{"a", "b"}, Options{}) })
	expectPanic("name count", func() { New(eng, fb, []string{"a"}, Options{}) })
	expectPanic("negative option", func() { New(eng, fb, []string{"a", "b"}, Options{BurstThreshold: -1}) })
	fb.Register(1, 1, 0)
	fb.Port(1).Send(&skb.Frame{Flow: 1, Len: 1500})
	expectPanic("fabric that has carried a frame", func() { New(eng, fb, []string{"a", "b"}, Options{}) })
}
