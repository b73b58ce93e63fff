package hostsim_test

// End-to-end message tracing: the golden tail-attribution report for a
// pinned lossy RPC scenario, the pure-observer contract (a run with
// MsgTrace armed is bit-identical to one without), the metamorphic
// telescoping property over every completed message, and byte
// determinism of the report and span artifacts across parallelism.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/mtrace"
)

// tailCfg is the pinned golden scenario: an 8-client 64KB RPC incast
// over a 1% lossy switch. Each request spans 8 MTU segments, so losses
// recover through both fast retransmit and the 10ms min-RTO, putting
// retransmission stalls squarely in the p99+ bands while the p50 band
// stays loss-free — the shape the tail report exists to expose.
func tailCfg() hostsim.Config {
	return hostsim.Config{
		Stack:    hostsim.AllOptimizations(),
		LossRate: 0.01,
		Seed:     7,
		Warmup:   2 * time.Millisecond,
		Duration: 20 * time.Millisecond,
		MsgTrace: &hostsim.MsgTraceOptions{Slowest: 8},
	}
}

func tailWL() hostsim.Workload { return hostsim.RPCIncastWorkload(8, 65536) }

// bandStageMean returns the mean dwell time of one stage within one
// percentile band of the report.
func bandStageMean(t *testing.T, ml *hostsim.MessageLatency, band, stage string) time.Duration {
	t.Helper()
	for _, b := range ml.Bands {
		if b.Band != band {
			continue
		}
		for _, s := range b.Stages {
			if s.Stage == stage {
				return s.Mean
			}
		}
	}
	t.Fatalf("report has no %s stage in band %s", stage, band)
	return 0
}

// TestTailReportGolden pins the tail-attribution report for the lossy
// RPC scenario against testdata/golden/tailreport.txt (regenerate with
// `go test -run TestTailReportGolden -update .`), with the invariant
// checker armed so the scenario doubles as a conservation-law audit.
// It also asserts the report's headline claim directly: the p99-p999
// band attributes more latency to the retransmission-wait stage than
// the p0-p50 band does.
func TestTailReportGolden(t *testing.T) {
	cfg := tailCfg()
	cfg.Check = &hostsim.CheckOptions{Collect: true}
	res, err := hostsim.Run(cfg, tailWL())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations in golden scenario: %v", res.Violations[0])
	}
	if res.MessageLatency == nil {
		t.Fatal("MsgTrace was set but Result.MessageLatency is nil")
	}

	p50 := bandStageMean(t, res.MessageLatency, "p0-p50", "retx_wait")
	p999 := bandStageMean(t, res.MessageLatency, "p99-p999", "retx_wait")
	if p999 <= p50 {
		t.Errorf("p99-p999 band retx_wait mean %v not above p0-p50 band's %v: tail not attributed to retransmission", p999, p50)
	}
	if p999 < 5*time.Millisecond {
		t.Errorf("p99-p999 band retx_wait mean %v: expected min-RTO-scale (>=5ms) stalls in this lossy scenario", p999)
	}

	got := string(artifact(t, res, "tail"))
	path := filepath.Join("testdata", "golden", "tailreport.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run `go test -run TestTailReportGolden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("tail report drifted from golden (rerun with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMsgTraceObserverTransparency is the pure-observer contract: a
// checker-armed run with MsgTrace on produces exactly the physics of
// one with it off. The tracer only reads timestamps the data path
// already stamps; it must never perturb a simulation it observes.
func TestMsgTraceObserverTransparency(t *testing.T) {
	traced := tailCfg()
	traced.Check = &hostsim.CheckOptions{Collect: true}
	plain := traced
	plain.MsgTrace = nil

	a, err := hostsim.Run(plain, tailWL())
	if err != nil {
		t.Fatal(err)
	}
	b, err := hostsim.Run(traced, tailWL())
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Errorf("MsgTrace perturbed the run:\n    off: %s\n     on: %s", fa, fb)
	}
	if a.MessageLatency != nil {
		t.Error("run without MsgTrace has a MessageLatency report")
	}
	if b.MessageLatency == nil {
		t.Error("run with MsgTrace has no MessageLatency report")
	}
}

// TestMsgTraceTelescoping is the metamorphic accounting property: for
// every completed message, in a lossy and a loss-free scenario alike,
// the per-stage deltas are non-negative and sum exactly to the
// end-to-end total — no latency invented, none lost. The report's
// quantiles must be monotone over the same population.
func TestMsgTraceTelescoping(t *testing.T) {
	lossless := tailCfg()
	lossless.LossRate = 0
	lossless.Seed = 11
	for name, cfg := range map[string]hostsim.Config{"lossy": tailCfg(), "lossless": lossless} {
		res, err := hostsim.Run(cfg, tailWL())
		if err != nil {
			t.Fatal(err)
		}
		recs := res.MessageRecords()
		if len(recs) == 0 {
			t.Fatalf("%s: no message records", name)
		}
		for _, r := range recs {
			var sum int64
			for i, d := range r.Stages {
				if d < 0 {
					t.Fatalf("%s: flow %d msg %d stage %d negative (%dns)", name, r.Flow, r.ID, i, d)
				}
				sum += d
			}
			if sum != r.Total {
				t.Fatalf("%s: flow %d msg %d stages sum to %dns, total %dns", name, r.Flow, r.ID, sum, r.Total)
			}
		}
		ml := res.MessageLatency
		if int64(len(recs)) != ml.Count-ml.Truncated {
			t.Errorf("%s: %d records vs count %d - truncated %d", name, len(recs), ml.Count, ml.Truncated)
		}
		qs := []time.Duration{ml.P50, ml.P90, ml.P99, ml.P999, ml.Max}
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1] {
				t.Errorf("%s: quantiles not monotone: %v", name, qs)
			}
		}
		if _, err := mtrace.CheckSpans(artifact(t, res, "trace")); err != nil {
			t.Errorf("%s: trace: %v", name, err)
		}
		if _, err := mtrace.CheckTailReport(artifact(t, res, "tail")); err != nil {
			t.Errorf("%s: tail report: %v", name, err)
		}
	}
}

// mtraceArtifacts serializes everything `netsim -tail-report -trace-out`
// would write for a run: the text report plus the Chrome trace.
func mtraceArtifacts(t *testing.T, r *hostsim.Result) string {
	t.Helper()
	return string(artifact(t, r, "tail")) + string(artifact(t, r, "trace"))
}

// TestMsgTraceDeterminismAcrossJobs is the parallelism contract for the
// new artifacts: running traced scenarios concurrently (-jobs 8) must
// produce byte-identical tail reports and span exports to running them
// serially — the tracer keeps no hidden shared state.
func TestMsgTraceDeterminismAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property")
	}
	seeded := func(seed int64) hostsim.Config {
		cfg := tailCfg()
		cfg.Seed = seed
		return cfg
	}
	chunked := tailCfg()
	chunked.MsgTrace.MsgBytes = 16384
	jobs := []hostsim.Job{
		{Config: seeded(7), Workload: tailWL()},
		{Config: seeded(8), Workload: tailWL()},
		{Config: chunked, Workload: tailWL()},
		{Config: seeded(9), Workload: hostsim.RPCIncastWorkload(4, 16384)},
	}
	serial, err := hostsim.RunMany(jobs, hostsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := hostsim.RunMany(jobs, hostsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a, b := mtraceArtifacts(t, serial[i]), mtraceArtifacts(t, par[i])
		if a != b {
			t.Errorf("job %d artifacts diverged between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- par8 ---\n%s", i, a, b)
		}
	}
}
