package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/profile"
)

// TestMain lets the test binary serve as its own worker process, so the
// tests below run workloads through the same process boundary as a set.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		os.Exit(workerMain())
	}
	// Under -race every process sleeps a second at exit by default; the
	// workers inherit this setting and exit at once.
	if os.Getenv("GORACE") == "" {
		os.Setenv("GORACE", "atexit_sleep_ms=0")
	}
	os.Exit(m.Run())
}

// smokePlan runs each workload for 2 timed ops at a 1 ms window, through
// the same worker processes and code path as a full set.
var smokePlan = plan{Rounds: 1, WarmupOps: 1, SetupBatches: 2, BatchRuns: 2,
	Ops: 2, MinOps: 1, Window: time.Millisecond}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name          string
		stack         []string // root first
		layer         string
		mapped, alloc bool
	}{
		{"closure", []string{"runtime.goexit", "main.main", "hostsim.Run",
			"hostsim/internal/sim.(*Engine).Run", "hostsim/internal/sim.(*Engine).Run.func1"}, "sim", false, false},
		{"map access goes to its caller", []string{"hostsim.Run",
			"hostsim/internal/cache.(*DCA).Insert", "runtime.mapaccess2_fast64"}, "cache", true, false},
		{"swiss-table internals", []string{"hostsim/internal/core.(*Host).steer",
			"runtime.mapassign_fast64", "internal/runtime/maps.(*Map).growToTable"}, "core", true, false},
		{"allocation", []string{"hostsim/internal/skb.(*Pool).Get", "runtime.newobject",
			"runtime.mallocgc", "runtime.(*mcache).nextFree"}, "skb", false, true},
		{"GC assist", []string{"hostsim/internal/nic.(*NIC).receive", "runtime.mallocgc",
			"runtime.deductAssistCredit", "runtime.gcAssistAlloc"}, "nic", false, true},
		{"GC worker has no hostsim frame", []string{"runtime.gcBgMarkWorker",
			"runtime.systemstack", "runtime.gcDrain", "runtime.scanobject"}, "runtime", false, false},
		{"root package", []string{"main.main", "hostsim.Run", "runtime.memclrNoHeapPointers"}, "hostsim", false, true},
		{"generic runner frame", []string{
			"hostsim/internal/runner.Map[go.shape.struct { hostsim/internal/figures.cfg hostsim.Config }].func1"}, "driver", false, false},
		{"figures", []string{"hostsim/internal/figures.fig3a"}, "driver", false, false},
		{"support package", []string{"hostsim/internal/cpumodel.Default"}, "support", false, false},
		{"observer", []string{"hostsim/internal/fabricobs.(*Observer).ingress"}, "fabricobs", false, false},
		{"benchmark frames only", []string{"main.(*worker).op", "crypto/sha256.block"}, "runtime", false, false},
		{"leaf-most hostsim frame wins", []string{"hostsim/internal/sim.(*Engine).Run",
			"hostsim/internal/tcp.(*Conn).onAck", "sort.Search", "hostsim/internal/tcp.(*Conn).onAck.func2"}, "tcp", false, false},
	} {
		layer, mapped, alloc := classify(tc.stack)
		if layer != tc.layer || mapped != tc.mapped || alloc != tc.alloc {
			t.Errorf("%s: got (%s, map %v, alloc %v), want (%s, map %v, alloc %v)",
				tc.name, layer, mapped, alloc, tc.layer, tc.mapped, tc.alloc)
		}
	}
}

// TestParseDataDecodesCPUProfile decodes a real runtime/pprof capture of
// hostsim runs with the in-repo parser and buckets it.
func TestParseDataDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	cfg := baseConfig(7, 1, 2)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	p, err := profile.ParseData(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []profile.ParsedValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}}
	if !slices.Equal(p.SampleTypes, want) {
		t.Fatalf("sample types %v, want %v", p.SampleTypes, want)
	}
	sawSim := false
	for _, s := range p.Samples {
		for _, fn := range s.Stack {
			sawSim = sawSim || strings.HasPrefix(fn, "hostsim/internal/sim.")
		}
	}
	if !sawSim {
		t.Error("no sample has a hostsim/internal/sim frame")
	}

	lp, err := bucket(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inHostsim int64
	for l, ns := range lp.LayerNS {
		if l != "runtime" {
			inHostsim += ns
		}
	}
	if lp.Samples == 0 || inHostsim == 0 || len(lp.LayerNS) != len(layerNames) {
		t.Errorf("bucketed profile: %d samples, %d ns in hostsim layers, %d layers", lp.Samples, inHostsim, len(lp.LayerNS))
	}
}

func TestQuantiles(t *testing.T) {
	ten := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) gives [2.75, 5.5, 8.25].
	for _, c := range []struct{ p, want float64 }{{0.25, 2.75}, {0.5, 5.5}, {0.75, 8.25}, {0.9, 9.9}, {0, 1}, {1, 10}} {
		if got := quantile(ten, c.p); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if ten[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := quantile([]float64{4}, 0.25); got != 4 {
		t.Errorf("quantile of one value = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		base, next, spread, bound float64
		want                      string
	}{
		{100, 105, 0.02, 0.1, "unchanged"},
		{100, 111, 0.02, 0.1, "worse"},
		{100, 89, 0.02, 0.1, "better"},
		{100, 150, 0.2, 0.1, "unresolved"},
		{0, 0.01, 0, 0, "worse"}, // fail_frac: any rise
		{0, 0, 0, 0, "unchanged"},
	} {
		if got := verdict(c.base, c.next, c.spread, c.bound); got != c.want {
			t.Errorf("verdict(%v -> %v, spread %v, bound %v) = %s, want %s",
				c.base, c.next, c.spread, c.bound, got, c.want)
		}
	}
}

// TestSmoke runs every workload through worker processes and checks that
// every metric is reported and every op passed.
func TestSmoke(t *testing.T) {
	set, err := runSet(options{seed: 7, trace: true, plan: smokePlan, workloads: workloads})
	if err != nil {
		t.Fatal(err)
	}
	defs := slices.Concat(endToEnd, extraDefs, perLayer)
	for _, wr := range set.Workloads {
		for _, d := range defs {
			if _, ok := wr.Metrics[d.Name]; !ok {
				t.Errorf("%s: no metric %s", wr.Name, d.Name)
			}
		}
		if ff := wr.Metrics["fail_frac"]; ff != 0 || wr.Attempted == 0 {
			t.Errorf("%s: fail_frac %v over %d ops: %v", wr.Name, ff, wr.Attempted, wr.Problems)
		}
	}
	var out bytes.Buffer
	if code := report(&out, set); code != 0 {
		t.Errorf("exit code %d, want 0", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || len(last.Metrics) != len(workloads)*len(perLayer) {
		t.Errorf("result line: correct %v, failed %d, %d metrics", last.Correct, last.Failed, len(last.Metrics))
	}
}

// TestGoldenMismatchFails is the negative control of the Fig. 3a check:
// the same run passes against its own output and fails against a
// tampered copy, with a non-zero exit code.
func TestGoldenMismatchFails(t *testing.T) {
	fig3a, _ := workloadByName("fig3a")
	inst, err := fig3a.start(7, smokePlan.Window, "")
	if err != nil {
		t.Fatal(err)
	}
	_, text, err := inst.run()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.txt"), filepath.Join(dir, "bad.txt")
	tampered := strings.Replace(text, "No Opt.", "No Opt!", 1)
	if err := os.WriteFile(good, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		code   int
	}{{good, 0}, {bad, 1}} {
		set, err := runSet(options{seed: 7, plan: smokePlan, workloads: []workload{fig3a}, golden: c.golden})
		if err != nil {
			t.Fatal(err)
		}
		ff := set.Workloads[0].Metrics["fail_frac"]
		if code := report(io.Discard, set); code != c.code || (ff > 0) != (c.code != 0) {
			t.Errorf("golden %s: exit code %d, fail_frac %v; want exit code %d", filepath.Base(c.golden), code, ff, c.code)
		}
	}
}

// TestDigestMismatchFails is the negative control of the cross-worker
// check: a worker whose output digest differs fails all of its ops.
func TestDigestMismatchFails(t *testing.T) {
	iperf, _ := workloadByName("iperf")
	p := smokePlan
	p.Rounds = 2
	reps, err := collect(options{seed: 7, plan: p, workloads: []workload{iperf}})
	if err != nil {
		t.Fatal(err)
	}
	if wr := summarize("iperf", reps[0]); wr.Failed != 0 {
		t.Fatalf("clean run failed: %v", wr.Problems)
	}
	reps[0][1].Digest = strings.Repeat("0", 64)
	wr := summarize("iperf", reps[0])
	if wr.Metrics["fail_frac"] != 0.5 {
		t.Errorf("fail_frac %v with one of two workers mismatched, want 0.5", wr.Metrics["fail_frac"])
	}
	if code := report(io.Discard, &setResult{Workloads: []workloadResult{wr}}); code == 0 {
		t.Error("exit code 0 despite a digest mismatch")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this package reports, with the same units and across-seed
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name, m.Unit, m.Better, fmt.Sprint(m.Bound))
	}
	for _, d := range endToEnd {
		if d.Name != "fail_frac" {
			want = append(want, d.Name, d.Unit, "lower", fmt.Sprint(d.SeedBound))
		}
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name, m.Unit)
	}
	for _, d := range perLayer {
		want = append(want, d.Name, d.Unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json disagrees with the package:\n got %v\nwant %v", got, want)
	}
}
