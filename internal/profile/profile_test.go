package profile

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

const testFreq units.Frequency = 3_400_000_000

func testProfiler() *Profiler {
	p := New(Options{FlowClasses: map[int32]string{1: "long", 2: "rpc"}}, testFreq)
	p.Record("daisy", true, "", []exec.FlowCharge{
		{Flow: 1, Cat: cpumodel.Netdev, Cycles: 100},
		{Flow: 1, Cat: cpumodel.TCPIP, Cycles: 50},
		{Flow: 0, Cat: cpumodel.Memory, Cycles: 7},
	})
	p.Record("daisy", false, "iperf-recv", []exec.FlowCharge{
		{Flow: 1, Cat: cpumodel.DataCopy, Cycles: 900},
		{Flow: 3, Cat: cpumodel.Sched, Cycles: 11},
	})
	p.Record("poppy", true, "", []exec.FlowCharge{
		{Flow: 2, Cat: cpumodel.TCPIP, Cycles: 60},
	})
	// Same stack again: must aggregate, not duplicate.
	p.Record("daisy", true, "", []exec.FlowCharge{
		{Flow: 1, Cat: cpumodel.Netdev, Cycles: 23},
	})
	return p
}

func TestFoldedOutput(t *testing.T) {
	p := testProfiler()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := `daisy;iperf-recv;data_copy;long 900
daisy;iperf-recv;sched;other 11
daisy;softirq;memory 7
daisy;softirq;netdev;long 123
daisy;softirq;tcp/ip;long 50
poppy;softirq;tcp/ip;rpc 60
`
	if got := buf.String(); got != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", got, want)
	}
}

func TestCategoryTotals(t *testing.T) {
	p := testProfiler()
	tot := p.CategoryTotals()
	if got := tot[cpumodel.TCPIP.String()]; got != 110 {
		t.Errorf("tcp/ip total = %d, want 110", got)
	}
	if got := tot[cpumodel.Netdev.String()]; got != 123 {
		t.Errorf("netdev total = %d, want 123", got)
	}
	if got, want := p.TotalCycles(), units.Cycles(900+11+7+123+50+60); got != want {
		t.Errorf("TotalCycles = %d, want %d", got, want)
	}
}

func TestZeroCycleChargesIgnored(t *testing.T) {
	p := New(Options{}, testFreq)
	p.Record("h", true, "", []exec.FlowCharge{{Flow: 1, Cat: cpumodel.Lock, Cycles: 0}})
	if len(p.Stacks()) != 0 {
		t.Errorf("zero-cycle charge produced a stack")
	}
}

func TestReset(t *testing.T) {
	p := testProfiler()
	p.Reset()
	if p.TotalCycles() != 0 || len(p.Stacks()) != 0 {
		t.Errorf("Reset left %d cycles in %d stacks", p.TotalCycles(), len(p.Stacks()))
	}
}

// refProfiler is the map-keyed profiler the dense index replaced: one
// map entry per (host, context, category, class) stack.
type refProfiler struct {
	classes map[int32]string
	samples map[[4]string]units.Cycles
}

func (r *refProfiler) record(host string, softirq bool, thread string, log []exec.FlowCharge) {
	ctx := thread
	if softirq {
		ctx = "softirq"
	}
	for _, e := range log {
		if e.Cycles == 0 {
			continue
		}
		class := ""
		if e.Flow != 0 {
			class = "flow"
			if r.classes != nil {
				class = "other"
				if c, ok := r.classes[e.Flow]; ok {
					class = c
				}
			}
		}
		r.samples[[4]string{host, ctx, e.Cat.String(), class}] += e.Cycles
	}
}

func (r *refProfiler) stacks() []Stack {
	out := []Stack{}
	for k, c := range r.samples {
		frames := []string{k[0], k[1], k[2]}
		if k[3] != "" {
			frames = append(frames, k[3])
		}
		out = append(out, Stack{Frames: frames, Cycles: c})
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].Frames, ";") < strings.Join(out[j].Frames, ";")
	})
	return out
}

// TestDenseIndexMatchesMapReference feeds random charge logs to the
// profiler and to refProfiler and requires the same stacks, category
// totals and cycle total, before and after a Reset partway through. Flow
// ids cover 0, absent ids, negative ids and ids above the dense table;
// the class maps cover nil, empty, labels "" and "other", a label on flow
// 0, and labeled ids beyond 1<<16. Charges include zeros and negatives, so
// some stacks are charged yet sum to zero and must still be listed.
func TestDenseIndexMatchesMapReference(t *testing.T) {
	flows := []int32{0, 1, 2, 3, 4, 5, 9999, -1, -7, 1 << 16, 1<<16 + 1, 1 << 20, math.MaxInt32, math.MinInt32}
	for name, classes := range map[string]map[int32]string{
		"nil":   nil,
		"empty": {},
		"labeled": {0: "zero", 1: "long", 2: "rpc", 3: "", 5: "other", -1: "neg", 1 << 16: "edge",
			1<<16 + 1: "far", 1 << 20: "far", math.MinInt32: "min"},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			p := New(Options{FlowClasses: classes}, testFreq)
			ref := &refProfiler{classes: classes, samples: map[[4]string]units.Cycles{}}
			check := func(when string) {
				t.Helper()
				want := ref.stacks()
				if got := p.Stacks(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: stacks\n got %v\nwant %v", when, got, want)
				}
				wantTot, wantSum := map[string]units.Cycles{}, units.Cycles(0)
				for _, st := range want {
					wantTot[st.Frames[2]] += st.Cycles
					wantSum += st.Cycles
				}
				if got := p.CategoryTotals(); !reflect.DeepEqual(got, wantTot) {
					t.Errorf("%s: CategoryTotals %v, want %v", when, got, wantTot)
				}
				if got := p.TotalCycles(); got != wantSum {
					t.Errorf("%s: TotalCycles %d, want %d", when, got, wantSum)
				}
			}
			hosts := []string{"daisy", "poppy", "iris"}
			threads := []string{"iperf-send", "iperf-recv", "rpc"}
			for item := 0; item < 400; item++ {
				if item == 200 {
					check("before Reset")
					p.Reset()
					ref.samples = map[[4]string]units.Cycles{}
					check("after Reset")
				}
				log := make([]exec.FlowCharge, rng.Intn(5))
				for i := range log {
					log[i] = exec.FlowCharge{
						Flow:   flows[rng.Intn(len(flows))],
						Cat:    cpumodel.Category(rng.Intn(cpumodel.NumCategories)),
						Cycles: units.Cycles(rng.Intn(4) * (rng.Intn(50) - 5)), // zero a quarter of the time, sometimes negative
					}
				}
				if item%100 == 0 { // a charged stack that sums to zero still appears
					log = append(log, exec.FlowCharge{Flow: 2, Cat: cpumodel.Lock, Cycles: 5},
						exec.FlowCharge{Flow: 2, Cat: cpumodel.Lock, Cycles: -5})
				}
				host, thread, softirq := hosts[rng.Intn(len(hosts))], threads[rng.Intn(len(threads))], rng.Intn(2) == 0
				p.Record(host, softirq, thread, log)
				ref.record(host, softirq, thread, log)
			}
			check("end")
		})
	}
}

func TestPprofRoundTrip(t *testing.T) {
	p := testProfiler()
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseData(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(parsed.SampleTypes); got != 2 {
		t.Fatalf("sample types = %d, want 2", got)
	}
	if parsed.SampleTypes[0] != (ParsedValueType{"cycles", "count"}) ||
		parsed.SampleTypes[1] != (ParsedValueType{"time", "nanoseconds"}) {
		t.Errorf("sample types = %v", parsed.SampleTypes)
	}
	if parsed.DefaultSampleType != "cycles" {
		t.Errorf("default sample type = %q, want cycles", parsed.DefaultSampleType)
	}
	stacks := p.Stacks()
	if len(parsed.Samples) != len(stacks) {
		t.Fatalf("samples = %d, want %d", len(parsed.Samples), len(stacks))
	}
	for i, s := range stacks {
		got := parsed.Samples[i]
		if strings.Join(got.Stack, ";") != strings.Join(s.Frames, ";") {
			t.Errorf("sample %d stack = %v, want %v", i, got.Stack, s.Frames)
		}
		if got.Values[0] != int64(s.Cycles) {
			t.Errorf("sample %d cycles = %d, want %d", i, got.Values[0], s.Cycles)
		}
		wantNS := s.Cycles.Duration(testFreq).Nanoseconds()
		if got.Values[1] != wantNS {
			t.Errorf("sample %d ns = %d, want %d", i, got.Values[1], wantNS)
		}
	}
}

func TestPprofDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := testProfiler().WritePprof(&a); err != nil {
		t.Fatal(err)
	}
	if err := testProfiler().WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("pprof output differs across identical profiles")
	}
}

func TestParseDataRejectsGarbage(t *testing.T) {
	if _, err := ParseData([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Error("ParseData accepted garbage")
	}
	if _, err := ParseData([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("ParseData accepted truncated gzip")
	}
}

func TestLifecycleTelescopes(t *testing.T) {
	p := New(Options{}, testFreq)
	l := p.Lifecycle()
	s := &skb.SKB{
		WriteAt: 100, TCPTxAt: 150, NICTxAt: 220, WireAt: 300,
		Born: 450, GROAt: 460, TCPRxAt: 500,
	}
	l.Record(s, 700)
	b := l.Breakdown(testFreq)
	var stageSum float64
	for _, st := range b.Stages {
		if st.Stage == "total" {
			continue
		}
		if st.Count != 1 {
			t.Errorf("stage %s count = %d, want 1", st.Stage, st.Count)
		}
		stageSum += st.MeanNS
	}
	total := b.Stages[StageTotal]
	if stageSum != total.MeanNS {
		t.Errorf("stage sum %v != total %v", stageSum, total.MeanNS)
	}
	if total.MeanNS != 600 {
		t.Errorf("total mean = %v, want 600", total.MeanNS)
	}
}

func TestLifecycleDropsIncomplete(t *testing.T) {
	p := New(Options{}, testFreq)
	l := p.Lifecycle()
	l.Record(&skb.SKB{WriteAt: 0, TCPTxAt: 150}, 700) // pre-warmup write
	l.Record(&skb.SKB{}, 50)                          // pure ACK: no stamps
	if got := l.dropped; got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	if got := l.Breakdown(testFreq).Stages[StageTotal].Count; got != 0 {
		t.Errorf("total count = %d, want 0", got)
	}
}

func TestBreakdownFormat(t *testing.T) {
	p := New(Options{}, testFreq)
	l := p.Lifecycle()
	l.Record(&skb.SKB{
		WriteAt: 1000, TCPTxAt: 2000, NICTxAt: 3000, WireAt: 4000,
		Born: 5000, GROAt: 6000, TCPRxAt: 7000,
	}, 8000)
	out := l.Breakdown(testFreq).Format()
	for i := 0; i < NumStages; i++ {
		if !strings.Contains(out, StageName(i)) {
			t.Errorf("breakdown table missing stage %q:\n%s", StageName(i), out)
		}
	}
}
