package hostsim_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/profile"
)

// profCfg is a short profiled run.
func profCfg(seed int64) hostsim.Config {
	cfg := shortCfg(seed)
	cfg.Profile = &hostsim.ProfileOptions{}
	return cfg
}

func runProfiled(t *testing.T, cfg hostsim.Config, wl hostsim.Workload) *hostsim.Result {
	t.Helper()
	res, err := hostsim.Run(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The profiler's per-category cycle totals must reconcile EXACTLY with
// the cores' own category accounting: both views merge at the same
// work-item completion point and reset at the same warmup boundary, so
// any drift is a double-count or a leak.
func TestProfileReconcilesWithBreakdown(t *testing.T) {
	for _, wl := range []hostsim.Workload{
		hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
		hostsim.MixedWorkload(8, 16*1024),
	} {
		res := runProfiled(t, profCfg(3), wl)
		fromProfile := map[string]int64{}
		for _, s := range res.CycleProfile {
			if len(s.Frames) < 3 {
				t.Fatalf("stack %v too short", s.Frames)
			}
			fromProfile[s.Frames[2]] += s.Cycles
		}
		fromHosts := map[string]int64{}
		for _, h := range []hostsim.HostStats{res.Sender, res.Receiver} {
			for cat, c := range h.BreakdownCycles {
				fromHosts[cat] += c
			}
		}
		for cat, want := range fromHosts {
			if want == 0 {
				continue
			}
			if got := fromProfile[cat]; got != want {
				t.Errorf("%s/%s: profile has %d cycles, host accounting has %d",
					wl.Kind, cat, got, want)
			}
		}
		for cat, got := range fromProfile {
			if fromHosts[cat] == 0 && got != 0 {
				t.Errorf("%s/%s: profile has %d cycles unknown to host accounting",
					wl.Kind, cat, got)
			}
		}
	}
}

// Folded output and the latency table must be byte-identical whether the
// batch ran serially or on 8 workers — the profiler must not introduce
// any scheduling- or map-order-dependent state.
func TestProfileDeterministicAcrossParallelism(t *testing.T) {
	var jobs []hostsim.Job
	for seed := int64(1); seed <= 3; seed++ {
		jobs = append(jobs, hostsim.Job{
			Config:   profCfg(seed),
			Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
		})
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
		if a, b := artifact(t, serial[i], "folded"), artifact(t, par[i], "folded"); !bytes.Equal(a, b) {
			t.Errorf("job %d: folded output differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", i, a, b)
		}
		if sa, sb := serial[i].LatencyBreakdown.Format(), par[i].LatencyBreakdown.Format(); sa != sb {
			t.Errorf("job %d: latency breakdown differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s",
				i, sa, sb)
		}
		if !bytes.Equal(artifact(t, serial[i], "pprof"), artifact(t, par[i], "pprof")) {
			t.Errorf("job %d: pprof bytes differ between -jobs 1 and -jobs 8", i)
		}
	}
}

// The pprof artifact must be a profile the in-repo parser round-trips, with
// the same stacks and cycle counts the Result reports.
func TestProfilePprofRoundTrip(t *testing.T) {
	res := runProfiled(t, profCfg(7), hostsim.MixedWorkload(4, 16*1024))
	pprof := artifact(t, res, "pprof")
	if _, err := profile.CheckPprof(pprof); err != nil {
		t.Fatal(err)
	}
	p, err := profile.ParseData(pprof)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != len(res.CycleProfile) {
		t.Fatalf("parsed %d samples, Result has %d stacks", len(p.Samples), len(res.CycleProfile))
	}
	got := map[string]int64{}
	for _, s := range p.Samples {
		got[strings.Join(s.Stack, ";")] = s.Values[0]
	}
	for _, s := range res.CycleProfile {
		key := strings.Join(s.Frames, ";")
		if got[key] != s.Cycles {
			t.Errorf("stack %s: parsed %d cycles, Result has %d", key, got[key], s.Cycles)
		}
	}
}

// Latency stages telescope: consecutive lifecycle stamps partition the
// app-write→app-read interval, so per-stage means sum to the total mean.
// Checked on a single long flow, the acceptance-criterion case.
func TestProfileStageMeansSumToTotal(t *testing.T) {
	res := runProfiled(t, profCfg(11), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	lb := res.LatencyBreakdown
	if lb == nil {
		t.Fatal("no latency breakdown")
	}
	var sum, total time.Duration
	var count int64
	for _, st := range lb.Stages {
		if st.Stage == profile.StageName(profile.StageTotal) {
			total = st.Mean
			count = st.Count
			continue
		}
		sum += st.Mean
	}
	if count == 0 {
		t.Fatal("no complete lifecycle samples recorded")
	}
	if total <= 0 {
		t.Fatalf("total mean = %v", total)
	}
	// Means are per-stage sums over the same sample count; integer
	// nanosecond rounding allows at most 1ns per stage of slack.
	if diff := sum - total; diff < -time.Duration(len(lb.Stages)) || diff > time.Duration(len(lb.Stages)) {
		t.Errorf("stage means sum to %v, total is %v (diff %v)", sum, total, diff)
	}
}

// Without Config.Profile the Result carries no profile and lists no
// profile artifacts, rather than empty ones.
func TestProfileAbsentByDefault(t *testing.T) {
	res, err := hostsim.Run(shortCfg(2), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.CycleProfile != nil || res.LatencyBreakdown != nil {
		t.Error("profile populated without Config.Profile")
	}
	if arts := res.Artifacts(); len(arts) != 0 {
		t.Errorf("unobserved run lists %d artifacts, first %s", len(arts), arts[0].Name)
	}
}

// Flow classes derived from the workload appear as leaf frames.
func TestProfileFlowClasses(t *testing.T) {
	res := runProfiled(t, profCfg(5), hostsim.MixedWorkload(4, 16*1024))
	seen := map[string]bool{}
	for _, s := range res.CycleProfile {
		if len(s.Frames) == 4 {
			seen[s.Frames[3]] = true
		}
	}
	for _, class := range []string{"long", "rpc"} {
		if !seen[class] {
			t.Errorf("no stack with flow class %q; saw %v", class, seen)
		}
	}
}

func benchProfile(b *testing.B, cfg hostsim.Config) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.Run(cfg, wl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileOff/On measure the end-to-end cost of the profiler on
// a full run; the ledger's observed16 workload (`make bench`) measures
// every observer armed at once.
func BenchmarkProfileOff(b *testing.B) { benchProfile(b, shortCfg(1)) }
func BenchmarkProfileOn(b *testing.B)  { benchProfile(b, profCfg(1)) }
