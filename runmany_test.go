package hostsim_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hostsim"
)

// shortCfg is a small but steady-state run for batch tests.
func shortCfg(seed int64) hostsim.Config {
	return hostsim.Config{
		Stack:    hostsim.AllOptimizations(),
		Seed:     seed,
		Warmup:   4 * time.Millisecond,
		Duration: 6 * time.Millisecond,
	}
}

// TestRunManyMatchesSerial is the core determinism guarantee: a parallel
// batch reports exactly what a serial loop over Run reports, per job.
func TestRunManyMatchesSerial(t *testing.T) {
	var jobs []hostsim.Job
	for seed := int64(1); seed <= 4; seed++ {
		jobs = append(jobs, hostsim.Job{
			Config:   shortCfg(seed),
			Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
		})
	}
	serial := make([]*hostsim.Result, len(jobs))
	for i, j := range jobs {
		r, err := hostsim.Run(j.Config, j.Workload)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}
	par, err := hostsim.RunMany(jobs, hostsim.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a := fmt.Sprintf("%.6f|%.6f|%.6f|%v", serial[i].ThroughputGbps, serial[i].ThroughputPerCoreGbps, serial[i].Sender.BusyCores, serial[i].Sender.Breakdown)
		b := fmt.Sprintf("%.6f|%.6f|%.6f|%v", par[i].ThroughputGbps, par[i].ThroughputPerCoreGbps, par[i].Sender.BusyCores, par[i].Sender.Breakdown)
		if a != b {
			t.Errorf("job %d diverged:\nserial   %s\nparallel %s", i, a, b)
		}
	}
}

// TestRunManySamplersMatchSerial arms the telemetry and ss samplers on
// the pair and on a 16-host fabric and requires every job's telemetry and
// ss CSV bytes to be the same whether the batch runs one job at a time or
// four at once. Concurrent runs share the per-core column-name lists, so
// under the race detector this also checks that sharing.
func TestRunManySamplersMatchSerial(t *testing.T) {
	var jobs []hostsim.Job
	for seed := int64(1); seed <= 2; seed++ {
		for _, c := range []struct {
			fab   *hostsim.FabricOptions
			flows int
		}{{nil, 4}, {&hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}, 0}} {
			cfg := shortCfg(seed)
			cfg.Fabric = c.fab
			cfg.Telemetry = &hostsim.Telemetry{}
			cfg.Inspect = &hostsim.InspectOptions{SS: true}
			jobs = append(jobs, hostsim.Job{Config: cfg, Workload: hostsim.LongFlowWorkload(hostsim.PatternIncast, c.flows)})
		}
	}
	csvs := func(workers int) []string {
		res, err := hostsim.RunMany(jobs, hostsim.WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res))
		for i, r := range res {
			var b strings.Builder
			if err := r.Timeline.WriteCSV(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteString("--- ss\n")
			b.Write(artifact(t, r, "ss"))
			out[i] = b.String()
		}
		return out
	}
	par, serial := csvs(4), csvs(1)
	for i := range jobs {
		if serial[i] != par[i] {
			t.Errorf("job %d: sampler CSVs differ between parallelism 1 (%d bytes) and 4 (%d bytes)", i, len(serial[i]), len(par[i]))
		}
		if r := strings.Count(serial[i], "\n"); r < 10 {
			t.Errorf("job %d: only %d CSV lines", i, r)
		}
	}
}

func TestRunManyReportsFirstError(t *testing.T) {
	bad := shortCfg(1)
	bad.LossRate = 2 // invalid
	jobs := []hostsim.Job{
		{Config: shortCfg(1), Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)},
		{Config: bad, Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)},
	}
	res, err := hostsim.RunMany(jobs, hostsim.WithParallelism(2))
	if err == nil {
		t.Fatal("expected an error from the bad job")
	}
	if res[0] == nil {
		t.Error("good job should still have a result")
	}
	if res[1] != nil {
		t.Error("bad job should have a nil result")
	}
}

func benchmarkRunMany(b *testing.B, workers int) {
	jobs := make([]hostsim.Job, runtime.NumCPU())
	for i := range jobs {
		jobs[i] = hostsim.Job{
			Config:   shortCfg(int64(i + 1)),
			Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hostsim.RunMany(jobs, hostsim.WithParallelism(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunManySerial(b *testing.B)   { benchmarkRunMany(b, 1) }
func BenchmarkRunManyParallel(b *testing.B) { benchmarkRunMany(b, runtime.NumCPU()) }
