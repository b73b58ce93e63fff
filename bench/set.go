package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"
)

// metricDef names one reported metric. The bounds are set on end-to-end
// metrics only: the share of the base median by which the metric may
// worsen before it counts as a regression (0: any rise does). Bound
// judges two sets run at the same seed, as -compare does. SeedBound is
// the bound BENCHMARK.json gives, for runs that each use another seed:
// there the simulated work itself differs from run to run, so allocation
// counts spread by several percent with no change to the code. README.md
// gives the measurements behind both.
type metricDef struct {
	Name, Unit       string
	Bound, SeedBound float64
}

// endToEnd lists the metrics a user of the simulator sees. Lower is better
// for all of them. BENCHMARK.json repeats every one but fail_frac, which
// is 0 on a correct run and is reported there as failed ÷ attempted.
var endToEnd = []metricDef{
	{"op_ms", "ms", 0.15, 0.20},
	{"setup_s", "s", 0.15, 0.25},
	{"allocs_per_op", "count", 0.01, 0.20},
	{"alloc_mb_per_op", "MB", 0.01, 0.05},
	{"peak_rss_mb", "MB", 0.10, 0.20},
	{"fail_frac", "ratio", 0, 0},
}

// extraDefs are printed next to op_ms but not gated. op_wall_ms is the
// median wall time of an op on this machine, not normalized (see refMS).
var extraDefs = []metricDef{{Name: "op_ms_p25", Unit: "ms"}, {Name: "op_ms_p90", Unit: "ms"},
	{Name: "op_wall_ms", Unit: "ms"}, {Name: "ops", Unit: "count"}}

// perLayer lists the traced run's metrics, all per op.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out, metricDef{Name: "self_ms." + l, Unit: "ms"})
	}
	out = append(out,
		metricDef{Name: "rt.map_ms", Unit: "ms"}, metricDef{Name: "rt.alloc_ms", Unit: "ms"},
		metricDef{Name: "trace.samples", Unit: "count"}, metricDef{Name: "trace.overhead_pct", Unit: "%"})
	for _, n := range simNames {
		unit := "count"
		switch n {
		case "sim.delivered_mb":
			unit = "MB"
		case "sim.cache_miss_rate":
			unit = "ratio"
		}
		out = append(out, metricDef{Name: n, Unit: unit})
	}
	return append(out, metricDef{Name: "machine.ref_ms", Unit: "ms"})
}()

// options selects what a set runs.
type options struct {
	seed      int64
	seconds   int // > 0: time each worker's ops instead of counting them
	trace     bool
	plan      plan
	workloads []workload
	golden    string // file holding fig3a's expected output, if any
}

// setResult is one set's measurements; -out writes it and -compare reads
// two of them.
type setResult struct {
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Workloads  []workloadResult `json:"workloads"`
}

// workloadResult is one workload's share of a set. Samples holds the
// values behind each end-to-end metric (per op, per set-up batch or per
// worker), so quantiles can be recomputed. Rounds holds each end-to-end
// metric computed over each round's worker alone: their spread is the
// metric's spread within the set.
type workloadResult struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Problems  []string             `json:"problems,omitempty"`
	Digest    string               `json:"digest"`
	Metrics   map[string]float64   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"`
	Rounds    map[string][]float64 `json:"rounds"`
}

// runSet runs every round of every workload and summarizes them.
func runSet(o options) (*setResult, error) {
	reps, err := collect(o)
	if err != nil {
		return nil, err
	}
	set := &setResult{Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	for i, wl := range o.workloads {
		set.Workloads = append(set.Workloads, summarize(wl.name, reps[i]))
	}
	return set, nil
}

// collect runs the set's rounds. Each round runs one worker process per
// workload, one at a time, so a burst of host noise lands on every
// workload instead of wiping out one. The last round's workers also run
// the traced phase.
func collect(o options) ([][]workerReport, error) {
	reps := make([][]workerReport, len(o.workloads))
	for r := range o.plan.Rounds {
		for i, wl := range o.workloads {
			spec := workerSpec{Plan: o.plan, Workload: wl.name, Seed: o.seed, Golden: o.golden,
				Trace: o.trace && r == o.plan.Rounds-1}
			switch {
			case o.seconds > 0:
				spec.Budget = time.Duration(o.seconds) * time.Second / time.Duration(o.plan.Rounds)
			case o.plan.Ops > 0:
				spec.Ops = o.plan.Ops
			default:
				spec.Ops = wl.opsPerSet / o.plan.Rounds
			}
			rep, err := spawn(spec)
			if err != nil {
				return nil, err
			}
			reps[i] = append(reps[i], rep)
		}
	}
	return reps, nil
}

// summarize turns one workload's worker reports into its metrics. A
// worker whose output digest differs from the first worker's fails all
// its ops: every op of a workload must produce the same output.
func summarize(name string, reps []workerReport) workloadResult {
	wr := workloadResult{Name: name, Digest: reps[0].Digest, Rounds: map[string][]float64{}}
	reps = slices.Clone(reps)
	for i := range reps {
		if reps[i].Digest != wr.Digest {
			reps[i].Failed = reps[i].Attempted
			wr.Problems = appendProblems(wr.Problems,
				fmt.Sprintf("worker %d output digest %.12s, worker 0 %.12s", i, reps[i].Digest, wr.Digest))
		}
		wr.Attempted += reps[i].Attempted
		wr.Failed += reps[i].Failed
		wr.Problems = appendProblems(wr.Problems, reps[i].Problems...)
		round, _ := endToEndOf(reps[i : i+1])
		for _, d := range endToEnd {
			wr.Rounds[d.Name] = append(wr.Rounds[d.Name], round[d.Name])
		}
	}
	wr.Metrics, wr.Samples = endToEndOf(reps)
	m := wr.Metrics
	for k, v := range reps[0].Sim {
		m[k] = v
	}
	var refMS []float64
	for _, rep := range reps {
		refMS = append(refMS, floats(slices.Concat(rep.OpRefNS, rep.SetupRefNS), 1e-6)...)
	}
	m["machine.ref_ms"] = median(refMS)
	wr.Samples["machine.ref_ms"] = refMS

	// The profiler's overhead: the profiled ops against the same worker's
	// timed ops, both normalized by the reference kernel.
	var tracedMS, timedMS []float64
	lp := layerProfile{LayerNS: map[string]int64{}}
	for _, rep := range reps {
		if rep.Profile != nil {
			tracedMS = append(tracedMS, normalized(rep.TracedNS, rep.TracedRefNS, 1)...)
			timedMS = append(timedMS, normalized(rep.OpNS, rep.OpRefNS, 1)...)
			lp.add(*rep.Profile)
		}
	}
	if n := float64(len(tracedMS)); n > 0 && median(timedMS) > 0 {
		for _, l := range layerNames {
			m["self_ms."+l] = float64(lp.LayerNS[l]) / n / 1e6
		}
		m["rt.map_ms"] = float64(lp.MapNS) / n / 1e6
		m["rt.alloc_ms"] = float64(lp.AllocNS) / n / 1e6
		m["trace.samples"] = float64(lp.Samples)
		m["trace.overhead_pct"] = (median(tracedMS)/median(timedMS) - 1) * 100
		wr.Samples["traced_op_ms"] = tracedMS
	}
	return wr
}

// endToEndOf computes the end-to-end metrics, and the samples behind
// them, over some of a workload's worker reports.
func endToEndOf(reps []workerReport) (map[string]float64, map[string][]float64) {
	var opMS, wallMS, setupS, mallocs, mb, rss []float64
	var attempted, failed int
	for _, rep := range reps {
		opMS = append(opMS, normalized(rep.OpNS, rep.OpRefNS, 1)...)
		wallMS = append(wallMS, floats(rep.OpNS, 1e-6)...)
		setupS = append(setupS, normalized(rep.SetupNS, rep.SetupRefNS, 1e-3)...)
		mallocs = append(mallocs, floats(rep.Mallocs, 1)...)
		mb = append(mb, floats(rep.Bytes, 1e-6)...)
		rss = append(rss, float64(rep.MaxRSSKB)*1024/1e6)
		attempted += rep.Attempted
		failed += rep.Failed
	}
	failFrac := 1.0
	if attempted > 0 {
		failFrac = float64(failed) / float64(attempted)
	}
	metrics := map[string]float64{
		"op_ms":           median(opMS),
		"op_ms_p25":       quantile(opMS, 0.25),
		"op_ms_p90":       quantile(opMS, 0.9),
		"op_wall_ms":      median(wallMS),
		"ops":             float64(len(opMS)),
		"setup_s":         median(setupS),
		"allocs_per_op":   mean(mallocs),
		"alloc_mb_per_op": mean(mb),
		// The smallest worker peak: a worker's peak also depends on when
		// its GC cycles happen to start, which puts some workers 20% higher.
		"peak_rss_mb": slices.Min(rss),
		"fail_frac":   failFrac,
	}
	samples := map[string][]float64{
		"op_ms": opMS, "op_wall_ms": wallMS, "setup_s": setupS, "allocs_per_op": mallocs,
		"alloc_mb_per_op": mb, "peak_rss_mb": rss,
	}
	return metrics, samples
}

// failed reports whether any op of the set failed.
func (s *setResult) failed() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			return true
		}
	}
	return false
}

// print writes the set as a table: per workload, every end-to-end metric
// with its spread and bound, then every per-layer metric that was
// measured.
func (s *setResult) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, GOMAXPROCS %d, %s\n", s.Seed, s.GOMAXPROCS, s.Go)
	for _, wr := range s.Workloads {
		fmt.Fprintf(w, "\n== %s: attempted %d, failed %d, digest %.16s ==\n", wr.Name, wr.Attempted, wr.Failed, wr.Digest)
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  FAIL %s\n", p)
		}
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-20s %14.6g %-6s spread %5.1f%%  bound %g%%\n",
				d.Name, wr.Metrics[d.Name], d.Unit, 100*spread(wr.Rounds[d.Name]), 100*d.Bound)
		}
		for _, d := range slices.Concat(extraDefs, perLayer) {
			if v, ok := wr.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-20s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// resultLine is the benchmark's last line of output: with trace off every
// end-to-end metric, with trace on every per-layer metric. With more than
// one workload each name is prefixed by its workload.
func (s *setResult) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: !s.failed(), Metrics: map[string]value{}}
	defs := perLayer
	if !s.Trace {
		defs = nil
		for _, d := range endToEnd {
			if d.Name != "fail_frac" { // reported as failed ÷ attempted
				defs = append(defs, d)
			}
		}
	}
	for _, wr := range s.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, d := range defs {
			name := d.Name
			if len(s.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			line.Metrics[name] = value{wr.Metrics[d.Name], d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil { // only for a NaN or an infinity, which no metric produces
		panic(err)
	}
	return string(b)
}
