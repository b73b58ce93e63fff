package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// workerEnv marks a process as a worker: the benchmark re-executes its own
// binary with this variable set and the workerSpec on standard input.
const workerEnv = "HOSTSIM_BENCH_WORKER"

// plan holds the op counts of a set that do not depend on the workload.
type plan struct {
	Rounds       int           // workers per workload in a set
	WarmupOps    int           // untimed ops before anything is measured
	SetupBatches int           // build-only batches per worker
	BatchRuns    int           // build-only runs per batch at least
	BatchWall    time.Duration // and at least this long, so GC pauses average out
	Ops          int           // > 0 replaces every workload's timed ops per worker
	MinOps       int           // timed ops at least, even past a time budget
	TraceSamples int64         // the traced phase's profiles hold at least this many samples
	Window       time.Duration // > 0 replaces every workload's windows
}

// defaultPlan gives 30 set-up batches and 500 profile samples per
// workload.
var defaultPlan = plan{Rounds: 3, WarmupOps: 3, SetupBatches: 10, BatchRuns: 20,
	BatchWall: 10 * time.Millisecond, MinOps: 3, TraceSamples: 500}

// traceBlock is how long the profiler runs before it is stopped for a run
// of the reference kernel. Each stop waits for the profile writer, which
// wakes every 100 ms, so shorter blocks cost more wall time.
const traceBlock = 100 * time.Millisecond

// workerSpec is one worker's job.
type workerSpec struct {
	Plan     plan
	Workload string
	Seed     int64
	Golden   string        // file fig3a's output must equal, if set
	Ops      int           // timed ops, when Budget is 0
	Budget   time.Duration // run timed ops for this long
	Trace    bool          // run the traced phase after the timed ops
}

// workerReport is what a worker measured.
type workerReport struct {
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Problems    []string           `json:"problems,omitempty"` // the first few failures
	Digest      string             `json:"digest"`             // of the first op
	Sim         map[string]float64 `json:"sim"`                // of the first op
	OpNS        []int64            `json:"op_ns"`              // per timed op
	OpRefNS     []int64            `json:"op_ref_ns"`          // the reference kernel right after each timed op
	Mallocs     []uint64           `json:"mallocs"`            // per timed op
	Bytes       []uint64           `json:"bytes"`              // allocated per timed op
	SetupNS     []int64            `json:"setup_ns"`           // per build-only run, one per batch
	SetupRefNS  []int64            `json:"setup_ref_ns"`       // the reference kernel right after each batch
	TracedNS    []int64            `json:"traced_ns"`          // per profiled op
	TracedRefNS []int64            `json:"traced_ref_ns"`      // the reference kernel around each profiled op's block
	Profile     *layerProfile      `json:"profile,omitempty"`
	MaxRSSKB    int64              `json:"max_rss_kb"` // peak RSS up to the end of the timed ops
}

const workerTimeout = 150 * time.Second

// spawn runs one worker process and returns its report.
func spawn(spec workerSpec) (workerReport, error) {
	var rep workerReport
	exe, err := os.Executable()
	if err != nil {
		return rep, err
	}
	in, err := json.Marshal(spec)
	if err != nil {
		return rep, err
	}
	// No worker of a healthy simulator comes near this; a hung one is
	// killed, so the benchmark still ends and leaves no process behind.
	ctx, cancel := context.WithTimeout(context.Background(), workerTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep, fmt.Errorf("%s worker: %w", spec.Workload, err)
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("%s worker report: %w", spec.Workload, err)
	}
	return rep, nil
}

// workerMain is a worker process's main: spec on stdin, report on stdout.
func workerMain() int {
	var spec workerSpec
	if err := json.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker: reading spec:", err)
		return 1
	}
	rep, err := runWorker(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench worker %s: %v\n", spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench worker: writing report:", err)
		return 1
	}
	return 0
}

// worker runs and checks ops of one instance.
type worker struct {
	inst   instance
	ref    *refKernel
	expect string
	rep    workerReport
}

// op runs one op, checks its output and returns its wall time. With mem
// set it also records the op's allocations.
func (w *worker) op(mem bool) int64 {
	var before, after runtime.MemStats
	if mem {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	res, text, err := w.inst.run()
	ns := time.Since(start).Nanoseconds()
	if mem {
		runtime.ReadMemStats(&after)
		w.rep.Mallocs = append(w.rep.Mallocs, after.Mallocs-before.Mallocs)
		w.rep.Bytes = append(w.rep.Bytes, after.TotalAlloc-before.TotalAlloc)
	}
	w.rep.Attempted++
	var problems []string
	if err != nil {
		problems = []string{err.Error()}
	} else {
		d := digest(res, text)
		if w.rep.Digest == "" {
			w.rep.Digest, w.rep.Sim = d, simCounts(res)
		}
		if w.expect == "" {
			w.expect = d
		}
		if d != w.expect {
			problems = append(problems, fmt.Sprintf("output digest %.12s, want %.12s", d, w.expect))
		}
		if w.inst.check != nil {
			problems = append(problems, w.inst.check(res)...)
		}
	}
	if len(problems) > 0 {
		w.rep.Failed++
		w.rep.Problems = appendProblems(w.rep.Problems, problems...)
	}
	return ns
}

// appendProblems keeps the first few failure reasons.
func appendProblems(dst []string, p ...string) []string {
	const keep = 8
	for _, s := range p {
		if len(dst) < keep {
			dst = append(dst, s)
		}
	}
	return dst
}

// runWorker runs the warm-up ops, the timed ops with the set-up batches
// spread evenly among them and, when asked, the traced phase. Other
// tenants of a shared machine slow it for seconds at a time; batches run
// back to back would all land in one such stretch, while spread out they
// see the same mix of quiet and busy moments as the timed ops.
func runWorker(s workerSpec) (workerReport, error) {
	wl, ok := workloadByName(s.Workload)
	if !ok {
		return workerReport{}, fmt.Errorf("unknown workload %q", s.Workload)
	}
	// The kernel's mapping first, so that it is resident at every peak.
	ref, err := newRefKernel()
	if err != nil {
		return workerReport{}, fmt.Errorf("reference kernel: %w", err)
	}
	inst, err := wl.start(s.Seed, s.Plan.Window, s.Golden)
	if err != nil {
		return workerReport{}, err
	}
	w := &worker{inst: inst, ref: ref, expect: inst.expect}
	for range s.Plan.WarmupOps {
		w.op(false)
		w.ref.run()
	}
	// done is the share of the timed ops run so far, by count or by time;
	// the set-up batches do not count against a time budget. Each timed op
	// is followed by a run of the reference kernel (see refMS).
	start, inSetup := time.Now(), time.Duration(0)
	done := func(n int) float64 {
		if s.Budget > 0 {
			return float64(time.Since(start)-inSetup) / float64(s.Budget)
		}
		return float64(n) / float64(max(s.Ops, 1))
	}
	for n := 0; ; n++ {
		for b := len(w.rep.SetupNS); b < s.Plan.SetupBatches && done(n) >= float64(b)/float64(s.Plan.SetupBatches); b++ {
			t := time.Now()
			if err := w.setupBatch(s.Plan); err != nil {
				return workerReport{}, err
			}
			inSetup += time.Since(t)
		}
		if done(n) >= 1 && n >= s.Plan.MinOps {
			break
		}
		w.rep.OpNS = append(w.rep.OpNS, w.op(true))
		w.rep.OpRefNS = append(w.rep.OpRefNS, w.ref.run())
	}
	// The peak so far, before the profiler's buffers add to it.
	if w.rep.MaxRSSKB, err = peakRSSKB(); err != nil {
		return workerReport{}, err
	}
	if s.Trace {
		if err := w.traced(s.Plan); err != nil {
			return workerReport{}, err
		}
	}
	return w.rep, nil
}

// peakRSSKB returns the process's peak resident set size, VmHWM in
// /proc/self/status, less the reference kernel's mapping, which is
// resident from the worker's start. getrusage's Maxrss would not do: Linux
// carries it across exec, and a worker is started by a vfork-style clone
// that shares the benchmark's memory until exec, so Maxrss never reads
// below the benchmark's own peak.
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb - refBytes/1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupBatch times at least p.BatchRuns build-only runs, lasting at least
// p.BatchWall, and records their mean and the reference kernel's time
// right after them.
func (w *worker) setupBatch(p plan) error {
	start, runs := time.Now(), 0
	for runs < p.BatchRuns || time.Since(start) < p.BatchWall {
		if err := w.inst.setup(); err != nil {
			return fmt.Errorf("build-only run: %w", err)
		}
		runs++
	}
	w.rep.SetupNS = append(w.rep.SetupNS, time.Since(start).Nanoseconds()/int64(runs))
	w.rep.SetupRefNS = append(w.rep.SetupRefNS, w.ref.run())
	return nil
}

// traced runs a third as many ops as were timed, or more until the
// profiles hold p.TraceSamples samples, under the CPU profiler, and
// buckets the profiles by layer. The profiler runs in blocks of about
// traceBlock and is stopped between them for a run of the reference
// kernel: under the profiler the kernel would slow as much as the ops and
// hide the profiler's cost. Each profiled op is normalized by the mean of
// the kernel runs on either side of its block, so it compares with the
// timed ops however the machine's speed drifted in between.
func (w *worker) traced(p plan) error {
	n := (len(w.rep.OpNS) + 2) / 3
	lp := layerProfile{LayerNS: map[string]int64{}}
	before := w.ref.run()
	for len(w.rep.TracedNS) < n || lp.Samples < p.TraceSamples {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return err
		}
		var block []int64
		for start := time.Now(); len(block) == 0 || time.Since(start) < traceBlock; {
			block = append(block, w.op(false))
		}
		pprof.StopCPUProfile()
		after := w.ref.run()
		for range block {
			w.rep.TracedRefNS = append(w.rep.TracedRefNS, (before+after)/2)
		}
		w.rep.TracedNS = append(w.rep.TracedNS, block...)
		before = after
		bp, err := bucket(buf.Bytes())
		if err != nil {
			return fmt.Errorf("decoding the CPU profile: %w", err)
		}
		lp.add(bp)
	}
	w.rep.Profile = &lp
	return nil
}
