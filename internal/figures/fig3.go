package figures

import (
	"fmt"
	"time"

	"hostsim"
)

func init() {
	register(Experiment{
		ID:     "fig3a",
		Title:  "Single flow: throughput-per-core by optimization level",
		Paper:  "No-opt a few Gbps; all optimizations reach ~42Gbps/core; each step helps",
		Runs:   singleFlowSpecs(fig3aSteps()),
		Render: fig3a,
	})
	register(Experiment{
		ID:     "fig3b",
		Title:  "Single flow: sender/receiver CPU utilization by optimization level",
		Paper:  "Receiver-side CPU is always the bottleneck; aRFS halves receiver utilization",
		Runs:   ladderSpecs,
		Render: fig3b,
	})
	register(Experiment{
		ID:     "fig3c",
		Title:  "Single flow: sender CPU breakdown",
		Paper:  "With all optimizations data copy dominates the sender",
		Runs:   ladderSpecs,
		Render: breakdown("fig3c", "Sender CPU breakdown by optimization level", "config", labels(ladder(), stepName), true),
	})
	register(Experiment{
		ID:     "fig3d",
		Title:  "Single flow: receiver CPU breakdown",
		Paper:  "With all optimizations data copy takes ~49% of receiver cycles",
		Runs:   ladderSpecs,
		Render: breakdown("fig3d", "Receiver CPU breakdown by optimization level", "config", labels(ladder(), stepName), false),
	})
	register(Experiment{
		ID:     "fig3e",
		Title:  "Cache miss rate and throughput vs NIC ring size and TCP Rx buffer",
		Paper:  "Miss rate rises with ring size and buffer size; 3200KB + small ring is optimal (~55Gbps)",
		Runs:   fig3eSpecs,
		Render: fig3e,
	})
	register(Experiment{
		ID:    "fig3f",
		Title: "NAPI-to-copy latency vs TCP Rx buffer size",
		Paper: "Latency rises rapidly beyond 1600KB buffers (to milliseconds)",
		Runs: sweep(len(fig3fKBs), singleFlow(), func(s *runSpec, i int) {
			s.cfg.Stack.RcvBufBytes = fig3fKBs[i] << 10
		}),
		Render: fig3f,
	})
}

// singleFlowSpecs names one single-flow transfer per step.
func singleFlowSpecs(steps []stackStep) func(RunConfig) []runSpec {
	return sweep(len(steps), singleFlow(), func(s *runSpec, i int) { s.cfg.Stack = steps[i].Stack })
}

// ladderSpecs names the ladder's runs, which Figs. 3a-3d share.
var ladderSpecs = singleFlowSpecs(ladder())

// fig3aSteps is the ladder and its leave-one-out columns, one batch: with
// no barrier between them, the workers stay busy until the last run.
func fig3aSteps() []stackStep { return append(ladder(), ablations()...) }

func fig3a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig3a",
		Title:   "Single flow throughput-per-core (Gbps)",
		Columns: []string{"config", "thpt-per-core", "total-thpt"},
	}
	for i, step := range fig3aSteps() {
		r := res[i]
		t.Rows = append(t.Rows, []string{step.Name, gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps)})
	}
	t.Notes = append(t.Notes, "paper: ~42Gbps/core with all optimizations")
	return t, nil
}

func fig3b(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig3b",
		Title:   "Single flow CPU utilization (% of one core)",
		Columns: []string{"config", "sender-cpu", "receiver-cpu"},
	}
	for i, step := range ladder() {
		r := res[i]
		t.Rows = append(t.Rows, []string{
			step.Name,
			fmt.Sprintf("%.0f%%", r.Sender.BusyCores*100),
			fmt.Sprintf("%.0f%%", r.Receiver.BusyCores*100),
		})
	}
	t.Notes = append(t.Notes, "paper: receiver CPU always exceeds sender CPU")
	return t, nil
}

// fig3eBuffers are Fig. 3e's Rx buffer sizes (0 is autotuned), each swept
// over fig3eRings.
var fig3eBuffers = []struct {
	name  string
	bytes int64
}{
	{"3200KB", 3200 << 10},
	{"6400KB", 6400 << 10},
	{"default", 0},
}

var fig3eRings = []int{128, 256, 512, 1024, 2048, 4096, 8192}

// fig3eSpecs is the buffer x ring grid, the rings of one buffer together.
var fig3eSpecs = sweep(len(fig3eBuffers)*len(fig3eRings), singleFlow(), func(s *runSpec, i int) {
	s.cfg.Stack.RcvBufBytes = fig3eBuffers[i/len(fig3eRings)].bytes
	s.cfg.Stack.RxDescriptors = fig3eRings[i%len(fig3eRings)]
})

func fig3e(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig3e",
		Title:   "Throughput and receiver cache miss rate vs ring size x Rx buffer",
		Columns: []string{"rx-buffer", "ring", "thpt-gbps", "miss-rate"},
	}
	for i, r := range res {
		buf, ring := fig3eBuffers[i/len(fig3eRings)], fig3eRings[i%len(fig3eRings)]
		t.Rows = append(t.Rows, []string{
			buf.name, fmt.Sprintf("%d", ring),
			gb(r.ThroughputGbps), pct(r.Receiver.CacheMissRate),
		})
	}
	t.Notes = append(t.Notes,
		"paper: miss rate rises with ring size and with buffer size; 3200KB + <=512 descriptors is optimal")
	return t, nil
}

var fig3fKBs = []int64{100, 200, 400, 800, 1600, 3200, 6400, 12800}

func fig3f(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig3f",
		Title:   "Latency from NAPI to start of data copy vs Rx buffer size",
		Columns: []string{"rx-buffer-KB", "avg-latency", "p99-latency", "thpt-gbps"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", fig3fKBs[i]),
			r.Receiver.LatencyAvg.Round(time.Microsecond).String(),
			r.Receiver.LatencyP99.Round(time.Microsecond).String(),
			gb(r.ThroughputGbps),
		})
	}
	t.Notes = append(t.Notes, "paper: avg and p99 rise rapidly beyond 1600KB")
	return t, nil
}
