package figures

import (
	"fmt"
	"time"

	"hostsim"
)

func init() {
	register(Experiment{
		ID:    "fig3a",
		Title: "Single flow: throughput-per-core by optimization level",
		Paper: "No-opt a few Gbps; all optimizations reach ~42Gbps/core; each step helps",
		Run:   fig3a,
	})
	register(Experiment{
		ID:    "fig3b",
		Title: "Single flow: sender/receiver CPU utilization by optimization level",
		Paper: "Receiver-side CPU is always the bottleneck; aRFS halves receiver utilization",
		Run:   fig3b,
	})
	register(Experiment{
		ID:    "fig3c",
		Title: "Single flow: sender CPU breakdown",
		Paper: "With all optimizations data copy dominates the sender",
		Run:   fig3c,
	})
	register(Experiment{
		ID:    "fig3d",
		Title: "Single flow: receiver CPU breakdown",
		Paper: "With all optimizations data copy takes ~49% of receiver cycles",
		Run:   fig3d,
	})
	register(Experiment{
		ID:    "fig3e",
		Title: "Cache miss rate and throughput vs NIC ring size and TCP Rx buffer",
		Paper: "Miss rate rises with ring size and buffer size; 3200KB + small ring is optimal (~55Gbps)",
		Run:   fig3e,
	})
	register(Experiment{
		ID:    "fig3f",
		Title: "NAPI-to-copy latency vs TCP Rx buffer size",
		Paper: "Latency rises rapidly beyond 1600KB buffers (to milliseconds)",
		Run:   fig3f,
	})
}

// singleFlowSpecs names one single-flow transfer per step.
func singleFlowSpecs(rc RunConfig, steps []stackStep) []runSpec {
	specs := make([]runSpec, len(steps))
	for i, step := range steps {
		specs[i] = runSpec{rc.config(step.Stack), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)}
	}
	return specs
}

// fig3a submits the ladder and its leave-one-out columns as one batch:
// with no barrier between them, the workers stay busy until the last run.
// Figs. 3b-3d share the ladder's runs through the memo.
func fig3a(rc RunConfig) (*Table, error) {
	steps := append(ladder(), ablations()...)
	results, err := runBatch(rc, singleFlowSpecs(rc, steps))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3a",
		Title:   "Single flow throughput-per-core (Gbps)",
		Columns: []string{"config", "thpt-per-core", "total-thpt"},
	}
	for i, step := range steps {
		r := results[i]
		t.Rows = append(t.Rows, []string{step.Name, gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps)})
	}
	t.Notes = append(t.Notes, "paper: ~42Gbps/core with all optimizations")
	return t, nil
}

func fig3b(rc RunConfig) (*Table, error) {
	steps := ladder()
	results, err := runBatch(rc, singleFlowSpecs(rc, steps))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3b",
		Title:   "Single flow CPU utilization (% of one core)",
		Columns: []string{"config", "sender-cpu", "receiver-cpu"},
	}
	for i, step := range steps {
		r := results[i]
		t.Rows = append(t.Rows, []string{
			step.Name,
			fmt.Sprintf("%.0f%%", r.Sender.BusyCores*100),
			fmt.Sprintf("%.0f%%", r.Receiver.BusyCores*100),
		})
	}
	t.Notes = append(t.Notes, "paper: receiver CPU always exceeds sender CPU")
	return t, nil
}

func fig3c(rc RunConfig) (*Table, error) {
	return ladderBreakdown(rc, "fig3c", "Sender CPU breakdown by optimization level", true)
}

func fig3d(rc RunConfig) (*Table, error) {
	return ladderBreakdown(rc, "fig3d", "Receiver CPU breakdown by optimization level", false)
}

func ladderBreakdown(rc RunConfig, id, title string, sender bool) (*Table, error) {
	steps := ladder()
	results, err := runBatch(rc, singleFlowSpecs(rc, steps))
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Columns: breakdownHeader("config")}
	for i, step := range steps {
		r := results[i]
		bd := r.Receiver.Breakdown
		if sender {
			bd = r.Sender.Breakdown
		}
		t.Rows = append(t.Rows, breakdownRow(step.Name, bd))
	}
	return t, nil
}

func fig3e(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig3e",
		Title:   "Throughput and receiver cache miss rate vs ring size x Rx buffer",
		Columns: []string{"rx-buffer", "ring", "thpt-gbps", "miss-rate"},
	}
	buffers := []struct {
		name  string
		bytes int64
	}{
		{"3200KB", 3200 << 10},
		{"6400KB", 6400 << 10},
		{"default", 0}, // autotuned
	}
	rings := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	var specs []runSpec
	var labels [][2]string
	for _, buf := range buffers {
		for _, ring := range rings {
			s := hostsim.AllOptimizations()
			s.RcvBufBytes = buf.bytes
			s.RxDescriptors = ring
			specs = append(specs, runSpec{rc.config(s), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)})
			labels = append(labels, [2]string{buf.name, fmt.Sprintf("%d", ring)})
		}
	}
	results, err := runBatch(rc, specs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			labels[i][0], labels[i][1],
			gb(r.ThroughputGbps), pct(r.Receiver.CacheMissRate),
		})
	}
	t.Notes = append(t.Notes,
		"paper: miss rate rises with ring size and with buffer size; 3200KB + <=512 descriptors is optimal")
	return t, nil
}

func fig3f(rc RunConfig) (*Table, error) {
	t := &Table{
		ID:      "fig3f",
		Title:   "Latency from NAPI to start of data copy vs Rx buffer size",
		Columns: []string{"rx-buffer-KB", "avg-latency", "p99-latency", "thpt-gbps"},
	}
	kbs := []int64{100, 200, 400, 800, 1600, 3200, 6400, 12800}
	specs := make([]runSpec, len(kbs))
	for i, kb := range kbs {
		s := hostsim.AllOptimizations()
		s.RcvBufBytes = kb << 10
		specs[i] = runSpec{rc.config(s), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)}
	}
	results, err := runBatch(rc, specs)
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kbs[i]),
			r.Receiver.LatencyAvg.Round(time.Microsecond).String(),
			r.Receiver.LatencyP99.Round(time.Microsecond).String(),
			gb(r.ThroughputGbps),
		})
	}
	t.Notes = append(t.Notes, "paper: avg and p99 rise rapidly beyond 1600KB")
	return t, nil
}
