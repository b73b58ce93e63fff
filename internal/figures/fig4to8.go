package figures

import (
	"fmt"
	"strconv"

	"hostsim"
)

func init() {
	register(Experiment{
		ID:    "fig4",
		Title: "Single flow on NIC-local vs NIC-remote NUMA node",
		Paper: "NIC-remote NUMA costs ~20% throughput-per-core; miss rate jumps",
		Runs: func(rc RunConfig) []runSpec {
			return []runSpec{allOpts(rc, singleFlow()),
				allOpts(rc, hostsim.Workload{Kind: "long", Pattern: hostsim.PatternSingle, RemoteNUMA: true})}
		},
		Render: fig4,
	})
	register(Experiment{
		ID:    "fig5a",
		Title: "One-to-one: throughput-per-core vs flow count",
		Paper: "Throughput-per-core drops 64% from 1 to 24 flows; link saturates at 8",
		Runs:  ladderFlowSpecs(hostsim.PatternOneToOne),
		Render: ladderFlows("fig5a", "One-to-one throughput-per-core by optimization level and flow count",
			"paper: tpc decreases 64% by 24 flows despite one flow per core",
			func(r *hostsim.Result) float64 { return r.ThroughputPerCoreGbps }),
	})
	register(Experiment{
		ID:     "fig5b",
		Title:  "One-to-one: sender CPU breakdown vs flow count",
		Paper:  "Data-copy share falls, scheduling share rises with flows",
		Runs:   patternSpecs(hostsim.PatternOneToOne),
		Render: flowsBreakdown("fig5b", hostsim.PatternOneToOne, true),
	})
	register(Experiment{
		ID:     "fig5c",
		Title:  "One-to-one: receiver CPU breakdown vs flow count",
		Paper:  "Memory share falls (page recycling), scheduling share rises (idling)",
		Runs:   patternSpecs(hostsim.PatternOneToOne),
		Render: flowsBreakdown("fig5c", hostsim.PatternOneToOne, false),
	})
	register(Experiment{
		ID:     "fig6a",
		Title:  "Incast: throughput-per-core vs flow count",
		Paper:  "~19% throughput-per-core drop at 8 flows vs single flow",
		Runs:   patternSpecs(hostsim.PatternIncast),
		Render: fig6a,
	})
	register(Experiment{
		ID:     "fig6b",
		Title:  "Incast: receiver CPU breakdown vs flow count",
		Paper:  "Breakdown stays stable: no categorical shift, only per-byte copy cost grows",
		Runs:   patternSpecs(hostsim.PatternIncast),
		Render: flowsBreakdown("fig6b", hostsim.PatternIncast, false),
	})
	register(Experiment{
		ID:     "fig6c",
		Title:  "Incast: receiver cache miss rate vs flow count",
		Paper:  "Miss rate climbs 48% -> 78% from 1 to 8 flows, tracking the tpc loss",
		Runs:   patternSpecs(hostsim.PatternIncast),
		Render: fig6c,
	})
	register(Experiment{
		ID:    "fig7a",
		Title: "Outcast: throughput-per-sender-core vs flow count",
		Paper: "Sender pipeline reaches ~89Gbps per core at 8 flows (2.1x the incast receiver)",
		Runs:  ladderFlowSpecs(hostsim.PatternOutcast),
		Render: ladderFlows("fig7a", "Outcast throughput-per-sender-core by optimization level and flow count",
			"paper: ~89Gbps per sender core at 8 flows",
			func(r *hostsim.Result) float64 { return r.ThroughputGbps / r.Sender.BusyCores }),
	})
	register(Experiment{
		ID:     "fig7b",
		Title:  "Outcast: sender CPU breakdown vs flow count",
		Paper:  "Data copy remains the dominant consumer even at the sender",
		Runs:   patternSpecs(hostsim.PatternOutcast),
		Render: flowsBreakdown("fig7b", hostsim.PatternOutcast, true),
	})
	register(Experiment{
		ID:     "fig7c",
		Title:  "Outcast: CPU utilization and sender cache miss",
		Paper:  "Sender core saturates from 8 flows; sender misses stay low (~11%)",
		Runs:   patternSpecs(hostsim.PatternOutcast),
		Render: fig7c,
	})
	register(Experiment{
		ID:     "fig8a",
		Title:  "All-to-all: throughput-per-core vs grid size",
		Paper:  "~67% throughput-per-core loss from 1x1 to 24x24",
		Runs:   patternSpecs(hostsim.PatternAllToAll),
		Render: fig8a,
	})
	register(Experiment{
		ID:     "fig8b",
		Title:  "All-to-all: receiver CPU breakdown vs grid size",
		Paper:  "TCP/IP share rises (smaller skbs), memory falls, scheduling rises",
		Runs:   patternSpecs(hostsim.PatternAllToAll),
		Render: breakdown("fig8b", "All-to-all receiver CPU breakdown", "flows", gridLabels, false),
	})
	register(Experiment{
		ID:     "fig8c",
		Title:  "All-to-all: post-GRO skb size distribution",
		Paper:  "The 64KB skb share collapses as flow count grows",
		Runs:   patternSpecs(hostsim.PatternAllToAll),
		Render: fig8c,
	})
}

var flowCounts = []int{1, 8, 16, 24}

// flowLabels and gridLabels label flowCounts' rows: n flows, or an n x n
// all-to-all grid.
var (
	flowLabels = labels(flowCounts, strconv.Itoa)
	gridLabels = labels(flowCounts, func(n int) string { return fmt.Sprintf("%dx%d", n, n) })
)

// flowWorkload is n long flows in pattern p; one flow is the single-flow
// baseline whatever the pattern.
func flowWorkload(p hostsim.Pattern, n int) hostsim.Workload {
	if n == 1 {
		return singleFlow()
	}
	return hostsim.LongFlowWorkload(p, n)
}

// patternSpecs names one all-optimizations run of p per flow count.
func patternSpecs(p hostsim.Pattern) func(RunConfig) []runSpec {
	return sweep(len(flowCounts), singleFlow(), func(s *runSpec, i int) { s.wl = flowWorkload(p, flowCounts[i]) })
}

// ladderFlowSpecs names one run of p per flow count and ladder step, the
// steps of one flow count together.
func ladderFlowSpecs(p hostsim.Pattern) func(RunConfig) []runSpec {
	steps := ladder()
	return sweep(len(flowCounts)*len(steps), singleFlow(), func(s *runSpec, i int) {
		s.cfg.Stack = steps[i%len(steps)].Stack
		s.wl = flowWorkload(p, flowCounts[i/len(steps)])
	})
}

// ladderFlows renders ladderFlowSpecs' runs: one row per flow count with
// val of each ladder step's run, then the all-optimizations total.
func ladderFlows(id, title, note string, val func(*hostsim.Result) float64) func(RunConfig, []*hostsim.Result) (*Table, error) {
	return func(_ RunConfig, res []*hostsim.Result) (*Table, error) {
		t := &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"flows", "no-opt", "+tso/gro", "+jumbo", "+arfs", "total-thpt(all)"},
			Notes:   []string{note},
		}
		steps := len(ladder())
		for i, n := range flowCounts {
			row := []string{fmt.Sprintf("%d", n)}
			for _, r := range res[i*steps : (i+1)*steps] {
				row = append(row, gb(val(r)))
			}
			t.Rows = append(t.Rows, append(row, gb(res[(i+1)*steps-1].ThroughputGbps)))
		}
		return t, nil
	}
}

func flowsBreakdown(id string, p hostsim.Pattern, sender bool) func(RunConfig, []*hostsim.Result) (*Table, error) {
	return breakdown(id, "CPU breakdown vs flow count ("+string(p)+")", "flows", flowLabels, sender)
}

func fig4(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	local, remote := res[0], res[1]
	t := &Table{
		ID:      "fig4",
		Title:   "NIC-local vs NIC-remote NUMA placement (single flow)",
		Columns: []string{"placement", "thpt-per-core", "miss-rate"},
		Rows: [][]string{
			{"NIC-local NUMA", gb(local.ThroughputPerCoreGbps), pct(local.Receiver.CacheMissRate)},
			{"NIC-remote NUMA", gb(remote.ThroughputPerCoreGbps), pct(remote.Receiver.CacheMissRate)},
		},
	}
	drop := 1 - remote.ThroughputPerCoreGbps/local.ThroughputPerCoreGbps
	t.Notes = append(t.Notes, fmt.Sprintf("throughput-per-core drop: %.0f%% (paper ~20%%)", drop*100))
	return t, nil
}

func fig6a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig6a",
		Title:   "Incast throughput-per-core vs flow count",
		Columns: []string{"flows", "thpt-per-core", "total-thpt"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{flowLabels[i], gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps)})
	}
	return t, nil
}

func fig6c(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig6c",
		Title:   "Incast receiver cache miss rate vs flow count",
		Columns: []string{"flows", "miss-rate", "thpt-per-core"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{flowLabels[i], pct(r.Receiver.CacheMissRate), gb(r.ThroughputPerCoreGbps)})
	}
	t.Notes = append(t.Notes, "paper: miss growth correlates with tpc degradation")
	return t, nil
}

func fig7c(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig7c",
		Title:   "Outcast CPU utilization and sender-side copy cache behaviour",
		Columns: []string{"flows", "sender-cpu", "receiver-cpu", "sender-copy-share"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{flowLabels[i],
			fmt.Sprintf("%.0f%%", r.Sender.BusyCores*100),
			fmt.Sprintf("%.0f%%", r.Receiver.BusyCores*100),
			pct(r.Sender.Breakdown["data_copy"])})
	}
	t.Notes = append(t.Notes, "paper: sender core underutilised at 1 flow, saturated from 8")
	return t, nil
}

func fig8a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig8a",
		Title:   "All-to-all throughput-per-core vs grid size",
		Columns: []string{"flows", "thpt-per-core", "total-thpt"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{gridLabels[i], gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps)})
	}
	t.Notes = append(t.Notes, "paper: ~67% tpc reduction from 1x1 to 24x24")
	return t, nil
}

func fig8c(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig8c",
		Title:   "Post-GRO skb sizes vs grid size",
		Columns: []string{"flows", "avg-skb-KB", "64KB-share"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{gridLabels[i],
			fmt.Sprintf("%.1f", r.Receiver.SKBAvgBytes/1024),
			pct(r.Receiver.SKB64KBShare)})
	}
	t.Notes = append(t.Notes, "paper: the 64KB fraction collapses as flows multiply")
	return t, nil
}
