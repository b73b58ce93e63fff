package figures

import (
	"fmt"
	"strconv"

	"hostsim"
)

func init() {
	register(Experiment{
		ID:     "fig9a",
		Title:  "Single flow under random loss: throughput-per-core",
		Paper:  "tpc drops ~24% at loss 0.015; slight gain at 1.5e-4 from better cache hits",
		Runs:   lossSpecs,
		Render: fig9a,
	})
	register(Experiment{
		ID:     "fig9b",
		Title:  "Single flow under random loss: CPU utilization",
		Paper:  "Sender/receiver utilization gap narrows; total thpt falls below tpc",
		Runs:   lossSpecs,
		Render: fig9b,
	})
	register(Experiment{
		ID:     "fig9c",
		Title:  "Single flow under random loss: sender CPU breakdown",
		Paper:  "ACK processing and retransmissions inflate TCP and netdev shares",
		Runs:   lossSpecs,
		Render: breakdown("fig9c", "CPU breakdown vs loss rate", "loss-rate", lossLabels, true),
	})
	register(Experiment{
		ID:     "fig9d",
		Title:  "Single flow under random loss: receiver CPU breakdown",
		Paper:  "Dup-ACK generation raises TCP share 4.9x at 0.015 loss",
		Runs:   lossSpecs,
		Render: breakdown("fig9d", "CPU breakdown vs loss rate", "loss-rate", lossLabels, false),
	})
	register(Experiment{
		ID:     "fig10a",
		Title:  "16:1 RPC incast: throughput-per-core vs RPC size",
		Paper:  "tpc grows with RPC size; ~6Gbps/core one-way at 4KB",
		Runs:   rpcSpecs,
		Render: fig10a,
	})
	register(Experiment{
		ID:     "fig10b",
		Title:  "16:1 RPC incast: server CPU breakdown vs RPC size",
		Paper:  "At 4KB copy is NOT dominant (TCP + scheduling are); by 64KB it is",
		Runs:   rpcSpecs,
		Render: breakdown("fig10b", "RPC server CPU breakdown vs size", "rpc-size-KB", rpcLabels, false),
	})
	register(Experiment{
		ID:    "fig10c",
		Title: "4KB RPC server on NIC-local vs NIC-remote NUMA",
		Paper: "Unlike long flows, short-flow throughput barely changes on remote NUMA",
		Runs: func(rc RunConfig) []runSpec {
			remote := hostsim.RPCIncastWorkload(16, 4096)
			remote.RemoteNUMA = true
			return []runSpec{allOpts(rc, hostsim.RPCIncastWorkload(16, 4096)), allOpts(rc, remote)}
		},
		Render: fig10c,
	})
	register(Experiment{
		ID:     "fig11a",
		Title:  "Long flow mixed with short flows on one core: throughput-per-core",
		Paper:  "tpc falls ~43% with 16 shorts; long 42->20Gbps, shorts ~6.15->2.6Gbps",
		Runs:   mixedSpecs,
		Render: fig11a,
	})
	register(Experiment{
		ID:     "fig11b",
		Title:  "Mixed long+short flows: server CPU breakdown",
		Paper:  "Copy still dominates, but TCP and scheduling shares grow with shorts",
		Runs:   mixedSpecs,
		Render: breakdown("fig11b", "Mixed flows: receiver-core CPU breakdown", "short-flows", shortLabels, false),
	})
	register(Experiment{
		ID:     "fig12a",
		Title:  "DCA and IOMMU impact: throughput-per-core",
		Paper:  "DCA off: -19%; IOMMU on: -26%",
		Runs:   dcaIOMMUSpecs,
		Render: fig12a,
	})
	register(Experiment{
		ID:     "fig12b",
		Title:  "DCA/IOMMU: sender CPU breakdown",
		Paper:  "IOMMU inflates memory management on both sides",
		Runs:   dcaIOMMUSpecs,
		Render: breakdown("fig12b", "DCA / IOMMU CPU breakdown", "config", labels(dcaIOMMUConfigs(), stepName), true),
	})
	register(Experiment{
		ID:     "fig12c",
		Title:  "DCA/IOMMU: receiver CPU breakdown",
		Paper:  "IOMMU: memory management reaches ~30% of receiver cycles",
		Runs:   dcaIOMMUSpecs,
		Render: breakdown("fig12c", "DCA / IOMMU CPU breakdown", "config", labels(dcaIOMMUConfigs(), stepName), false),
	})
	register(Experiment{
		ID:     "fig13a",
		Title:  "Congestion control: throughput-per-core",
		Paper:  "CUBIC vs BBR vs DCTCP: minimal difference (receiver-driven bottleneck)",
		Runs:   ccSpecs,
		Render: fig13a,
	})
	register(Experiment{
		ID:     "fig13b",
		Title:  "Congestion control: sender CPU breakdown",
		Paper:  "BBR pays extra scheduling for pacing-timer wakeups",
		Runs:   ccSpecs,
		Render: breakdown("fig13b", "Congestion control CPU breakdown", "cc", ccNames, true),
	})
	register(Experiment{
		ID:     "fig13c",
		Title:  "Congestion control: receiver CPU breakdown",
		Paper:  "Receiver-side breakdowns are nearly identical across protocols",
		Runs:   ccSpecs,
		Render: breakdown("fig13c", "Congestion control CPU breakdown", "cc", ccNames, false),
	})
}

var lossRates = []float64{0, 1.5e-4, 1.5e-3, 1.5e-2}

var lossLabels = labels(lossRates, func(r float64) string {
	if r == 0 {
		return "0"
	}
	return fmt.Sprintf("%.1e", r)
})

// lossSpecs names one single-flow run per loss rate.
var lossSpecs = sweep(len(lossRates), singleFlow(), func(s *runSpec, i int) { s.cfg.LossRate = lossRates[i] })

func fig9a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig9a",
		Title:   "Throughput-per-core vs loss rate",
		Columns: []string{"loss-rate", "thpt-per-core", "total-thpt", "retransmits"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{lossLabels[i],
			gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps),
			fmt.Sprintf("%d", r.Sender.Retransmits)})
	}
	t.Notes = append(t.Notes,
		"model divergence: with heavy loss the simulated cache-hit relief outweighs protocol overheads, so tpc does not fall as the paper's does (see EXPERIMENTS.md)")
	return t, nil
}

func fig9b(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig9b",
		Title:   "CPU utilization vs loss rate",
		Columns: []string{"loss-rate", "sender-cpu", "receiver-cpu", "miss-rate"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{lossLabels[i],
			fmt.Sprintf("%.0f%%", r.Sender.BusyCores*100),
			fmt.Sprintf("%.0f%%", r.Receiver.BusyCores*100),
			pct(r.Receiver.CacheMissRate)})
	}
	return t, nil
}

var rpcSizes = []int64{4096, 16384, 32768, 65536}

var rpcLabels = labels(rpcSizes, func(size int64) string { return fmt.Sprintf("%d", size>>10) })

// rpcSpecs names one 16:1 RPC incast per RPC size.
var rpcSpecs = sweep(len(rpcSizes), hostsim.RPCIncastWorkload(16, 0), func(s *runSpec, i int) {
	s.wl.RPCSize = rpcSizes[i]
})

func fig10a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig10a",
		Title:   "RPC throughput-per-server-core vs size (one-way transaction bytes)",
		Columns: []string{"rpc-size-KB", "thpt-per-core", "total-thpt", "rpcs-per-sec"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{
			rpcLabels[i],
			gb(r.RPCGbps / r.Receiver.BusyCores),
			gb(r.ThroughputGbps),
			fmt.Sprintf("%.0f", float64(r.RPCCompleted)/r.Duration.Seconds()),
		})
	}
	t.Notes = append(t.Notes, "paper: ~6Gbps/core at 4KB, growing with size")
	return t, nil
}

func fig10c(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	local, remote := res[0], res[1]
	t := &Table{
		ID:      "fig10c",
		Title:   "4KB RPC server on NIC-local vs NIC-remote NUMA",
		Columns: []string{"placement", "thpt-per-core", "miss-rate"},
		Rows: [][]string{
			{"NIC-local NUMA", gb(local.RPCGbps / local.Receiver.BusyCores), pct(local.Receiver.CacheMissRate)},
			{"NIC-remote NUMA", gb(remote.RPCGbps / remote.Receiver.BusyCores), pct(remote.Receiver.CacheMissRate)},
		},
	}
	t.Notes = append(t.Notes, "paper: only a marginal tpc difference for 4KB RPCs")
	return t, nil
}

var shortCounts = []int{0, 1, 4, 16}

var shortLabels = labels(shortCounts, strconv.Itoa)

// mixedSpecs names one long flow plus n 4KB RPC flows per short count.
var mixedSpecs = sweep(len(shortCounts), hostsim.MixedWorkload(0, 4096), func(s *runSpec, i int) {
	s.wl.MixedShort = shortCounts[i]
})

func fig11a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig11a",
		Title:   "Mixed long+short flows on one core",
		Columns: []string{"short-flows", "thpt-per-core", "long-flow-gbps", "short-gbps(one-way)"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{shortLabels[i],
			gb(r.ThroughputPerCoreGbps), gb(r.LongFlowGbps), gb(r.RPCGbps)})
	}
	t.Notes = append(t.Notes, "paper: at 16 shorts the long flow falls 42->20, shorts ~6.15->2.6")
	return t, nil
}

// dcaIOMMUConfigs is Fig. 12's default stack, then DCA off, then IOMMU on.
func dcaIOMMUConfigs() []stackStep {
	def := hostsim.AllOptimizations()
	noDCA := def
	noDCA.DCA = false
	iommu := def
	iommu.IOMMU = true
	return []stackStep{
		{"Default", def},
		{"DCA Disabled", noDCA},
		{"IOMMU Enabled", iommu},
	}
}

var dcaIOMMUSpecs = singleFlowSpecs(dcaIOMMUConfigs())

func fig12a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig12a",
		Title:   "DCA / IOMMU impact on single-flow throughput-per-core",
		Columns: []string{"config", "thpt-per-core", "miss-rate", "vs-default"},
	}
	base := res[0].ThroughputPerCoreGbps // the Default stack
	for i, c := range dcaIOMMUConfigs() {
		r := res[i]
		t.Rows = append(t.Rows, []string{c.Name, gb(r.ThroughputPerCoreGbps),
			pct(r.Receiver.CacheMissRate),
			fmt.Sprintf("%+.0f%%", (r.ThroughputPerCoreGbps/base-1)*100)})
	}
	t.Notes = append(t.Notes, "paper: DCA off -19%, IOMMU on -26%")
	return t, nil
}

var ccNames = []string{"cubic", "bbr", "dctcp"}

// ccSpecs names one single-flow run per congestion control algorithm.
var ccSpecs = sweep(len(ccNames), singleFlow(), func(s *runSpec, i int) {
	s.cfg.Stack.CC = ccNames[i]
	if ccNames[i] == "dctcp" {
		s.cfg.ECNMarkKB = 256 // DCTCP needs a marking threshold
	}
})

func fig13a(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "fig13a",
		Title:   "Congestion control impact on single-flow throughput-per-core",
		Columns: []string{"cc", "thpt-per-core", "total-thpt"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{ccNames[i], gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps)})
	}
	t.Notes = append(t.Notes, "paper: no significant difference across protocols")
	return t, nil
}
