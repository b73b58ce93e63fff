package figures

import (
	"fmt"

	"hostsim"
)

// The ext* experiments go beyond the paper's evaluation and quantify the
// §4 "Future Directions" proposals inside the same simulator: zero-copy
// mechanisms, the full flow-steering design space (Table 2's software
// variants), and class-segregated CPU scheduling.

func init() {
	register(Experiment{
		ID:     "ext1",
		Title:  "Flow steering design space: aRFS vs software RFS/RPS vs RSS vs worst-case",
		Paper:  "§2.1/Table 2: aRFS co-locates IRQ, TCP and app; software steering adds a forwarding hop",
		Runs:   sweep(len(ext1Modes), singleFlow(), func(s *runSpec, i int) { s.cfg.Stack.Steering = ext1Modes[i] }),
		Render: ext1Steering,
	})
	register(Experiment{
		ID:    "ext2",
		Title: "Zero-copy mechanisms (§4): MSG_ZEROCOPY and mmap-based receive",
		Paper: "§4: sender-side ZC alone cannot help a receiver-bound flow; receiver-side ZC removes the dominant overhead",
		Runs: sweep(len(ext2Cases), singleFlow(), func(s *runSpec, i int) {
			s.cfg.Stack.ZeroCopyTx, s.cfg.Stack.ZeroCopyRx = ext2Cases[i].zt, ext2Cases[i].zr
		}),
		Render: ext2ZeroCopy,
	})
	register(Experiment{
		ID:    "ext3",
		Title: "Class-segregated scheduling (§4): long and short flows on separate cores",
		Paper: "§4: scheduling long-flow and short-flow applications on separate cores improves CPU efficiency",
		Runs: sweep(len(ext3Cases), hostsim.MixedWorkload(16, 4096), func(s *runSpec, i int) {
			s.wl.Segregate = ext3Cases[i].seg
		}),
		Render: ext3Segregation,
	})
	register(Experiment{
		ID:     "ext4",
		Title:  "Access-link bandwidth scaling: where the single core stops keeping up",
		Paper:  "§1/§3.1: 'for 10-40Gbps access link bandwidths, a single thread was able to saturate the network'",
		Runs:   sweep(len(ext4Links), singleFlow(), func(s *runSpec, i int) { s.cfg.LinkGbps = ext4Links[i] }),
		Render: ext4Bandwidth,
	})
	register(Experiment{
		ID:    "ext5",
		Title: "Per-flow fairness across traffic patterns",
		Paper: "§3.2: at saturation 'throughput ends up getting fairly shared among all cores'",
		Runs: sweep(len(ext5Cases), singleFlow(), func(s *runSpec, i int) {
			s.wl = hostsim.LongFlowWorkload(ext5Cases[i].p, ext5Cases[i].n)
		}),
		Render: ext5Fairness,
	})
	register(Experiment{
		ID:     "ext6",
		Title:  "DCA-aware receive autotuning (§4): buffer sizing that knows the L3",
		Paper:  "§4: 'window size tuning should take into account not only latency and throughput but also L3 sizes'",
		Runs:   sweep(len(ext6Cases), singleFlow(), func(s *runSpec, i int) { ext6Cases[i].mut(&s.cfg.Stack) }),
		Render: ext6DCAAwareDRS,
	})
	register(Experiment{
		ID:    "ext7",
		Title: "Receiver-driven scheduling (§4): bounding concurrent incast senders",
		Paper: "§3.3/§4: receiver-driven protocols can control the number of active flows per core",
		Runs: sweep(len(ext7Cases), hostsim.LongFlowWorkload(hostsim.PatternIncast, 8), func(s *runSpec, i int) {
			s.cfg.Stack.RcvSchedulerK = ext7Cases[i].k
		}),
		Render: ext7RcvScheduler,
	})
}

var ext1Modes = []string{"arfs", "same-numa", "rfs", "rps", "rss", "worst"}

func ext1Steering(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "ext1",
		Title: "Single-flow performance per steering mechanism",
		Columns: []string{"steering", "thpt-per-core", "total-thpt",
			"miss-rate", "lock-share", "rcv-busy-cores"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{
			ext1Modes[i], gb(r.ThroughputPerCoreGbps), gb(r.ThroughputGbps),
			pct(r.Receiver.CacheMissRate), pct(r.Receiver.Breakdown["lock"]),
			fmt.Sprintf("%.2f", r.Receiver.BusyCores),
		})
	}
	t.Notes = append(t.Notes,
		"aRFS wins per-core: one core runs IRQ+TCP+app with warm caches and uncontended locks",
		"software RFS reaches the app's core but pays the backlog/IPI hop; RPS additionally keeps locks contended",
		"plain RSS pipelines across two cores: higher total, lower per-core efficiency")
	return t, nil
}

var ext2Cases = []struct {
	name   string
	zt, zr bool
}{
	{"baseline (copies)", false, false},
	{"MSG_ZEROCOPY (tx)", true, false},
	{"mmap receive (rx)", false, true},
	{"both", true, true},
}

func ext2ZeroCopy(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "ext2",
		Title: "Zero-copy transmit/receive on the single-flow baseline",
		Columns: []string{"config", "thpt-per-core", "snd-busy", "rcv-busy",
			"rcv-copy-share", "rcv-memory-share"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{
			ext2Cases[i].name, gb(r.ThroughputPerCoreGbps),
			fmt.Sprintf("%.2f", r.Sender.BusyCores),
			fmt.Sprintf("%.2f", r.Receiver.BusyCores),
			pct(r.Receiver.Breakdown["data_copy"]),
			pct(r.Receiver.Breakdown["memory"]),
		})
	}
	t.Notes = append(t.Notes,
		"tx zero-copy halves sender CPU but cannot raise a receiver-bound flow's throughput (the paper's §4 argument)",
		"rx zero-copy removes the dominant overhead; remaining per-skb protocol costs keep it below line rate")
	return t, nil
}

var ext3Cases = []struct {
	name string
	seg  bool
}{
	{"shared core (Fig. 11)", false},
	{"segregated cores (§4)", true},
}

func ext3Segregation(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "ext3",
		Title: "One long flow + 16 short flows: shared core vs segregated cores",
		Columns: []string{"placement", "long-gbps", "short-gbps(one-way)",
			"rcv-busy-cores", "long+short-per-core"},
	}
	for i, r := range res {
		perCore := 0.0
		if r.Receiver.BusyCores > 0 {
			perCore = (r.LongFlowGbps + r.RPCGbps) / r.Receiver.BusyCores
		}
		t.Rows = append(t.Rows, []string{
			ext3Cases[i].name, gb(r.LongFlowGbps), gb(r.RPCGbps),
			fmt.Sprintf("%.2f", r.Receiver.BusyCores), gb(perCore),
		})
	}
	t.Notes = append(t.Notes,
		"segregation restores each class to near its isolated efficiency — the paper's application-aware scheduling proposal quantified")
	return t, nil
}

var ext4Links = []int{10, 25, 40, 100, 200, 400}

func ext4Bandwidth(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "ext4",
		Title: "Single flow vs access-link bandwidth",
		Columns: []string{"link", "thpt-gbps", "link-utilization",
			"rcv-busy-cores", "bottleneck"},
	}
	for i, r := range res {
		gbps := ext4Links[i]
		bottleneck := "host CPU"
		if r.ThroughputGbps > 0.9*float64(gbps) {
			bottleneck = "link"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dG", gbps), gb(r.ThroughputGbps),
			pct(r.ThroughputGbps / float64(gbps)),
			fmt.Sprintf("%.2f", r.Receiver.BusyCores), bottleneck,
		})
	}
	t.Notes = append(t.Notes,
		"reproduces the paper's motivation: one core saturates 10-40G links; from 100G the host CPU is the bottleneck",
		"the Terabit-Ethernet trend (§5) only widens the gap")
	return t, nil
}

var ext5Cases = []struct {
	p hostsim.Pattern
	n int
}{
	{hostsim.PatternOneToOne, 8},
	{hostsim.PatternOneToOne, 24},
	{hostsim.PatternIncast, 8},
	{hostsim.PatternOutcast, 8},
	{hostsim.PatternAllToAll, 8},
}

func ext5Fairness(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "ext5",
		Title:   "Jain's fairness index over per-flow goodput",
		Columns: []string{"pattern", "flows", "total-thpt", "fairness", "min-flow", "max-flow"},
	}
	for i, r := range res {
		lo, hi := r.FlowGbps[0], r.FlowGbps[0]
		for _, f := range r.FlowGbps {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		t.Rows = append(t.Rows, []string{
			string(ext5Cases[i].p), fmt.Sprintf("%d", len(r.FlowGbps)), gb(r.ThroughputGbps),
			fmt.Sprintf("%.3f", r.FairnessIndex), gb(lo), gb(hi),
		})
	}
	t.Notes = append(t.Notes,
		"saturated patterns share the link fairly (index near 1); outcast is TSQ/egress-fair by construction")
	return t, nil
}

var ext6Cases = []struct {
	name string
	mut  func(*hostsim.Stack)
}{
	{"default DRS (to 6MB)", func(*hostsim.Stack) {}},
	{"DCA-aware DRS", func(s *hostsim.Stack) { s.DCAAwareDRS = true }},
	{"hand-tuned 3200KB", func(s *hostsim.Stack) { s.RcvBufBytes = 3200 << 10; s.RxDescriptors = 256 }},
}

func ext6DCAAwareDRS(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "ext6",
		Title:   "Single flow: default vs DCA-aware receive autotuning vs hand tuning",
		Columns: []string{"autotuning", "thpt-per-core", "miss-rate", "napi->copy avg"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{ext6Cases[i].name, gb(r.ThroughputPerCoreGbps),
			pct(r.Receiver.CacheMissRate), r.Receiver.LatencyAvg.Round(1000).String()})
	}
	t.Notes = append(t.Notes,
		"capping autotuning at the DDIO capacity recovers nearly all of the hand-tuned gain with no manual parameters")
	return t, nil
}

var ext7Cases = []struct {
	name string
	k    int
}{
	{"none (plain TCP)", 0},
	{"K=1 active flow", 1},
	{"K=2 active flows", 2},
	{"K=4 active flows", 4},
}

func ext7RcvScheduler(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "ext7",
		Title: "8-flow incast: sender-driven TCP vs receiver-driven scheduling",
		Columns: []string{"receiver control", "thpt-per-core", "miss-rate",
			"napi->copy avg", "fairness"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{ext7Cases[i].name, gb(r.ThroughputPerCoreGbps),
			pct(r.Receiver.CacheMissRate), r.Receiver.LatencyAvg.Round(1000).String(),
			fmt.Sprintf("%.3f", r.FairnessIndex)})
	}
	t.Notes = append(t.Notes,
		"bounding concurrent senders bounds DDIO occupancy: cache hits return, host latency collapses, fairness holds via rotation",
		"this is the §3.3 implication quantified — sender-driven TCP denies the receiver this control")
	return t, nil
}
