package figures

import (
	"fmt"
	"time"

	"hostsim"
)

// The abl* experiments isolate the simulator's own design choices — the
// mechanisms DESIGN.md §3 introduces to reproduce the paper — by turning
// each one off or sweeping its parameter. They double as regression
// anchors: if a refactor silently disables a mechanism, the ablation's
// contrast collapses.

func init() {
	register(Experiment{
		ID:    "abl1",
		Title: "Ablation: DCA descriptor-count eviction hazard (DESIGN.md 3.3)",
		Paper: "Fig. 3e's ring-size sensitivity requires the hazard; without it only buffer size matters",
		Runs: sweep(len(abl1Cases), singleFlow(), func(s *runSpec, i int) {
			s.cfg.Stack.RcvBufBytes = 3200 << 10
			s.cfg.Stack.RxDescriptors = 4096
			s.cfg.Tuning = &hostsim.Tuning{DCAHazardFactor: abl1Cases[i].factor}
		}),
		Render: abl1Hazard,
	})
	register(Experiment{
		ID:    "abl2",
		Title: "Ablation: TCP small queues (DESIGN.md 3.5)",
		Paper: "TSQ bounds per-flow egress bursts; without it all-to-all skbs stay large",
		Runs: sweep(len(abl2Cases), hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 8), func(s *runSpec, i int) {
			s.cfg.Tuning = &hostsim.Tuning{TSQBytes: abl2Cases[i].bytes}
		}),
		Render: abl2TSQ,
	})
	register(Experiment{
		ID:    "abl3",
		Title: "Ablation: IRQ moderation delay (DESIGN.md 3.4)",
		Paper: "GRO batching depends on coalescing: tiny delays shrink aggregates and raise per-byte costs",
		Runs: sweep(len(abl3Cases), singleFlow(), func(s *runSpec, i int) {
			s.cfg.Tuning = &hostsim.Tuning{ModerationDelay: abl3Cases[i].d}
		}),
		Render: abl3Moderation,
	})
	register(Experiment{
		ID:    "abl4",
		Title: "Ablation: scheduler wakeup granularity (DESIGN.md 3.2)",
		Paper: "Fig. 11's long/short split hinges on wakeup batching; tiny granularity starves the bulk flow",
		Runs: sweep(len(abl4Cases), hostsim.MixedWorkload(16, 4096), func(s *runSpec, i int) {
			s.cfg.Tuning = &hostsim.Tuning{SchedGranularity: abl4Cases[i].d}
		}),
		Render: abl4Granularity,
	})
	register(Experiment{
		ID:    "abl5",
		Title: "Ablation: per-core pagesets (DESIGN.md 3.3)",
		Paper: "Fig. 5c's falling memory share requires pageset recycling; without it every page hits the global allocator",
		Runs: sweep(len(abl5Cases), hostsim.LongFlowWorkload(hostsim.PatternOneToOne, 8), func(s *runSpec, i int) {
			s.cfg.Tuning = &hostsim.Tuning{PagesetCap: abl5Cases[i].cap}
		}),
		Render: abl5Pageset,
	})
}

var abl1Cases = []struct {
	name   string
	factor float64
}{
	{"off", -1},
	{"default (0.035)", 0},
	{"2x (0.07)", 0.07},
}

func abl1Hazard(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "abl1",
		Title:   "Miss rate at 3200KB buffer, ring 4096, with/without the hazard",
		Columns: []string{"hazard", "thpt-gbps", "miss-rate"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{abl1Cases[i].name, gb(r.ThroughputGbps), pct(r.Receiver.CacheMissRate)})
	}
	t.Notes = append(t.Notes, "with the hazard off, a large ring no longer hurts a small-buffer flow — Fig. 3e's x-axis flattens")
	return t, nil
}

var abl2Cases = []struct {
	name  string
	bytes int64
}{
	{"64KB", 64 << 10},
	{"256KB (default)", 0},
	{"16MB (effectively off)", 16 << 20},
}

func abl2TSQ(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "abl2",
		Title:   "All-to-all 8x8 with varying TSQ budgets",
		Columns: []string{"tsq", "thpt-per-core", "avg-skb-KB"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{abl2Cases[i].name, gb(r.ThroughputPerCoreGbps),
			fmt.Sprintf("%.1f", r.Receiver.SKBAvgBytes/1024)})
	}
	t.Notes = append(t.Notes, "a huge TSQ budget lets windows balloon into the qdisc and inflates latency without improving skb sizes")
	return t, nil
}

var abl3Cases = []struct {
	name string
	d    time.Duration
}{
	{"1us", time.Microsecond},
	{"12us (default)", 0},
	{"50us", 50 * time.Microsecond},
}

func abl3Moderation(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "abl3",
		Title:   "Single flow with varying IRQ moderation delay",
		Columns: []string{"moderation", "thpt-per-core", "avg-skb-KB", "64KB-share"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{abl3Cases[i].name, gb(r.ThroughputPerCoreGbps),
			fmt.Sprintf("%.1f", r.Receiver.SKBAvgBytes/1024), pct(r.Receiver.SKB64KBShare)})
	}
	return t, nil
}

var abl4Cases = []struct {
	name string
	d    time.Duration
}{
	{"25us", 25 * time.Microsecond},
	{"250us (default)", 0},
	{"1ms", time.Millisecond},
}

func abl4Granularity(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "abl4",
		Title:   "Mixed long+16 shorts with varying scheduler granularity",
		Columns: []string{"granularity", "long-gbps", "short-gbps", "tpc"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{abl4Cases[i].name, gb(r.LongFlowGbps), gb(r.RPCGbps),
			gb(r.ThroughputPerCoreGbps)})
	}
	t.Notes = append(t.Notes, "small granularity lets RPC threads preempt constantly and starves the bulk flow; large granularity throttles the RPCs")
	return t, nil
}

var abl5Cases = []struct {
	name string
	cap  int
}{
	{"512 pages (default)", 0},
	{"disabled", -1},
}

func abl5Pageset(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:      "abl5",
		Title:   "One-to-one 8 flows with and without per-core pagesets",
		Columns: []string{"pageset", "thpt-per-core", "rcv-memory-share"},
	}
	for i, r := range res {
		t.Rows = append(t.Rows, []string{abl5Cases[i].name, gb(r.ThroughputPerCoreGbps),
			pct(r.Receiver.Breakdown["memory"])})
	}
	t.Notes = append(t.Notes, "without recycling, every page allocation and free pays the buddy-allocator cost")
	return t, nil
}
