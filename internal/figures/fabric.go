package figures

import (
	"fmt"
	"time"

	"hostsim"
)

// The fab* experiments move the paper's traffic patterns from a host
// pair onto the switch-fabric topology: N hosts on a ToR with per-port
// egress buffers, an optional shared buffer pool with dynamic-threshold
// admission, and per-port ECN marking. They quantify the §3.4 incast
// collapse and the §3.5 pattern shapes at cluster scale instead of
// core scale.

func init() {
	register(Experiment{
		ID:     "fab1",
		Title:  "Incast scaling on a switch fabric: N-1 hosts into one",
		Paper:  "§3.4: with incast 'per-flow throughput reduces'; receiver CPU and scheduling dominate as senders multiply",
		Runs:   scaleSpecs(hostsim.PatternIncast),
		Render: fab1Incast,
	})
	register(Experiment{
		ID:     "fab2",
		Title:  "Outcast scaling on a switch fabric: one host into N-1",
		Paper:  "§3.5: the sender-side mirror of incast — one host's TX path fans out to N-1 receivers",
		Runs:   scaleSpecs(hostsim.PatternOutcast),
		Render: fab2Outcast,
	})
	register(Experiment{
		ID:    "fab3",
		Title: "All-to-all on a switch fabric: every host to every host",
		Paper: "§3.5: all-to-all stresses both directions of every host; throughput is fairly shared at saturation",
		Runs: sweep(len(fab3Scales), hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 0), func(s *runSpec, i int) {
			s.cfg.Fabric = &hostsim.FabricOptions{Hosts: fab3Scales[i]}
		}),
		Render: fab3AllToAll,
	})
	register(Experiment{
		ID:    "fab4",
		Title: "Shared switch buffer under 15:1 incast: dynamic-threshold drops and ECN",
		Paper: "§3.4/§5: shallow-buffered switches drop (or CE-mark) under incast; DCTCP trades drops for marks",
		Runs: sweep(len(fab4Variants), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), func(s *runSpec, i int) {
			v := fab4Variants[i]
			s.cfg.Stack.CC, s.cfg.ECNMarkKB = v.cc, v.ecnKB
			s.cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: v.bufKB}
		}),
		Render: fab4Buffer,
	})
	register(Experiment{
		ID:    "fab5",
		Title: "Microbursts under 15:1 incast: the observatory's burst ladder",
		Paper: "§3.4: incast pressure lives in the switch queue; buffer bounds trade microburst depth (and hop latency) for drops",
		Runs: sweep(len(fab5Ladder), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), func(s *runSpec, i int) {
			s.cfg.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: fab5Ladder[i]}
			s.cfg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: 64}
		}),
		Render: fab5Bursts,
	})
	register(Experiment{
		ID:    "fab6",
		Title: "Exact drop/mark attribution across loss regimes",
		Paper: "§3.4/§5: every lost or marked frame classified — shared-buffer admission vs wire loss vs CE mark — with a zero-gap conservation ledger",
		Runs: sweep(len(fab6Variants), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), func(s *runSpec, i int) {
			v := fab6Variants[i]
			s.cfg.Stack.CC, s.cfg.ECNMarkKB, s.cfg.LossRate = v.cc, v.ecnKB, v.lossPct/100
			s.cfg.Fabric = &hostsim.FabricOptions{Hosts: 8, SharedBufferKB: v.bufKB}
			s.cfg.FabricObs = &hostsim.FabricObsOptions{}
		}),
		Render: fab6Attribution,
	})
}

// fabricScales is the host-count ladder shared by fab1 and fab2.
var fabricScales = []int{2, 4, 8, 16, 64}

// scaleSpecs names one all-optimizations run of the pattern per host
// count of fabricScales.
func scaleSpecs(p hostsim.Pattern) func(RunConfig) []runSpec {
	return sweep(len(fabricScales), hostsim.LongFlowWorkload(p, 0), func(s *runSpec, i int) {
		s.cfg.Fabric = &hostsim.FabricOptions{Hosts: fabricScales[i]}
	})
}

func fab1Incast(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab1",
		Title: "Incast: hosts 1..N-1 each send one flow into host 0",
		Columns: []string{"hosts", "flows", "total-thpt", "per-flow",
			"fairness", "rcv-busy-cores", "rcv-max-util"},
	}
	for i, h := range fabricScales {
		r := res[i]
		flows := h - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h), fmt.Sprintf("%d", flows),
			gb(r.ThroughputGbps), gb(r.ThroughputGbps / float64(flows)),
			fmt.Sprintf("%.3f", r.FairnessIndex),
			fmt.Sprintf("%.2f", r.Receiver.BusyCores), pct(r.Receiver.MaxCoreUtil),
		})
	}
	t.Notes = append(t.Notes,
		"per-flow throughput collapses as senders multiply against one receiving host (§3.4)",
		"the receiving host is the bottleneck: its busy cores rise with N while total throughput stays link-bound")
	return t, nil
}

func fab2Outcast(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab2",
		Title: "Outcast: host 0 sends one flow to each of hosts 1..N-1",
		Columns: []string{"hosts", "flows", "total-thpt", "per-flow",
			"fairness", "snd-busy-cores", "snd-max-util"},
	}
	for i, h := range fabricScales {
		r := res[i]
		flows := h - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h), fmt.Sprintf("%d", flows),
			gb(r.ThroughputGbps), gb(r.ThroughputGbps / float64(flows)),
			fmt.Sprintf("%.3f", r.FairnessIndex),
			fmt.Sprintf("%.2f", r.Sender.BusyCores), pct(r.Sender.MaxCoreUtil),
		})
	}
	t.Notes = append(t.Notes,
		"the TX path scales further than RX: segmentation offload leaves the sender fewer per-byte cycles than the receiver's copies",
		"fan-out shares the sending host's single egress port; per-flow throughput falls as 1/(N-1)")
	return t, nil
}

var fab3Scales = []int{2, 4, 8}

func fab3AllToAll(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab3",
		Title: "All-to-all: one flow per ordered host pair",
		Columns: []string{"hosts", "flows", "total-thpt", "per-flow",
			"fairness", "bottleneck-util"},
	}
	for i, h := range fab3Scales {
		r := res[i]
		flows := h * (h - 1)
		var maxUtil float64
		for _, hs := range r.Hosts {
			if hs.MaxCoreUtil > maxUtil {
				maxUtil = hs.MaxCoreUtil
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", h), fmt.Sprintf("%d", flows),
			gb(r.ThroughputGbps), gb(r.ThroughputGbps / float64(flows)),
			fmt.Sprintf("%.3f", r.FairnessIndex), pct(maxUtil),
		})
	}
	t.Notes = append(t.Notes,
		"every host runs both directions at once; aggregate throughput grows with the host count, per-flow falls",
		"fairness stays high: no single port is oversubscribed, so flows share evenly (§3.2)")
	return t, nil
}

// fab4Variants is CUBIC over the shared-buffer ladder for the 16-host
// incast (0 is the unbounded reference), then DCTCP with per-port CE
// marking on the unbounded and tightest pools: marks replace drops where
// the buffer allows.
var fab4Variants = []struct {
	cc    string
	ecnKB int
	bufKB int
}{
	{"cubic", 0, 0}, {"cubic", 0, 4096}, {"cubic", 0, 1024}, {"cubic", 0, 256}, {"cubic", 0, 64},
	{"dctcp", 64, 0}, {"dctcp", 64, 256},
}

func fab4Buffer(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab4",
		Title: "16-host incast vs shared switch buffer (dynamic threshold, alpha=1)",
		Columns: []string{"cc", "buffer-kb", "ecn-kb", "buf-drops",
			"marked", "retransmits", "total-thpt", "fairness"},
	}
	for i, v := range fab4Variants {
		r := res[i]
		var retrans int64
		for _, h := range r.Hosts {
			retrans += h.Retransmits
		}
		t.Rows = append(t.Rows, []string{
			v.cc, fmt.Sprintf("%d", v.bufKB), fmt.Sprintf("%d", v.ecnKB),
			fmt.Sprintf("%d", r.Fabric.BufferDrops), fmt.Sprintf("%d", r.Fabric.Marked),
			fmt.Sprintf("%d", retrans), gb(r.ThroughputGbps),
			fmt.Sprintf("%.3f", r.FairnessIndex),
		})
	}
	t.Notes = append(t.Notes,
		"the unbounded pool never drops; every bounded pool drops under 15:1 pressure and a sliver of buffer costs goodput (§3.4 collapse)",
		"total drops over the window are not monotone in buffer size — TCP's feedback loop backs off harder when the pool is tighter",
		"DCTCP with an unbounded pool converts queue pressure into CE marks and holds full goodput with zero drops")
	return t, nil
}

// fab5Ladder is the shared-buffer ladder for the microburst table; 0 is
// the unbounded reference, 64KB sits below the 64KB burst threshold so
// the dynamic threshold forbids bursts outright.
var fab5Ladder = []int{0, 1024, 256, 64}

func fab5Bursts(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab5",
		Title: "16-host incast microbursts vs shared buffer (observatory armed, 64KB burst threshold)",
		Columns: []string{"buffer-kb", "bursts", "peak-backlog-kb", "longest-burst-us",
			"burst-frames", "adm-drops", "hop-p99-us", "port0-util"},
	}
	for i, kb := range fab5Ladder {
		r := res[i]
		p0 := r.PortReports[0] // incast: every data frame egresses port 0
		var longest time.Duration
		var frames int64
		for _, b := range r.BurstEvents {
			if b.Duration > longest {
				longest = b.Duration
			}
			if b.Frames > frames {
				frames = b.Frames
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", kb), fmt.Sprintf("%d", p0.Bursts),
			fmt.Sprintf("%d", p0.PeakBacklog/1024),
			fmt.Sprintf("%.1f", longest.Seconds()*1e6),
			fmt.Sprintf("%d", frames), fmt.Sprintf("%d", r.Fabric.BufferDrops),
			fmt.Sprintf("%.1f", p0.HopLatencyP99.Seconds()*1e6), pct(p0.Utilization),
		})
	}
	t.Notes = append(t.Notes,
		"the unbounded pool lets the incast queue grow deepest; each buffer bound clips peak backlog at its dynamic threshold",
		"hop p99 tracks peak backlog: shallow buffers bound switch latency, the price paid in admission drops",
		"a 64KB pool cannot reach the 64KB burst threshold — the dynamic threshold forbids the microburst regime outright")
	return t, nil
}

var fab6Variants = []struct {
	cc      string
	bufKB   int
	lossPct float64
	ecnKB   int
}{
	{"cubic", 0, 0, 0},     // clean: nothing to attribute
	{"cubic", 256, 0, 0},   // shared-buffer admission drops only
	{"cubic", 256, 0.1, 0}, // admission drops + Bernoulli wire loss
	{"dctcp", 0, 0, 64},    // CE marks only
	{"dctcp", 256, 0, 64},  // marks + admission drops
}

func fab6Attribution(_ RunConfig, res []*hostsim.Result) (*Table, error) {
	t := &Table{
		ID:    "fab6",
		Title: "8-host incast: exact drop/mark attribution across loss regimes",
		Columns: []string{"cc", "buffer-kb", "loss-pct", "ecn-kb", "adm-drops",
			"wire-drops", "marks", "delivered", "ledger-gap"},
	}
	for i, v := range fab6Variants {
		r := res[i]
		var adm, wire, marks, del, gap int64
		for _, p := range r.PortReports {
			adm += p.AdmissionDrops
			wire += p.WireLossDrops
			marks += p.ECNMarks
			del += p.Delivered
			gap += (p.InFrames - p.Forwarded - p.AdmissionDrops) +
				(p.Enqueued - p.Delivered - p.WireLossDrops - p.InFlight)
		}
		t.Rows = append(t.Rows, []string{
			v.cc, fmt.Sprintf("%d", v.bufKB), fmt.Sprintf("%g", v.lossPct),
			fmt.Sprintf("%d", v.ecnKB), fmt.Sprintf("%d", adm),
			fmt.Sprintf("%d", wire), fmt.Sprintf("%d", marks),
			fmt.Sprintf("%d", del), fmt.Sprintf("%d", gap),
		})
	}
	t.Notes = append(t.Notes,
		"every loss regime lights up exactly its own attribution class; the clean run attributes nothing",
		"ledger-gap sums both conservation identities over all ports — zero means every frame the switch saw is accounted for exactly")
	return t, nil
}
