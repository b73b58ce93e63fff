package hostsim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/inspect"
)

// inspectCfg is a short lossy run with the full inspector armed.
func inspectCfg(seed int64) hostsim.Config {
	cfg := shortCfg(seed)
	cfg.LossRate = 0.01
	cfg.Inspect = &hostsim.InspectOptions{}
	return cfg
}

// TestInspectArtifacts round-trips the packet capture through the pcapng
// writer and reader and checks every decoded packet against the in-memory
// record it came from.
func TestInspectArtifacts(t *testing.T) {
	res, err := hostsim.Run(inspectCfg(3), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PacketCaptures) != 2 {
		t.Fatalf("got %d captures, want 2", len(res.PacketCaptures))
	}
	if res.ProbeTrace == nil || res.ProbeTrace.Len() == 0 {
		t.Fatal("probe trace empty")
	}
	if res.SocketSnapshots == nil || res.SocketSnapshots.Len() == 0 {
		t.Fatal("socket snapshots empty")
	}

	pcap := artifact(t, res, "pcap")
	if _, err := inspect.CheckPcap(pcap); err != nil {
		t.Fatal(err)
	}
	f, err := inspect.ReadPcap(bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Interfaces) != 2 {
		t.Fatalf("got %d interfaces, want 2", len(f.Interfaces))
	}
	if f.Interfaces[0].Name != "sender->receiver" || f.Interfaces[1].Name != "receiver->sender" {
		t.Fatalf("unexpected interface names %q, %q", f.Interfaces[0].Name, f.Interfaces[1].Name)
	}

	// Re-bucket the merged stream per interface and compare field by field
	// with the capture records.
	next := []int{0, 0}
	for i, p := range f.Packets {
		cap := res.PacketCaptures[p.Interface]
		recs := cap.Records()
		if next[p.Interface] >= len(recs) {
			t.Fatalf("packet %d: interface %d has more packets than records", i, p.Interface)
		}
		rec := recs[next[p.Interface]]
		next[p.Interface]++
		if p.At != rec.At {
			t.Fatalf("packet %d: time %d != record %d", i, p.At, rec.At)
		}
		if p.Seq != uint32(rec.Seq) {
			t.Fatalf("packet %d: seq %d != record %d", i, p.Seq, uint32(rec.Seq))
		}
		if got, want := p.PayloadLen, int(rec.Len); got != want {
			t.Fatalf("packet %d: payload %d != record %d", i, got, want)
		}
		if p.CE != rec.CE {
			t.Fatalf("packet %d: CE %v != record %v", i, p.CE, rec.CE)
		}
		if p.Flags&inspect.FlagACK == 0 {
			t.Fatalf("packet %d: ACK flag missing", i)
		}
		if wantPSH := !rec.Ack && rec.Len > 0; (p.Flags&inspect.FlagPSH != 0) != wantPSH {
			t.Fatalf("packet %d: PSH flag %v, want %v", i, p.Flags&inspect.FlagPSH != 0, wantPSH)
		}
		if rec.Ack {
			if p.AckNum != uint32(rec.Cum) {
				t.Fatalf("packet %d: ack %d != record %d", i, p.AckNum, uint32(rec.Cum))
			}
			if (p.Flags&inspect.FlagECE != 0) != rec.ECNEcho {
				t.Fatalf("packet %d: ECE flag %v, want %v", i, p.Flags&inspect.FlagECE != 0, rec.ECNEcho)
			}
			if len(rec.SACK) > 0 {
				if len(p.SACK) != 1 || p.SACK[0].Start != int64(uint32(rec.SACK[0].Start)) {
					t.Fatalf("packet %d: SACK %v does not reflect record %v", i, p.SACK, rec.SACK)
				}
			}
		}
		// Addressing must be direction-coherent so Wireshark can follow
		// the stream: interface 0 carries 10.0.0.1 -> 10.0.0.2.
		srcA := p.SrcIP == 0x0A000001
		if srcA != (p.Interface == 0) {
			t.Fatalf("packet %d: source IP %08x on interface %d", i, p.SrcIP, p.Interface)
		}
	}
	for ifc, n := range next {
		if got := res.PacketCaptures[ifc].Packets(); n != got {
			t.Fatalf("interface %d: decoded %d packets, capture has %d", ifc, n, got)
		}
	}
}

// TestRTTMonitor checks the passive per-flow RTT monitor: the ss-style
// snapshots must carry the rtt_*_ns columns for every transmitting flow,
// the probe-hook chaining must leave the congestion trace intact (both
// consumers ride the same ACK events), and the folded statistics must be
// internally coherent.
func TestRTTMonitor(t *testing.T) {
	res, err := hostsim.Run(inspectCfg(5), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbeTrace == nil || res.ProbeTrace.Len() == 0 {
		t.Fatal("probe trace empty: RTT monitor must chain with, not replace, the probe consumer")
	}
	ss := res.SocketSnapshots
	last := func(col string) float64 {
		t.Helper()
		vals, ok := ss.Column("sender/flow001/" + col)
		if !ok {
			t.Fatalf("snapshots missing column sender/flow001/%s", col)
		}
		return vals[len(vals)-1]
	}
	samples := last("rtt_samples")
	if samples <= 0 {
		t.Fatalf("no RTT samples folded in (rtt_samples %v)", samples)
	}
	lastRTT, min, mean := last("rtt_last_ns"), last("rtt_min_ns"), last("rtt_mean_ns")
	p50, p99 := last("rtt_p50_ns"), last("rtt_p99_ns")
	if lastRTT <= 0 || min <= 0 {
		t.Fatalf("non-positive RTT gauges: last %v min %v", lastRTT, min)
	}
	if p99 < p50 || mean < min {
		t.Fatalf("incoherent RTT statistics: min %v mean %v p50 %v p99 %v", min, mean, p50, p99)
	}
	// The passive signal must agree with TCP's own terminal estimate to
	// within histogram bucketing: the last sample is the final SRTT.
	srtt := float64(res.Flows[0].SRTT.Nanoseconds())
	if srtt > 0 && (lastRTT < srtt/2 || lastRTT > srtt*2) {
		t.Errorf("last passive RTT %vns far from terminal SRTT %vns", lastRTT, srtt)
	}
}

// TestInspectTransparencyChecked arms the conservation-law checker and the
// full inspector together and requires the run to be indistinguishable —
// throughput, cycle breakdowns, per-flow stats — from a checked run
// without inspection.
func TestInspectTransparencyChecked(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternOneToOne, 2)
	base := shortCfg(5)
	base.LossRate = 0.01
	base.Check = &hostsim.CheckOptions{Collect: true}

	plain, err := hostsim.Run(base, wl)
	if err != nil {
		t.Fatal(err)
	}
	inspected := base
	inspected.Inspect = &hostsim.InspectOptions{}
	insp, err := hostsim.Run(inspected, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(insp.Violations) != 0 {
		t.Fatalf("inspected run violated invariants: %v", insp.Violations[0])
	}
	if plain.ThroughputGbps != insp.ThroughputGbps {
		t.Fatalf("throughput diverged: %v vs %v", plain.ThroughputGbps, insp.ThroughputGbps)
	}
	if !reflect.DeepEqual(plain.FlowGbps, insp.FlowGbps) {
		t.Fatalf("per-flow goodput diverged: %v vs %v", plain.FlowGbps, insp.FlowGbps)
	}
	if !reflect.DeepEqual(plain.Flows, insp.Flows) {
		t.Fatalf("terminal flow stats diverged:\n%v\nvs\n%v", plain.Flows, insp.Flows)
	}
	if !reflect.DeepEqual(plain.Sender.BreakdownCycles, insp.Sender.BreakdownCycles) {
		t.Fatalf("sender cycle breakdown diverged:\n%v\nvs\n%v",
			plain.Sender.BreakdownCycles, insp.Sender.BreakdownCycles)
	}
	if !reflect.DeepEqual(plain.Receiver.BreakdownCycles, insp.Receiver.BreakdownCycles) {
		t.Fatalf("receiver cycle breakdown diverged:\n%v\nvs\n%v",
			plain.Receiver.BreakdownCycles, insp.Receiver.BreakdownCycles)
	}
	if insp.ProbeTrace.Len() == 0 {
		t.Fatal("probe trace empty")
	}
}

// serializeInspect renders every inspector artifact of a run to bytes.
func serializeInspect(t *testing.T, res *hostsim.Result) []byte {
	t.Helper()
	return slices.Concat(artifact(t, res, "pcap"), artifact(t, res, "probe"), artifact(t, res, "ss"))
}

// TestInspectDeterminism requires capture artifacts from a parallel batch
// to be byte-identical to a serial one.
func TestInspectDeterminism(t *testing.T) {
	var jobs []hostsim.Job
	for seed := int64(1); seed <= 3; seed++ {
		jobs = append(jobs, hostsim.Job{
			Config:   inspectCfg(seed),
			Workload: hostsim.LongFlowWorkload(hostsim.PatternSingle, 1),
		})
	}
	serial, err := hostsim.RunMany(jobs, hostsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := hostsim.RunMany(jobs, hostsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a := serializeInspect(t, serial[i])
		b := serializeInspect(t, parallel[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("job %d: inspect artifacts differ between -jobs=1 and -jobs=8", i)
		}
	}
}

// probeGoldenCfg is the Fig. 3a-style scenario behind the golden traces: a
// single flow on a slow lossy link, so slow start, fast retransmits and
// congestion avoidance all fit in a small file.
func probeGoldenCfg(cc string) hostsim.Config {
	return hostsim.Config{
		Stack:    func() hostsim.Stack { s := hostsim.AllOptimizations(); s.CC = cc; return s }(),
		LinkGbps: 10,
		LossRate: 0.02,
		Seed:     3,
		Warmup:   time.Millisecond,
		Duration: 2 * time.Millisecond,
		Inspect:  &hostsim.InspectOptions{Probe: true},
	}
}

// TestProbeGolden pins the tcp_probe trace of a deterministic reno-vs-cubic
// scenario against golden CSVs (regenerate with `go test -run ProbeGolden
// -update`), and asserts the cwnd shape: monotone growth through slow
// start, at least one fast retransmit, and a cut afterwards.
func TestProbeGolden(t *testing.T) {
	for _, cc := range []string{"reno", "cubic"} {
		t.Run(cc, func(t *testing.T) {
			res, err := hostsim.Run(probeGoldenCfg(cc), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
			if err != nil {
				t.Fatal(err)
			}
			probe := artifact(t, res, "probe")
			golden := filepath.Join("testdata", "golden", fmt.Sprintf("probe_%s.csv", cc))
			if *updateGolden {
				if err := os.WriteFile(golden, probe, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(probe, want) {
				t.Fatalf("probe trace differs from %s (run with -update to regenerate)", golden)
			}

			recs := res.ProbeTrace.Records()
			firstLoss := -1
			for i, r := range recs {
				if r.Host == "sender" && r.Kind.String() == "fast-retransmit" {
					firstLoss = i
					break
				}
			}
			if firstLoss < 0 {
				t.Fatal("no fast retransmit in a 2% loss run")
			}
			var maxBefore int64
			for _, r := range recs[:firstLoss] {
				if r.Host != "sender" || r.Kind.String() != "ack" {
					continue
				}
				if r.Cwnd < maxBefore {
					t.Fatalf("cwnd shrank to %d during loss-free slow start (max %d)", r.Cwnd, maxBefore)
				}
				maxBefore = r.Cwnd
			}
			for _, r := range recs[firstLoss:] {
				if r.Host != "sender" || r.Kind.String() != "ack" {
					continue
				}
				if r.Cwnd >= maxBefore {
					t.Fatalf("first post-loss cwnd sample %d not below pre-loss max %d", r.Cwnd, maxBefore)
				}
				if r.Ssthresh >= maxBefore*4 {
					t.Fatalf("post-loss ssthresh %d still at its initial huge value", r.Ssthresh)
				}
				break
			}
		})
	}
}

// TestInspectPcapOnLargeFabric pins the public API's no-panic rule for
// packet capture on a fabric: the synthesized capture addressing knows two
// hosts, so pcap on more than two is an error — whether asked for
// explicitly or through the zero-value options — while probe traces and
// socket snapshots still work there, and a 2-host fabric still captures.
func TestInspectPcapOnLargeFabric(t *testing.T) {
	run := func(hosts int, o hostsim.InspectOptions) (*hostsim.Result, error) {
		cfg := shortCfg(1)
		cfg.Fabric = &hostsim.FabricOptions{Hosts: hosts}
		cfg.Inspect = &o
		return hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	}
	for _, o := range []hostsim.InspectOptions{{}, {Pcap: true}, {Pcap: true, Probe: true}} {
		if _, err := run(4, o); err == nil {
			t.Errorf("%+v on a 4-host fabric: want an error", o)
		}
	}
	res, err := run(4, hostsim.InspectOptions{Probe: true, SS: true})
	if err != nil {
		t.Fatalf("probe+ss on a 4-host fabric: %v", err)
	}
	if res.ProbeTrace == nil || res.SocketSnapshots == nil || res.PacketCaptures != nil {
		t.Fatal("probe+ss on a 4-host fabric: wrong artifact set")
	}
	res, err = run(2, hostsim.InspectOptions{})
	if err != nil {
		t.Fatalf("pcap on a 2-host fabric: %v", err)
	}
	if len(res.PacketCaptures) != 2 {
		t.Fatalf("2-host fabric captured %d directions, want 2", len(res.PacketCaptures))
	}
}

// TestFlowStatsAlwaysOn checks the zero-config satellite: every run
// reports terminal per-flow TCP stats, and they reconcile with the host
// aggregates.
func TestFlowStatsAlwaysOn(t *testing.T) {
	cfg := shortCfg(2)
	cfg.LossRate = 0.01
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketCaptures != nil || res.ProbeTrace != nil || res.SocketSnapshots != nil {
		t.Fatal("inspection artifacts present without Config.Inspect")
	}
	if len(res.Flows) == 0 {
		t.Fatal("Flows not populated on a plain run")
	}
	sums := map[string]int64{}
	for _, fl := range res.Flows {
		if fl.CC != "cubic" {
			t.Fatalf("flow %d reports CC %q, want cubic", fl.Flow, fl.CC)
		}
		if fl.Host == "sender" && fl.SentBytes == 0 {
			t.Fatalf("sender flow %d reports zero sent bytes", fl.Flow)
		}
		sums[fl.Host] += fl.Retransmits
	}
	if sums["sender"] != res.Sender.Retransmits {
		t.Fatalf("sender flow retransmits sum %d != host stat %d", sums["sender"], res.Sender.Retransmits)
	}
	if sums["sender"] == 0 {
		t.Fatal("no retransmits recorded in a lossy run")
	}
	if fl := res.Flows[0]; fl.SRTT <= 0 || fl.Cwnd <= 0 {
		t.Fatalf("flow 0 terminal state not populated: %+v", fl)
	}
}

// TestFabric2HostPcapAddressing pins the capture addressing on an explicit
// 2-host fabric to the pair's rule: interface i carries host i's
// transmissions, so host000's first data packet decodes as
// 10.0.0.1:40001 -> 10.0.0.2:5001 on interface host000->host001.
func TestFabric2HostPcapAddressing(t *testing.T) {
	cfg := shortCfg(3)
	cfg.Fabric = &hostsim.FabricOptions{Hosts: 2}
	cfg.Inspect = &hostsim.InspectOptions{Pcap: true}
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 0))
	if err != nil {
		t.Fatal(err)
	}
	f, err := inspect.ReadPcap(bytes.NewReader(artifact(t, res, "pcap")))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Interfaces) != 2 || f.Interfaces[0].Name != "host000->host001" || f.Interfaces[1].Name != "host001->host000" {
		t.Fatalf("unexpected interfaces %+v", f.Interfaces)
	}
	for _, p := range f.Packets {
		if !p.Decoded || p.PayloadLen == 0 {
			continue
		}
		if got := f.Interfaces[p.Interface].Name; got != "host000->host001" {
			t.Errorf("first data packet on interface %q, want host000->host001", got)
		}
		if p.SrcIP != 0x0A000001 || p.DstIP != 0x0A000002 || p.SrcPort != 40001 || p.DstPort != 5001 {
			t.Errorf("first data packet decodes as %08x:%d -> %08x:%d, want 10.0.0.1:40001 -> 10.0.0.2:5001",
				p.SrcIP, p.SrcPort, p.DstIP, p.DstPort)
		}
		return
	}
	t.Fatal("capture holds no data packet")
}
