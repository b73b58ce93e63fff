package hostsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/telemetry"
)

// FuzzConfig explores the configuration space with the fail-fast
// invariant checker as its oracle: every generated config is sanitized
// into a valid one, so any Run error — in particular a conservation-law
// Failure — is a real bug. The fuzzer hunts for stack/workload/loss
// combinations whose interleavings leak buffers, drop cycles or corrupt
// TCP sequence state; `go test -fuzz=FuzzConfig` runs it open-ended and
// CI smokes it briefly on every push.
//
// Reproduce a crasher with:
//
//	go test -run 'FuzzConfig/<name>' .
//
// after copying the reported file into testdata/fuzz/FuzzConfig/.
func FuzzConfig(f *testing.F) {
	// seeds: the paper's headline scenarios, compressed; the last covers a
	// 16-host fabric incast against a tight shared buffer.
	f.Add(int64(1), uint16(2000), uint8(1), uint8(0), uint8(0), uint8(0), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0xff), uint8(0), uint8(4), uint8(0), uint16(0), uint8(0))
	f.Add(int64(7), uint16(1500), uint8(8), uint8(2), uint8(2), uint8(1), uint16(150), uint16(256), uint16(400), uint8(90), uint8(0x3f), uint8(1), uint8(16), uint8(0), uint16(0), uint8(0))
	f.Add(int64(42), uint16(1000), uint8(3), uint8(4), uint8(3), uint8(4), uint16(0), uint16(1024), uint16(0), uint8(0), uint8(0x00), uint8(2), uint8(4), uint8(0), uint16(0), uint8(0))
	f.Add(int64(9), uint16(1200), uint8(2), uint8(2), uint8(0), uint8(1), uint16(0), uint16(0), uint16(0), uint8(0), uint8(0x77), uint8(0), uint8(4), uint8(16), uint16(512), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, durUS uint16, flows, patIdx, ccIdx, steerIdx uint8,
		lossTenthsPermille, ring, rxbufKB uint16, ecnKB, optBits, wlIdx, rpcKB uint8,
		fabHosts uint8, fabBufKB uint16, fabAlphaTenths uint8) {

		patterns := []Pattern{PatternSingle, PatternOneToOne, PatternIncast, PatternOutcast, PatternAllToAll}
		ccs := []string{"cubic", "reno", "dctcp", "bbr"}
		steerings := []string{"", "arfs", "rss", "rfs", "rps", "worst"}

		s := Stack{
			TSO:         optBits&1 != 0,
			GSO:         optBits&2 != 0,
			GRO:         optBits&4 != 0,
			LRO:         optBits&8 != 0,
			JumboFrames: optBits&16 != 0,
			ARFS:        optBits&32 != 0,
			DCA:         optBits&64 != 0,
			IOMMU:       optBits&128 != 0,
			CC:          ccs[int(ccIdx)%len(ccs)],
			Steering:    steerings[int(steerIdx)%len(steerings)],
		}
		if s.LRO {
			s.GRO = false // mutually exclusive
		}
		if ring > 0 {
			s.RxDescriptors = 16 + int(ring)%8177 // [16, 8192]
		}
		if rxbufKB > 0 {
			s.RcvBufBytes = int64(16+int(rxbufKB)%12785) * 1024 // [16KB, 12800KB]
		}

		cfg := Config{
			Stack:     s,
			Seed:      seed,
			LossRate:  float64(lossTenthsPermille%501) / 10000, // [0, 0.05]
			ECNMarkKB: int(ecnKB) % 201,                        // [0, 200]
			Warmup:    2 * time.Millisecond,
			Duration:  time.Duration(500+int(durUS)%2501) * time.Microsecond, // [0.5ms, 3ms]
			Check:     &CheckOptions{},                                       // fail fast: the oracle
		}

		var wl Workload
		switch wlIdx % 3 {
		case 0:
			p := patterns[int(patIdx)%len(patterns)]
			n := 1 + int(flows)%8
			switch p {
			case PatternSingle:
				n = 1
			case PatternAllToAll:
				n = 1 + n%3 // n^2 flows: keep the grid small
			}
			wl = LongFlowWorkload(p, n)
			wl.RemoteNUMA = p == PatternSingle && optBits&3 == 3
		case 1:
			wl = RPCIncastWorkload(1+int(flows)%16, int64(1+int(rpcKB)%64)*1024)
		case 2:
			wl = MixedWorkload(int(flows)%16, int64(1+int(rpcKB)%64)*1024)
		}

		// fabHosts >= 2 moves a long workload onto the switch fabric
		// (fabric mode supports only long workloads; RPC/mixed and
		// RemoteNUMA stay on the default pair). The same checker oracle
		// audits per-port conservation and the shared-buffer ledger.
		if fabHosts >= 2 && wl.Kind == "long" && !wl.RemoteNUMA {
			hosts := 2 + int(fabHosts)%63 // [2, 64]
			switch wl.Pattern {
			case PatternOneToOne:
				hosts &^= 1 // pairing needs an even host count
			case PatternAllToAll:
				hosts = 2 + hosts%7 // [2, 8]: flow count is quadratic
			}
			cfg.Fabric = &FabricOptions{
				Hosts:          hosts,
				SharedBufferKB: int(fabBufKB) % 4097,              // [0, 4096]
				Alpha:          float64(fabAlphaTenths%41) / 10.0, // [0, 4.0]
			}
		}

		res, err := Run(cfg, wl)
		if err != nil {
			t.Fatalf("sanitized config failed: %v\nconfig: %+v\nworkload: %+v", err, cfg, wl)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations escaped fail-fast mode: %v", res.Violations)
		}
	})
}

// rawRun is one FuzzRunRaw input: raw fields that reach Run's Config,
// Workload and observer options without being made valid first.
type rawRun struct {
	Seed           int64
	Kind, Pattern  uint8 // indexes into kinds/patterns; the last entry of each is unknown
	Scale          int8  // Workload.N, RPCClients and MixedShort
	RPCSize        int32
	StackBits      uint16 // Stack toggles, then Segregate and RemoteNUMA
	CC, Steering   string
	Ring           int16
	RcvBuf, SndBuf int32
	SchedK         int8
	Tuning         []byte // int16 fields, two bytes each; empty = nil Tuning; fields 2 and 4 are unread
	Hazard         float64
	CostIdx        uint8 // 0 = no CostScale; the last index is an unknown name
	CostFactor     float64
	LinkGbps       int64
	Loss           float64
	ECNKB          int64
	Warmup, Dur    int8  // ×100µs; 0 = the default window
	Hosts          int16 // 0 = the default pair
	BufKB          int64
	Alpha          float64
	Names          uint8  // HostNames mode: see names
	ObsBits        uint16 // which observers are armed
	Obs            []byte // int8 observer bounds and intervals; byte 0 masks the superset's observers; bytes 1, 5-8, 10, 13 and 15-17 are unread
	BurstKB        int64
}

// Observer bits of rawRun.ObsBits.
const (
	rawCheck = 1 << iota
	rawCollect
	rawSpans
	rawTelemetry
	rawInspect
	rawPcap
	rawProbe
	rawSS
	rawProfile
	rawMsgTrace
	rawFabricObs
	rawAllObs = 1<<11 - 1
)

// build turns the raw fields into Run's inputs. Only magnitudes are
// bounded, and only to keep one execution small: windows, sample
// intervals, the trace ring and the exemplar count are int8-scaled, and a
// host count inside the valid [2,256] folds into [2,16]. Signs, zeros,
// NaN, infinities, unknown names and out-of-range counts all pass
// through. The unread Tuning and Obs positions stay as holes so that
// every read field keeps its index and a committed corpus file drives the
// same fields.
func (r rawRun) build() (Config, Workload) {
	kinds := []string{"long", "rpc", "mixed", "quic"}
	patterns := []Pattern{PatternSingle, PatternOneToOne, PatternIncast, PatternOutcast, PatternAllToAll, "ring"}
	bit := func(i uint) bool { return r.StackBits&(1<<i) != 0 }
	wl := Workload{
		Kind: kinds[int(r.Kind)%len(kinds)], Pattern: patterns[int(r.Pattern)%len(patterns)],
		N: int(r.Scale), RPCClients: int(r.Scale), MixedShort: int(r.Scale), RPCSize: int64(r.RPCSize),
		Segregate: bit(11), RemoteNUMA: bit(12),
	}
	cfg := Config{
		Stack: Stack{
			TSO: bit(0), GSO: bit(1), GRO: bit(2), LRO: bit(3), JumboFrames: bit(4), ARFS: bit(5),
			DCA: bit(6), IOMMU: bit(7), ZeroCopyTx: bit(8), ZeroCopyRx: bit(9), DCAAwareDRS: bit(10),
			CC: r.CC, Steering: r.Steering, RcvSchedulerK: int(r.SchedK), RxDescriptors: int(r.Ring),
			RcvBufBytes: int64(r.RcvBuf), SndBufBytes: int64(r.SndBuf),
		},
		LinkGbps: int(r.LinkGbps), LossRate: r.Loss, ECNMarkKB: int(r.ECNKB), Seed: r.Seed,
		Warmup:   time.Duration(r.Warmup) * 100 * time.Microsecond,
		Duration: time.Duration(r.Dur) * 100 * time.Microsecond,
	}
	if len(r.Tuning) > 0 {
		tn := func(i int) int64 {
			if 2*i+1 < len(r.Tuning) {
				return int64(int16(uint16(r.Tuning[2*i]) | uint16(r.Tuning[2*i+1])<<8))
			}
			return 0
		}
		cfg.Tuning = &Tuning{
			TSQBytes: tn(0), SchedGranularity: time.Duration(tn(1)) * time.Microsecond,
			ModerationDelay: time.Duration(tn(3)) * time.Microsecond, PagesetCap: int(tn(5)), DCAHazardFactor: r.Hazard,
		}
	}
	if r.CostIdx > 0 {
		names := append(CostNames(), "NoSuchCost")
		cfg.CostScale = map[string]float64{names[int(r.CostIdx-1)%len(names)]: r.CostFactor}
	}
	if h := int(r.Hosts); h != 0 {
		if h >= 2 && h <= 256 {
			h = 2 + h%15
		}
		cfg.Fabric = &FabricOptions{Hosts: h, SharedBufferKB: int(r.BufKB), Alpha: r.Alpha, HostNames: r.names(h)}
	}

	ob := func(i int) int {
		if i < len(r.Obs) {
			return int(int8(r.Obs[i]))
		}
		return 0
	}
	tick := func(i int) time.Duration { return time.Duration(ob(i)) * 10 * time.Microsecond }
	armed := func(b uint16) bool { return r.ObsBits&b != 0 }
	if armed(rawCheck) {
		cfg.Check = &CheckOptions{Collect: armed(rawCollect)}
	}
	cfg.TraceEvents, cfg.TraceFlow, cfg.TraceSpans = ob(2), int32(ob(3)), armed(rawSpans)
	if armed(rawTelemetry) {
		cfg.Telemetry = &Telemetry{SampleInterval: tick(4)}
	}
	if armed(rawInspect) {
		cfg.Inspect = &InspectOptions{Pcap: armed(rawPcap), Probe: armed(rawProbe), SS: armed(rawSS), SSInterval: tick(9)}
	}
	if armed(rawProfile) {
		cfg.Profile = &ProfileOptions{}
	}
	if armed(rawMsgTrace) {
		cfg.MsgTrace = &MsgTraceOptions{MsgBytes: int64(ob(11)) * 1024, Slowest: ob(12)}
	}
	if armed(rawFabricObs) {
		cfg.FabricObs = &FabricObsOptions{SampleInterval: tick(14), BurstThresholdKB: int(r.BurstKB)}
	}
	return cfg, wl
}

// names builds Fabric.HostNames for h hosts: none when Names is 0,
// otherwise "h<i mod k>" for k = the low six bits (k 0 means all distinct,
// k < h repeats names), one name short with bit 6, and a '/' in the last
// name with bit 7.
func (r rawRun) names(h int) []string {
	if r.Names == 0 || h <= 0 || h > 256 {
		return nil
	}
	k := int(r.Names & 0x3f)
	out := make([]string, h)
	for i := range out {
		j := i
		if k > 0 {
			j = i % k
		}
		out[i] = fmt.Sprintf("h%d", j)
	}
	if r.Names&0x80 != 0 {
		out[h-1] += "/x"
	}
	if r.Names&0x40 != 0 {
		out = out[:h-1]
	}
	return out
}

// FuzzRunRaw drives Run's whole public input surface with raw values
// (see rawRun.build): nothing is sanitized into a valid config first. The
// oracle: Run returns a result or an error and never panics, a fail-fast
// checker failure is a bug, a collecting checker reports no violations,
// a run with observers armed measures exactly what it measures with
// every observer off, a run with a superset of its observers armed (see
// superset; Obs byte 0 draws which) measures the same and writes every
// artifact the run wrote byte for byte (its trace's processes event for
// event; see ArtifactWithin), and the run and its observers-off
// twin measure the same through RunMany on two workers as serially.
// `go test -fuzz=FuzzRunRaw .` hunts open-ended; CI
// smokes it briefly beside FuzzConfig.
//
// Reproduce a crasher with:
//
//	go test -run 'FuzzRunRaw/<name>' .
//
// after copying the reported file into testdata/fuzz/FuzzRunRaw/.
func FuzzRunRaw(f *testing.F) {
	valid := rawRun{Seed: 3, Kind: 0, Scale: 1, StackBits: 0x77, CC: "cubic", Warmup: 20, Dur: 20,
		ObsBits: rawAllObs &^ rawFabricObs, Obs: []byte{0, 0, 64}}
	fabric := valid
	fabric.Pattern, fabric.Hosts, fabric.BufKB, fabric.ObsBits = 2, 6, 256, rawAllObs&^rawPcap
	rpc := valid
	rpc.Kind, rpc.Scale, rpc.RPCSize, rpc.Loss = 1, 8, 4096, 0.01
	// One seed per remaining placement branch, the rejected ones included.
	allToAll := valid
	allToAll.Pattern, allToAll.Scale = 4, 3
	remoteRPC := rpc
	remoteRPC.StackBits |= 1 << 12
	segregated := valid
	segregated.Kind, segregated.Scale, segregated.RPCSize, segregated.StackBits = 2, 4, 4096, valid.StackBits|1<<11
	remoteMixed := segregated
	remoteMixed.StackBits |= 1 << 12
	oddOneToOne := fabric
	oddOneToOne.Pattern, oddOneToOne.Hosts = 1, 3 // 3 folds to 5 hosts
	// Inputs that once panicked inside a constructor.
	negECN := valid
	negECN.ECNKB = -5
	fastLink := valid
	fastLink.LinkGbps = 1 << 40
	dupTelemetry := fabric
	dupTelemetry.Hosts, dupTelemetry.Names, dupTelemetry.ObsBits = 3, 2, rawTelemetry
	dupSS := dupTelemetry
	dupSS.ObsBits = rawInspect | rawSS
	for _, r := range []rawRun{valid, fabric, rpc, allToAll, remoteRPC, segregated, remoteMixed, oddOneToOne,
		negECN, fastLink, dupTelemetry, dupSS} {
		f.Add(r.Seed, r.Kind, r.Pattern, r.Scale, r.RPCSize, r.StackBits, r.CC, r.Steering,
			r.Ring, r.RcvBuf, r.SndBuf, r.SchedK, r.Tuning, r.Hazard, r.CostIdx, r.CostFactor,
			r.LinkGbps, r.Loss, r.ECNKB, r.Warmup, r.Dur, r.Hosts, r.BufKB, r.Alpha, r.Names,
			r.ObsBits, r.Obs, r.BurstKB)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind, pattern uint8, scale int8, rpcSize int32, stackBits uint16,
		cc, steering string, ring int16, rcvBuf, sndBuf int32, schedK int8, tuning []byte, hazard float64,
		costIdx uint8, costFactor float64, linkGbps int64, loss float64, ecnKB int64, warmup, dur int8,
		hosts int16, bufKB int64, alpha float64, names uint8, obsBits uint16, obs []byte, burstKB int64) {

		cfg, wl := rawRun{seed, kind, pattern, scale, rpcSize, stackBits, cc, steering, ring, rcvBuf, sndBuf,
			schedK, tuning, hazard, costIdx, costFactor, linkGbps, loss, ecnKB, warmup, dur, hosts, bufKB,
			alpha, names, obsBits, obs, burstKB}.build()
		res, err := Run(cfg, wl)
		var fail *check.Failure
		if errors.As(err, &fail) {
			t.Fatalf("invariant failure: %v\nconfig: %+v\nworkload: %+v", err, cfg, wl)
		}
		if err != nil {
			return
		}
		if len(res.Violations) != 0 {
			t.Fatalf("violations: %v\nconfig: %+v\nworkload: %+v", res.Violations, cfg, wl)
		}
		// Transparency: turning every armed observer off must not change
		// what the run measured.
		armed := false
		for _, o := range attachOrder {
			armed = armed || o.arm(&cfg) != nil
		}
		bare := cfg
		bare.Check, bare.Telemetry, bare.Inspect, bare.MsgTrace, bare.Profile, bare.FabricObs = nil, nil, nil, nil, nil, nil
		bare.TraceEvents, bare.TraceSpans = 0, false
		bareRes := res
		if armed {
			if bareRes, err = Run(bare, wl); err != nil {
				t.Fatalf("observers off: %v\nconfig: %+v\nworkload: %+v", err, bare, wl)
			}
			if a, b := fingerprint(res), fingerprint(bareRes); a != b {
				t.Fatalf("observers changed the run:\n observed: %s\n     bare: %s\nconfig: %+v\nworkload: %+v", a, b, cfg, wl)
			}
		}
		// Composition: arming more observers changes neither what the run
		// measured nor any artifact it wrote, in either encoding.
		var skip byte
		if len(obs) > 0 {
			skip = obs[0]
		}
		if sup, added := superset(cfg, skip); added {
			supRes, err := Run(sup, wl)
			if err != nil {
				t.Fatalf("observer superset: %v\nconfig: %+v\nworkload: %+v", err, sup, wl)
			}
			if a, b := fingerprint(res), fingerprint(supRes); a != b {
				t.Fatalf("more observers changed the run:\n     run: %s\nsuperset: %s\nconfig: %+v\nworkload: %+v", a, b, cfg, wl)
			}
			more := map[string]Artifact{}
			for _, a := range supRes.Artifacts() {
				more[a.Name] = a
			}
			for _, a := range res.Artifacts() {
				m, ok := more[a.Name]
				if !ok {
					t.Fatalf("more observers dropped the %s artifact\nconfig: %+v\nworkload: %+v", a.Name, cfg, wl)
				}
				err := ArtifactWithin(a.Name, render(t, a.Name, a.Write), render(t, a.Name, m.Write))
				if err == nil && a.JSONL != nil && !bytes.Equal(render(t, a.Name, a.JSONL), render(t, a.Name, m.JSONL)) {
					err = errors.New("JSON lines differ")
				}
				if err != nil {
					t.Fatalf("more observers changed the %s artifact: %v\nconfig: %+v\nworkload: %+v", a.Name, err, cfg, wl)
				}
			}
		}
		// Determinism at any -jobs: the run and its observers-off twin,
		// side by side on two workers, measure what they did serially.
		par, err := RunMany([]Job{{Config: cfg, Workload: wl}, {Config: bare, Workload: wl}}, WithParallelism(2))
		if err != nil {
			t.Fatalf("RunMany: %v\nconfig: %+v\nworkload: %+v", err, cfg, wl)
		}
		for i, serial := range []*Result{res, bareRes} {
			if a, b := fingerprint(par[i]), fingerprint(serial); a != b {
				t.Fatalf("job %d under RunMany differs from its serial run:\n parallel: %s\n   serial: %s\nconfig: %+v\nworkload: %+v", i, a, b, cfg, wl)
			}
		}
	})
}

// superset returns cfg with more observers armed, and says whether it
// added any. Each observer cfg leaves off is armed at its default
// options unless its bit in skip is set (bit 0 check, then telemetry,
// inspect, profile, msgtrace, fabricobs and trace), and an armed
// inspector captures everything. It keeps the options of the observers
// cfg arms, which shape their artifacts, and leaves out what Run would
// reject: pcap on more than 2 hosts, FabricObs without a fabric,
// execution spans under a TraceFlow, and a tracer under a negative one.
func superset(cfg Config, skip byte) (Config, bool) {
	s := cfg
	add := func(bit uint) bool { return skip&(1<<bit) == 0 }
	if s.Check == nil && add(0) {
		s.Check = &CheckOptions{}
	}
	if s.Telemetry == nil && add(1) {
		s.Telemetry = &Telemetry{}
	}
	if add(2) {
		in := InspectOptions{}
		if s.Inspect != nil {
			in = *s.Inspect
		}
		in.Pcap, in.Probe, in.SS = s.Fabric == nil || s.Fabric.Hosts <= 2, true, true
		s.Inspect = &in
	}
	if s.Profile == nil && add(3) {
		s.Profile = &ProfileOptions{}
	}
	if s.MsgTrace == nil && add(4) {
		s.MsgTrace = &MsgTraceOptions{}
	}
	if s.FabricObs == nil && s.Fabric != nil && add(5) {
		s.FabricObs = &FabricObsOptions{}
	}
	if s.TraceEvents == 0 && !s.TraceSpans && s.TraceFlow >= 0 && add(6) {
		s.TraceEvents, s.TraceSpans = 1<<12, s.TraceFlow == 0
	}
	return s, !reflect.DeepEqual(s, cfg)
}

// render writes one encoding of the named artifact into memory.
func render(t *testing.T, name string, write func(io.Writer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b.Bytes()
}

// ArtifactWithin says how the named artifact of a run differs from the
// same artifact of a run with more observers armed, or returns nil if it
// does not. Every artifact must match byte for byte except trace, whose
// tracks come from whichever producers are armed: there each process of
// the smaller trace, keyed by its process_name, must carry exactly the
// events, in order, that the larger trace carries for it.
func ArtifactWithin(name string, small, large []byte) error {
	if name != "trace" {
		if !bytes.Equal(small, large) {
			return fmt.Errorf("%d bytes, %d with more observers", len(small), len(large))
		}
		return nil
	}
	s, err := TraceByProcess(small)
	if err != nil {
		return err
	}
	l, err := TraceByProcess(large)
	if err != nil {
		return err
	}
	for proc, evs := range s {
		if !reflect.DeepEqual(evs, l[proc]) {
			return fmt.Errorf("process %q: %d events, %d with more observers", proc, len(evs), len(l[proc]))
		}
	}
	return nil
}

// TraceByProcess decodes a Chrome trace and groups its events by the
// process_name of their pid, in trace order, with the pid cleared: pids
// number processes in first-appearance order, so they shift when another
// producer's tracks come first.
func TraceByProcess(data []byte) (map[string][]telemetry.ChromeEvent, error) {
	evs, err := telemetry.ReadChromeTrace(data)
	if err != nil {
		return nil, err
	}
	names := make(map[int]string)
	procs := make(map[string][]telemetry.ChromeEvent)
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.Pid], _ = e.Args["name"].(string)
		}
		proc := names[e.Pid]
		e.Pid = 0
		procs[proc] = append(procs[proc], e)
	}
	return procs, nil
}

// fingerprint renders what a run measured, for the transparency oracle:
// the headline numbers plus every host, flow and the fabric.
func fingerprint(r *Result) string {
	return fmt.Sprintf("dur=%v thpt=%v tpc=%v bott=%s rpc=%d longGbps=%v rpcGbps=%v flows=%v fair=%v\nhosts=%+v\nflowstats=%+v\nfab=%+v",
		r.Duration, r.ThroughputGbps, r.ThroughputPerCoreGbps, r.Bottleneck,
		r.RPCCompleted, r.LongFlowGbps, r.RPCGbps, r.FlowGbps, r.FairnessIndex,
		r.Hosts, r.Flows, r.Fabric)
}
