package hostsim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"hostsim"
)

// render writes one encoding of the named artifact into memory.
func render(t testing.TB, name string, write func(io.Writer) error) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b.Bytes()
}

// lookup returns the named entry of r.Artifacts, failing the test when
// the run lists none by that name.
func lookup(t testing.TB, r *hostsim.Result, name string) hostsim.Artifact {
	t.Helper()
	for _, a := range r.Artifacts() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("run lists no %s artifact", name)
	return hostsim.Artifact{}
}

// artifact renders the named artifact's primary encoding.
func artifact(t testing.TB, r *hostsim.Result, name string) []byte {
	t.Helper()
	return render(t, name, lookup(t, r, name).Write)
}

// artifactJSONL renders the named artifact's JSON lines.
func artifactJSONL(t testing.TB, r *hostsim.Result, name string) []byte {
	t.Helper()
	return render(t, name, lookup(t, r, name).JSONL)
}

// pairDigest hashes every deterministic output of a default-pair run:
// the top-line fingerprint, the per-host stat blocks, the terminal flow
// states, the recorded trace and every artifact the run lists.
func pairDigest(t *testing.T, r *hostsim.Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\nhosts=%+v\nflows=%+v\nfab=%+v\nviol=%+v\ntrace=%+v\n",
		fingerprint(r), r.Hosts, r.Flows, r.Fabric, r.Violations, r.Trace)
	section := func(name string, write func(io.Writer) error) {
		fmt.Fprintf(h, "--- %s\n", name)
		h.Write(render(t, name, write))
	}
	for _, a := range r.Artifacts() {
		section(a.Name, a.Write)
		// The pins cover the fabric report's JSON lines too, hashed as a
		// section of their own right after its CSV; no other JSON-lines
		// form is hashed.
		if a.Name == "fabric-report" {
			section("fabric-report-jsonl", a.JSONL)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// fabricObservers arms, one entry each, the observers of the
// observed-fabric-incast16 case: every observer but pcap, which needs two
// hosts.
var fabricObservers = []struct {
	name string
	arm  func(*hostsim.Config)
}{
	{"check", func(c *hostsim.Config) { c.Check = &hostsim.CheckOptions{Collect: true} }},
	{"inspect", func(c *hostsim.Config) { c.Inspect = &hostsim.InspectOptions{Probe: true, SS: true} }},
	{"telemetry", func(c *hostsim.Config) { c.Telemetry = &hostsim.Telemetry{} }},
	{"profile", func(c *hostsim.Config) { c.Profile = &hostsim.ProfileOptions{} }},
	{"msgtrace", func(c *hostsim.Config) { c.MsgTrace = &hostsim.MsgTraceOptions{} }},
	{"fabricobs", func(c *hostsim.Config) { c.FabricObs = &hostsim.FabricObsOptions{} }},
	{"trace", func(c *hostsim.Config) { c.TraceEvents, c.TraceSpans = 4096, true }},
}

// observedFabric is the buffered 16-host fabric the observed cases run on.
func observedFabric(loss float64) hostsim.Config {
	return hostsim.Config{Stack: hostsim.AllOptimizations(), Seed: 7, LossRate: loss,
		Warmup: 4 * time.Millisecond, Duration: 6 * time.Millisecond,
		Fabric: &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}}
}

// renderAll renders every artifact r lists, both encodings where it has
// two, keyed by name (the JSON lines under name+".jsonl"), and returns
// the names in list order.
func renderAll(t *testing.T, r *hostsim.Result) (map[string][]byte, []string) {
	t.Helper()
	out := map[string][]byte{}
	var names []string
	for _, a := range r.Artifacts() {
		names = append(names, a.Name)
		out[a.Name] = render(t, a.Name, a.Write)
		if a.JSONL != nil {
			out[a.Name+".jsonl"] = render(t, a.Name, a.JSONL)
		}
	}
	return out, names
}

// TestArtifactsCompose runs each observer of the observed-fabric-incast16
// case alone, lossless and at 0.5 % loss. The run must measure what the
// run with every observer armed measures, and each artifact it writes,
// in both encodings, must be contained in the same artifact from that
// run (hostsim.ArtifactWithin): byte-identical, except that a lone
// producer's trace carries its own processes of the armed run's trace.
// Between them the lone runs write every artifact of the armed run once,
// and every process of its trace once, and the armed run lists every
// artifact but pcap, which a 2-host run with pcap also armed lists
// besides.
func TestArtifactsCompose(t *testing.T) {
	every := hostsim.Config{Stack: hostsim.AllOptimizations(), Seed: 7,
		Warmup: time.Millisecond, Duration: time.Millisecond, Fabric: &hostsim.FabricOptions{Hosts: 2}}
	for _, o := range fabricObservers {
		o.arm(&every)
	}
	every.Inspect.Pcap = true
	pair, err := hostsim.Run(every, hostsim.LongFlowWorkload(hostsim.PatternSingle, 0))
	if err != nil {
		t.Fatal(err)
	}
	var butPcap []string
	for _, a := range pair.Artifacts() {
		if a.Name != "pcap" {
			butPcap = append(butPcap, a.Name)
		}
	}

	// units names what an artifact covers: itself, or, for the trace,
	// each of its processes.
	units := func(name string, data []byte) []string {
		if name != "trace" {
			return []string{name}
		}
		procs, err := hostsim.TraceByProcess(data)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for proc := range procs {
			out = append(out, "trace "+proc)
		}
		return out
	}
	wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
	for _, loss := range []float64{0, 0.005} {
		all := observedFabric(loss)
		for _, o := range fabricObservers {
			o.arm(&all)
		}
		res, err := hostsim.Run(all, wl)
		if err != nil {
			t.Fatal(err)
		}
		want, names := renderAll(t, res)
		if !slices.Equal(names, butPcap) {
			t.Errorf("loss %v: the armed run lists %v; want every artifact but pcap, %v", loss, names, butPcap)
		}
		// The lone runs that wrote each unit of the armed run's artifacts.
		written := map[string]int{}
		for name, data := range want {
			for _, u := range units(name, data) {
				written[u] = 0
			}
		}
		for _, o := range fabricObservers {
			cfg := observedFabric(loss)
			o.arm(&cfg)
			alone, err := hostsim.Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if got, all := fingerprint(alone), fingerprint(res); got != all {
				t.Errorf("loss %v, %s alone measures\n%s\nwith every observer\n%s", loss, o.name, got, all)
			}
			got, _ := renderAll(t, alone)
			for name, data := range got {
				w, ok := want[name]
				if !ok {
					t.Errorf("loss %v: %s alone writes a %s artifact the armed run lacks", loss, o.name, name)
					continue
				}
				if err := hostsim.ArtifactWithin(name, data, w); err != nil {
					t.Errorf("loss %v: %s alone writes a different %s artifact: %v", loss, o.name, name, err)
				}
				for _, u := range units(name, data) {
					written[u]++
				}
			}
		}
		for name, n := range written {
			if n != 1 {
				t.Errorf("loss %v: lone runs wrote %s %d times; want once", loss, name, n)
			}
		}
	}
}

// TestPairPinnedDigests pins the default sender/receiver pair's bytes:
// the digests were computed when the pair still ran on a hand-wired
// direct link, before it became a 2-port switch fabric, and must hold
// unchanged on the fabric. They cover the plain workloads, the lossy
// paths (loss is data-only on the pair), the wire inspector's pcap,
// tcp_probe and ss exports with the checker armed, the telemetry CSV,
// and every observer at once. The last case pins a buffered 16-host
// fabric incast with every observer armed except pcap (which needs two
// hosts), fabric observatory included, and requires its fingerprint to
// equal the unobserved twin's: observers compose without perturbing the
// run.
func TestPairPinnedDigests(t *testing.T) {
	base := func() hostsim.Config {
		return hostsim.Config{Stack: hostsim.AllOptimizations(), Seed: 7,
			Warmup: 4 * time.Millisecond, Duration: 6 * time.Millisecond}
	}
	lossy := func() hostsim.Config {
		cfg := base()
		cfg.LossRate = 0.005
		return cfg
	}
	fabric := func(hosts int) func() hostsim.Config {
		return func() hostsim.Config {
			cfg := base()
			cfg.Fabric = &hostsim.FabricOptions{Hosts: hosts, SharedBufferKB: 256}
			return cfg
		}
	}
	remote := func(wl hostsim.Workload) hostsim.Workload {
		wl.RemoteNUMA = true
		return wl
	}
	segregated := hostsim.MixedWorkload(4, 4096)
	segregated.Segregate = true
	for _, tc := range []struct {
		name string
		cfg  func() hostsim.Config
		wl   hostsim.Workload
		pin  string
	}{
		{"single", base, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), "683a412f7397c035ba0883caeafb44d6ac865aea60c4217ea16afeb580b8ec19"},
		{"lossy-mixed", lossy, hostsim.MixedWorkload(4, 4096), "5fb6b7166640100a06a1720194f0e64821792f7358c1cf46cc006c9d20841995"},
		{"rpc16", base, hostsim.RPCIncastWorkload(16, 4096), "ca6abd2b6a0fc0368c2f1a233e4946eb6d43a52ced32571ef572eafc8be570d5"},
		{"inspected-lossy-incast", func() hostsim.Config {
			cfg := base()
			cfg.LossRate = 0.01
			cfg.Check = &hostsim.CheckOptions{}
			cfg.Inspect = &hostsim.InspectOptions{}
			return cfg
		}, hostsim.LongFlowWorkload(hostsim.PatternIncast, 4), "4bb49929d1c5d9abd9da25e6cf46e2af99167192935c04fe7b010483f05f0d4d"},
		{"telemetry", func() hostsim.Config {
			cfg := base()
			cfg.Telemetry = &hostsim.Telemetry{}
			return cfg
		}, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), "d4cf87ec31be48fb6bb32eb3f380c135c63e41e29b772d256e52673dcc18ebac"},
		{"observed-lossy-mixed", func() hostsim.Config {
			cfg := lossy()
			cfg.Check = &hostsim.CheckOptions{}
			cfg.Inspect = &hostsim.InspectOptions{}
			cfg.Telemetry = &hostsim.Telemetry{}
			cfg.Profile = &hostsim.ProfileOptions{}
			cfg.MsgTrace = &hostsim.MsgTraceOptions{}
			cfg.TraceEvents = 2000
			cfg.TraceSpans = true
			return cfg
		}, hostsim.MixedWorkload(4, 4096), "a8a859254e5f7a876b64c63e5758f9b0fee6512b8870f53ca862dc5551824b2e"},
		{"observed-fabric-incast16", func() hostsim.Config {
			cfg := observedFabric(0)
			for _, o := range fabricObservers {
				o.arm(&cfg)
			}
			return cfg
		}, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), "2434d31e62f6e4b66bc88f18f29d909eb26952b1993109ea9983e26af83299eb"},
		{"one-to-one4", base, hostsim.LongFlowWorkload(hostsim.PatternOneToOne, 4), "6d70c582b5c5b357806d333561ef29d9bd412a0099fa71d044d0163657f7c50a"},
		{"outcast4", base, hostsim.LongFlowWorkload(hostsim.PatternOutcast, 4), "03c04c34222080d5bc1e8844db83c96397c4e5e6c1a008ed80b58c8cfcbd3c3b"},
		{"all-to-all3", base, hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 3), "a88a0c1b1abb4460d06d66fd3df55f39a0bfcc039710ed734ddc305abd5a1d2d"},
		{"remote-single", base, remote(hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)), "f1374e78b0a3a27a14c236a169b8819c60594b3e61801ed0b4593e89c3d54b96"},
		{"remote-rpc4", base, remote(hostsim.RPCIncastWorkload(4, 4096)), "1e57c6b556f3a8304ad8741badec144ae19eefe6378048dfedc8993b2d229212"},
		{"segregated-mixed", base, segregated, "7c52a21ab85b37361eacacff00f90f6c70659524c1b453563650bb6ad3e0a796"},
		{"mixed-no-shorts", base, hostsim.MixedWorkload(0, 4096), "683a412f7397c035ba0883caeafb44d6ac865aea60c4217ea16afeb580b8ec19"},
		{"fabric-single2", fabric(2), hostsim.LongFlowWorkload(hostsim.PatternSingle, 0), "475725b4a19045eea4d4c14ddd68807e22bbb1ae84b7f09f1459ad7c4407fd2f"},
		{"fabric-one-to-one4", fabric(4), hostsim.LongFlowWorkload(hostsim.PatternOneToOne, 0), "5897bb85a96544b892916bab21015238d512c403774ec904c9ce2fced0e8c56e"},
		{"fabric-outcast4", fabric(4), hostsim.LongFlowWorkload(hostsim.PatternOutcast, 0), "ec8c60b93cb3baac37b5a06ec754590863e61230a57f72f3c668023b13594a65"},
		{"fabric-all-to-all4", fabric(4), hostsim.LongFlowWorkload(hostsim.PatternAllToAll, 0), "87abd5ddb1c4bd83cbdd50f1bc20280dfbc02277220e966796b5e23842b2d2d6"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			res, err := hostsim.Run(cfg, tc.wl)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case cfg.FabricObs != nil:
				twin, err := hostsim.Run(observedFabric(0), tc.wl)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fingerprint(res), fingerprint(twin); got != want {
					t.Errorf("observers perturbed the run:\n got: %s\nwant: %s", got, want)
				}
				if len(res.Violations) != 0 || len(res.PortReports) != 16 {
					t.Errorf("%d violations, %d port reports", len(res.Violations), len(res.PortReports))
				}
			case cfg.Fabric != nil:
				if res.Fabric == nil || len(res.Hosts) != cfg.Fabric.Hosts {
					t.Errorf("fabric run: %d hosts, switch stats %v", len(res.Hosts), res.Fabric)
				}
			default:
				if res.Fabric != nil {
					t.Error("default pair reports switch stats")
				}
				var retx int64
				for _, f := range res.Flows {
					retx += f.Retransmits
				}
				if lossy := cfg.LossRate > 0; lossy != (retx > 0) {
					t.Errorf("loss rate %v produced %d retransmits", cfg.LossRate, retx)
				}
			}
			if got := pairDigest(t, res); got != tc.pin {
				t.Errorf("pair output moved:\n got: %s\nwant: %s", got, tc.pin)
			}
		})
	}
}
