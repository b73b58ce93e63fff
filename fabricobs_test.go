package hostsim_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"hostsim"
	"hostsim/internal/fabricobs"
	"hostsim/internal/mtrace"
	"hostsim/internal/telemetry"
)

// fpHash compresses a fabric fingerprint to a pinnable hex digest (the
// raw strings run to kilobytes on 16-host runs).
func fpHash(r *hostsim.Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fabricFingerprint(r))))
}

// Pre-observatory fingerprints of the checker-armed incast runs below,
// captured before the fabricobs hooks existed. They pin two properties
// at once: adding the observer hook points did not move a single
// measurement of an unobserved run, and arming the observatory does not
// either.
const (
	fabObsPin8  = "5b181928400a506e7be914b765596f0be8471654e4fde7edc0293584f89ed99d"
	fabObsPin16 = "eedb1a375d474bdb9a3c26fb4d93637cd5a44513324aea2604b2c3594add279c"
)

// TestFabricObsTransparency is the observatory's anchor property: a
// checker-armed incast must produce byte-identical measurements with the
// observatory off and on, and both must match the pre-PR pin — the
// telemetry layer observes the run without perturbing it.
func TestFabricObsTransparency(t *testing.T) {
	for _, tc := range []struct {
		hosts int
		pin   string
	}{{8, fabObsPin8}, {16, fabObsPin16}} {
		t.Run(fmt.Sprintf("%dhosts", tc.hosts), func(t *testing.T) {
			wl := hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)
			off, err := hostsim.Run(fabCfg(tc.hosts), wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fabCfg(tc.hosts)
			cfg.FabricObs = &hostsim.FabricObsOptions{}
			on, err := hostsim.Run(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fpHash(off), fpHash(on); a != b {
				t.Errorf("arming the observatory changed the physics:\n off: %s\n  on: %s", a, b)
			}
			if h := fpHash(off); h != tc.pin {
				t.Errorf("unobserved %d-host run diverged from the pre-observatory pin:\n got: %s\nwant: %s",
					tc.hosts, h, tc.pin)
			}
			if len(on.PortReports) != tc.hosts {
				t.Errorf("got %d port reports, want %d", len(on.PortReports), tc.hosts)
			}
			if off.PortReports != nil || off.FabricTimeline != nil {
				t.Error("unobserved run carries observatory artifacts")
			}
		})
	}
}

// TestFabricObsLedgerReconciliation runs the full loss zoo — shared-buffer
// admission drops, Bernoulli wire loss and DCTCP ECN marks — with the
// conservation checker armed fail-fast, then reconciles the observatory's
// per-port ledger against it: each port satisfies the checker's
// in == forwarded + admission_drops rule and the egress conservation
// identity, and the ledger sums reproduce the switch totals exactly.
func TestFabricObsLedgerReconciliation(t *testing.T) {
	cfg := fabCfg(8)
	cfg.Fabric.SharedBufferKB = 256
	cfg.FabricObs = &hostsim.FabricObsOptions{}
	cfg.LossRate = 0.001
	cfg.ECNMarkKB = 64
	cfg.Stack.CC = "dctcp"
	res, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err) // checker fail-fast: any conservation break lands here
	}
	var in, adm, loss, del, marks, inflight int64
	for _, p := range res.PortReports {
		if p.InFrames != p.Forwarded+p.AdmissionDrops {
			t.Errorf("port %d: ingress ledger inexact: in %d != forwarded %d + admission drops %d",
				p.Port, p.InFrames, p.Forwarded, p.AdmissionDrops)
		}
		if p.Enqueued != p.Delivered+p.WireLossDrops+p.InFlight {
			t.Errorf("port %d: egress ledger inexact: enqueued %d != delivered %d + wire loss %d + in flight %d",
				p.Port, p.Enqueued, p.Delivered, p.WireLossDrops, p.InFlight)
		}
		in += p.InFrames
		adm += p.AdmissionDrops
		loss += p.WireLossDrops
		del += p.Delivered
		marks += p.ECNMarks
		inflight += p.InFlight
	}
	fab := res.Fabric
	if in != fab.InFrames || adm != fab.BufferDrops || loss != fab.LossDrops ||
		marks != fab.Marked || del != fab.Delivered {
		t.Errorf("ledger sums diverge from switch totals:\nledger: in=%d adm=%d loss=%d del=%d marks=%d\ntotals: in=%d adm=%d loss=%d del=%d marks=%d",
			in, adm, loss, del, marks,
			fab.InFrames, fab.BufferDrops, fab.LossDrops, fab.Delivered, fab.Marked)
	}
	if adm == 0 || loss == 0 || marks == 0 {
		t.Errorf("scenario must exercise every attribution class: adm=%d loss=%d marks=%d", adm, loss, marks)
	}
	if res.FabricTimeline.Len() == 0 {
		t.Error("empty fabric timeline")
	}
}

// fabObsArtifacts renders every observatory export of one result as a
// single byte string, checking each file with the check artifactcheck
// runs on it, and the report against the time series.
func fabObsArtifacts(t *testing.T, r *hostsim.Result) string {
	t.Helper()
	var sb strings.Builder
	report, ts := artifact(t, r, "fabric-report"), artifact(t, r, "fabric-timeline")
	for _, step := range []struct {
		name  string
		data  []byte
		check func([]byte) (string, error)
	}{
		{"report", report, fabricobs.CheckReport},
		{"jsonl", artifactJSONL(t, r, "fabric-report"), fabricobs.CheckReport},
		{"trace", artifact(t, r, "trace"), mtrace.CheckSpans},
		{"ts", ts, telemetry.CheckTimeline},
	} {
		if _, err := step.check(step.data); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		sb.Write(step.data)
	}
	if err := fabricobs.CheckSeries(report, ts); err != nil {
		t.Fatal(err)
	}
	sb.WriteString(r.FormatFabricReport())
	return sb.String()
}

// TestFabricObsArtifactDeterminism extends the batch-determinism property
// to the observatory's exports: every artifact — ledger CSV and JSONL,
// Perfetto trace, time-series, text report — must be byte-identical
// between -jobs 1 and -jobs 8, and across repeated rendering.
func TestFabricObsArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run property")
	}
	mk := func(hosts, bufKB int) hostsim.Job {
		cfg := fabCfg(hosts)
		cfg.Check = nil // determinism property, not a conservation one
		cfg.Fabric.SharedBufferKB = bufKB
		cfg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: 64}
		return hostsim.Job{Config: cfg, Workload: hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)}
	}
	jobs := []hostsim.Job{mk(8, 256), mk(16, 0), mk(4, 64)}
	serial, err := hostsim.RunMany(jobs, hostsim.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := hostsim.RunMany(jobs, hostsim.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		a := fabObsArtifacts(t, serial[i])
		if b := fabObsArtifacts(t, par[i]); a != b {
			t.Errorf("job %d: observatory artifacts diverged between -jobs 1 and -jobs 8", i)
		}
		if b := fabObsArtifacts(t, serial[i]); a != b {
			t.Errorf("job %d: repeated rendering of the same result diverged", i)
		}
	}
}

// TestFabricObsRejects pins the configuration errors.
func TestFabricObsRejects(t *testing.T) {
	wl := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	noFab := hostsim.Config{
		Stack: hostsim.AllOptimizations(), Seed: 1,
		Warmup: time.Millisecond, Duration: time.Millisecond,
		FabricObs: &hostsim.FabricObsOptions{},
	}
	if _, err := hostsim.Run(noFab, wl); err == nil {
		t.Error("FabricObs without Fabric: expected an error")
	}
	neg := fabCfg(4)
	neg.FabricObs = &hostsim.FabricObsOptions{BurstThresholdKB: -1}
	if _, err := hostsim.Run(neg, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)); err == nil {
		t.Error("negative FabricObs option: expected an error")
	}
	// A run without the observatory lists none of its artifacts.
	plain, err := hostsim.Run(fabCfg(4), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0))
	if err != nil {
		t.Fatal(err)
	}
	if arts := plain.Artifacts(); len(arts) != 0 {
		t.Errorf("run without FabricObs lists %d artifacts, first %s", len(arts), arts[0].Name)
	}
}
