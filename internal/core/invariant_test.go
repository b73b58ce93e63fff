package core

import (
	"strings"
	"testing"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/cpumodel"
	"hostsim/internal/fabric"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// checkedRig is a connected host pair with the invariant checker attached
// (Collect mode, so tests can census violations instead of recovering
// panics).
type checkedRig struct {
	*rig
	ck *check.Checker
}

func newCheckedRig(t testing.TB, opts Options) *checkedRig {
	t.Helper()
	eng := sim.NewEngine(1)
	costs := cpumodel.Default()
	spec := topology.Default()
	a := NewHost("a", eng, spec, costs, opts)
	b := NewHost("b", eng, spec, costs, opts)
	c := ConnectFabric([]*Host{a, b}, fabric.Config{})
	ck := check.New(eng, check.Options{Collect: true})
	AttachChecker(ck, c)
	return &checkedRig{rig: &rig{eng: eng, a: a, b: b}, ck: ck}
}

// violationsFor filters the collected violations down to one rule.
func (r *checkedRig) violationsFor(rule string) []check.Violation {
	var out []check.Violation
	for _, v := range r.ck.Violations() {
		if v.Rule == rule {
			out = append(out, v)
		}
	}
	return out
}

func TestCheckerCleanOnIdlePair(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	r.run(2 * time.Millisecond)
	r.ck.Audit()
	if vs := r.ck.Violations(); len(vs) != 0 {
		t.Fatalf("idle connected pair violated invariants: %v", vs)
	}
}

func TestCheckerCatchesSKBLeak(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	// Take an skb from the shared pool and drop it on the floor: no queue,
	// no leak-by-design counter ever accounts for it.
	leaked := r.a.NIC.SKBPool().Get(&skb.Frame{Len: 1500})
	_ = leaked
	r.ck.Audit()
	vs := r.violationsFor("skb-pool-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected skb leak not caught; violations: %v", r.ck.Violations())
	}
	if !strings.Contains(vs[0].Detail, "1 skbs leaked") {
		t.Errorf("diagnostic does not name the leak: %q", vs[0].Detail)
	}
}

func TestCheckerCatchesFrameLeak(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	f := r.a.NIC.FramePool().Get()
	f.Len = 9000
	r.ck.Audit()
	vs := r.violationsFor("frame-pool-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected frame leak not caught; violations: %v", r.ck.Violations())
	}
	if !strings.Contains(vs[0].Detail, "1 frames leaked") {
		t.Errorf("diagnostic does not name the leak: %q", vs[0].Detail)
	}
}

func TestCheckerCatchesCycleDoubleCharge(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	// Slip cycles into the core accounting without a work item: the charge
	// log never sees them, so the ledger cannot reconcile.
	r.b.Sys.Core(0).SkewAccounting(cpumodel.DataCopy, units.Cycles(1234))
	r.ck.Audit()
	vs := r.violationsFor("cycle-conservation")
	if len(vs) == 0 {
		t.Fatalf("injected double-charge not caught; violations: %v", r.ck.Violations())
	}
	d := vs[0].Detail
	if !strings.Contains(d, "host b") || !strings.Contains(d, "data_copy") ||
		!strings.Contains(d, "drift +1234") {
		t.Errorf("diagnostic not pointed enough: %q", d)
	}
}

func TestCheckerFailFastPanicsWithFailure(t *testing.T) {
	eng := sim.NewEngine(1)
	costs := cpumodel.Default()
	spec := topology.Default()
	a := NewHost("a", eng, spec, costs, AllOpts())
	b := NewHost("b", eng, spec, costs, AllOpts())
	c := ConnectFabric([]*Host{a, b}, fabric.Config{})
	ck := check.New(eng, check.Options{}) // fail-fast
	AttachChecker(ck, c)
	a.NIC.SKBPool().Get(&skb.Frame{Len: 100})
	defer func() {
		f, ok := recover().(*check.Failure)
		if !ok {
			t.Fatal("Audit did not panic with *check.Failure")
		}
		if f.V.Rule != "skb-pool-conservation" {
			t.Errorf("failed rule %q, want skb-pool-conservation", f.V.Rule)
		}
	}()
	ck.Audit()
	t.Fatal("Audit returned despite the leak")
}

func TestLedgerResetMatchesAccountingReset(t *testing.T) {
	r := newCheckedRig(t, AllOpts())
	r.run(time.Millisecond)
	r.a.ResetMetrics()
	r.b.ResetMetrics()
	r.ck.Audit() // ledger and Breakdown both zeroed: still reconciled
	if vs := r.violationsFor("cycle-conservation"); len(vs) != 0 {
		t.Fatalf("cycle ledger drifted across ResetMetrics: %v", vs)
	}
}

// checkedTransfer is a checked pair with a bulk transfer in flight, so
// every rule, the per-connection ones included, has live state to read.
func checkedTransfer(t testing.TB) *checkedRig {
	r := newCheckedRig(t, AllOpts())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	startTransfer(r.rig, epA, epB, 64*units.MB)
	r.run(2 * time.Millisecond)
	return r
}

// A clean audit allocates nothing: each rule's failure reporter is bound
// once at AddRule and the link names once at attach, so periodic audits
// cost no garbage however long the run.
func TestCleanAuditAllocationFree(t *testing.T) {
	r := checkedTransfer(t)
	r.ck.Audit()
	if allocs := testing.AllocsPerRun(100, r.ck.Audit); allocs != 0 {
		t.Errorf("clean Audit allocates %v per audit, want 0", allocs)
	}
	if vs := r.ck.Violations(); len(vs) != 0 {
		t.Fatalf("transfer violated invariants: %v", vs)
	}
}

func BenchmarkAudit(b *testing.B) {
	r := checkedTransfer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ck.Audit()
	}
}
