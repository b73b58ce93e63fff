package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
	"time"

	"hostsim/internal/check"
	"hostsim/internal/cpumodel"
	"hostsim/internal/sim"
	"hostsim/internal/skb"
	"hostsim/internal/units"
)

// checkedRig is a connected host pair with the invariant checker attached
// (Collect mode, so tests can census violations instead of recovering
// panics).
type checkedRig struct {
	*rig
	ck *check.Checker
}

func newCheckedRig(t testing.TB, s Stack) *checkedRig {
	t.Helper()
	eng := sim.NewEngine(1)
	c := newPair(eng, s, Tuning{})
	ck := check.New(eng, true)
	AttachChecker(ck, c)
	return &checkedRig{rig: &rig{eng: eng, a: c.hosts[0], b: c.hosts[1]}, ck: ck}
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
	r := newCheckedRig(t, AllOptimizations())
	r.run(2 * time.Millisecond)
	r.ck.Audit()
	if vs := r.ck.Violations(); len(vs) != 0 {
		t.Fatalf("idle connected pair violated invariants: %v", vs)
	}
}

// TestEveryRuleFires seeds, for each conservation rule AttachChecker adds,
// one fault that rule alone must catch, and pins the message it reports.
// The guard below fails when check.go adds a rule this table lacks.
func TestEveryRuleFires(t *testing.T) {
	// survive runs fn, which must panic part-way through an update.
	survive := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("the seeded fault did not panic")
			}
		}()
		fn()
	}
	rows := []struct {
		rule string
		// seed plants the fault and returns the first message the rule
		// must report.
		seed func(r *checkedRig) string
	}{
		{"wire-conservation", func(r *checkedRig) string {
			// A send that dies after counting the frame sent, before it
			// is in flight or dropped.
			l := r.b.fab.Port(r.b.port).Out()
			l.AddTap(func(*skb.Frame, bool) { panic("tap") })
			survive(func() { l.Send(&skb.Frame{Len: 1500}) })
			return "link fabric->b: 1 frames sent != 0 delivered + 0 dropped + 0 in flight (leak of 1)"
		}},
		{"fabric-port-conservation", func(r *checkedRig) string {
			// Ingress counts a frame of an unrouted flow, then refuses it.
			survive(func() { r.a.fab.Port(r.a.port).Send(&skb.Frame{Flow: 99, Len: 1500}) })
			return "fabric port 0 (a): 1 frames in != 0 forwarded + 0 buffer-dropped (leak of 1)"
		}},
		{"nic-rx-conservation", func(r *checkedRig) string {
			// A frame reaches the NIC without crossing its inbound link.
			f := r.b.NIC.FramePool().Get()
			f.Len = 1500
			r.b.NIC.ReceiveFromWire(f)
			return "host b: link delivered 0 payload bytes but NIC accounts 1500 accepted + 0 ring-dropped"
		}},
		{"tcp-seqspace", func(r *checkedRig) string {
			// Mid-transfer, the flow table names the sender as its own
			// flow's receiver.
			ep, epB := OpenConn(r.a, 0, r.b, 0)
			startTransfer(r.rig, ep, epB, 64*units.MB)
			r.run(2 * time.Millisecond)
			r.a.flows.ends[ep.txFlow].rx = ep
			return fmt.Sprintf("tcp flow %d: cross-host sequence drift: a sndUna %d, a rcvNxt 0, sndNxt %d "+
				"(want sndUna <= rcvNxt <= sndNxt)", ep.txFlow, ep.conn.SndUna(), ep.conn.SndNxt())
		}},
		{"skb-pool-conservation", func(r *checkedRig) string {
			// An skb taken from the pool and dropped on the floor.
			r.a.NIC.SKBPool().Get(&skb.Frame{Len: 1500})
			return "skb pool: 1 outstanding but only 0 accounted for (gro+recvq+ooo+unsteered+rps across a/b) — 1 skbs leaked"
		}},
		{"frame-pool-conservation", func(r *checkedRig) string {
			r.a.NIC.FramePool().Get().Len = 9000
			return "frame pool: 1 outstanding but only 0 accounted for (txq+rx backlog+wire across a/b) — 1 frames leaked"
		}},
		{"cycle-conservation", func(r *checkedRig) string {
			// Cycles slipped into the core accounting without a work item
			// never reach the charge log.
			r.b.Sys.Core(0).SkewAccounting(cpumodel.DataCopy, units.Cycles(1234))
			return "host b: category data_copy accounts 1234 cycles but the charge log saw 0 (drift +1234)"
		}},
		{"dca-occupancy", func(r *checkedRig) string {
			// Rolled back to a stale copy of itself, the DCA keeps its tag
			// array but not its count, so dropping a page resident since
			// drives the count below zero. The tag array exists from the
			// first Insert on, so page 6 passes through first.
			r.b.DCA.Insert(6)
			r.b.DCA.Drop(6)
			stale := *r.b.DCA
			r.b.DCA.Insert(7)
			*r.b.DCA = stale
			r.b.DCA.Drop(7)
			return fmt.Sprintf("host b: DDIO occupancy -1 pages outside [0, %d]", r.b.DCA.Capacity())
		}},
	}
	named := make(map[string]bool)
	for _, row := range rows {
		named[row.rule] = true
		t.Run(row.rule, func(t *testing.T) {
			r := newCheckedRig(t, AllOptimizations())
			want := row.seed(r)
			if vs := r.ck.Violations(); len(vs) != 0 {
				t.Fatalf("violations before the fault was seeded: %v", vs)
			}
			r.ck.Audit()
			vs := r.ck.Violations()
			if len(vs) == 0 {
				t.Fatal("the seeded fault was not caught")
			}
			for _, v := range vs {
				if v.Rule != row.rule {
					t.Errorf("rule %s fired too: %s", v.Rule, v.Detail)
				}
			}
			if vs[0].Detail != want {
				t.Errorf("reported\n%q\nwant\n%q", vs[0].Detail, want)
			}
		})
	}

	// The guard: every rule check.go adds has a row, and every row names
	// a rule check.go adds.
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "check.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	added := make(map[string]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "AddRule" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			t.Fatalf("%s: AddRule with no literal name", fset.Position(call.Pos()))
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		added[name] = true
		if !named[name] {
			t.Errorf("%s: rule %s has no TestEveryRuleFires row; add one", fset.Position(call.Pos()), name)
		}
		return true
	})
	for name := range named {
		if !added[name] {
			t.Errorf("TestEveryRuleFires has a row for %s, which check.go no longer adds; drop it", name)
		}
	}
}

func TestCheckerFailFastPanicsWithFailure(t *testing.T) {
	eng := sim.NewEngine(1)
	c := newPair(eng, AllOptimizations(), Tuning{})
	ck := check.New(eng, false) // fail-fast
	AttachChecker(ck, c)
	c.hosts[0].NIC.SKBPool().Get(&skb.Frame{Len: 100})
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
	r := newCheckedRig(t, AllOptimizations())
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
	r := newCheckedRig(t, AllOptimizations())
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
