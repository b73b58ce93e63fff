package core

import (
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/units"
)

func TestSameNUMASteeringStaysOnNode(t *testing.T) {
	s := AllOptimizations()
	s.Steering = "same-numa"
	r := newRig(t, s)
	spec := r.a.spec
	for _, core := range []int{0, 5, 7, 23} {
		irq := r.a.steeringCoreFor(core)
		if irq == core {
			t.Errorf("core %d: IRQ core must differ from the app core", core)
		}
		if spec.NodeOf(irq) != spec.NodeOf(core) {
			t.Errorf("core %d: IRQ core %d left the NUMA node", core, irq)
		}
	}
}

func TestRFSProcessesOnAppCore(t *testing.T) {
	s := AllOptimizations()
	s.Steering = "rfs"
	r := newRig(t, s)
	epA, epB := OpenConn(r.a, 0, r.b, 3)
	if got := r.b.processingCoreFor(epB); got != 3 {
		t.Errorf("RFS processing core = %d, want app core 3", got)
	}
	transfer(t, r, epA, epB, units.MB, 60*time.Millisecond)
	// The app core carries TCP processing; some other (RSS) core carries
	// the NAPI/driver work.
	appBusy := r.b.Sys.Core(3).BusyTime()
	if appBusy == 0 {
		t.Fatal("app core idle under RFS")
	}
	var otherBusy time.Duration
	for i := 0; i < r.b.Sys.NumCores(); i++ {
		if i != 3 {
			otherBusy += r.b.Sys.Core(i).BusyTime()
		}
	}
	if otherBusy == 0 {
		t.Error("RFS should leave NAPI work on the RSS core")
	}
}

func TestRPSProcessingCoreIsStable(t *testing.T) {
	s := AllOptimizations()
	s.Steering = "rps"
	r := newRig(t, s)
	_, epB := OpenConn(r.a, 0, r.b, 0)
	c1 := r.b.processingCoreFor(epB)
	c2 := r.b.processingCoreFor(epB)
	if c1 != c2 {
		t.Error("RPS target must be deterministic per flow")
	}
	if c1 < 0 || c1 >= r.b.spec.NumCores() {
		t.Errorf("RPS target %d out of range", c1)
	}
}

func TestZeroCopyTxSkipsCopyAndPages(t *testing.T) {
	s := AllOptimizations()
	s.ZeroCopyTx = true
	r := newRig(t, s)
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 60*time.Millisecond)
	sBd := r.a.Sys.TotalBreakdown()
	if sBd[cpumodel.DataCopy] != 0 {
		t.Errorf("tx zero-copy charged %d copy cycles", sBd[cpumodel.DataCopy])
	}
	if sBd[cpumodel.Memory] == 0 {
		t.Error("pin/completion costs should land in Memory")
	}
	if r.b.Copied() != units.MB {
		t.Errorf("receiver got %v, want 1MB", r.b.Copied())
	}
}

func TestZeroCopyRxSkipsCopy(t *testing.T) {
	s := AllOptimizations()
	s.ZeroCopyRx = true
	r := newRig(t, s)
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	got := transfer(t, r, epA, epB, units.MB, 60*time.Millisecond)
	if got != units.MB {
		t.Fatalf("delivered %v", got)
	}
	rBd := r.b.Sys.TotalBreakdown()
	if rBd[cpumodel.DataCopy] != 0 {
		t.Errorf("rx zero-copy charged %d copy cycles", rBd[cpumodel.DataCopy])
	}
	// Pages must still be conserved (freed after remap).
	if r.b.Alloc.InUse() > 40000 { // ring stashes only
		t.Errorf("pages leaked: %d in use", r.b.Alloc.InUse())
	}
}

func TestTuningKnobsReachSubsystems(t *testing.T) {
	r := newTunedRig(t, AllOptimizations(), Tuning{SchedGranularity: 33 * time.Microsecond, PagesetCap: 7, TSQBytes: 96 << 10})
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	// TSQ cap: the conn never holds more than the budget + one segment.
	transfer(t, r, epA, epB, units.MB, 60*time.Millisecond)
	if q := epA.Conn().InQdisc(); q > 160*units.KB {
		t.Errorf("TSQ override ignored: %v in qdisc", q)
	}
	// Pageset cap: freelists never exceed 7.
	for i := 0; i < r.b.Sys.NumCores(); i++ {
		if r.b.Alloc.PagesetLen(i) > 7 {
			t.Errorf("pageset cap override ignored: %d", r.b.Alloc.PagesetLen(i))
		}
	}
}
