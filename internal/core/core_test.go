package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/fabric"
	"hostsim/internal/mem"
	"hostsim/internal/nic"
	"hostsim/internal/sim"
	"hostsim/internal/tcp"
	"hostsim/internal/topology"
	"hostsim/internal/trace"
	"hostsim/internal/units"
)

// rig builds a connected host pair.
type rig struct {
	eng  *sim.Engine
	a, b *Host
}

func newRig(t *testing.T, s Stack) *rig { return newTunedRig(t, s, Tuning{}) }

func newTunedRig(t *testing.T, s Stack, tn Tuning) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	c := newPair(eng, s, tn)
	return &rig{eng: eng, a: c.hosts[0], b: c.hosts[1]}
}

// newPair builds hosts "a" and "b" of the default machine on a 2-port
// fabric.
func newPair(eng *sim.Engine, s Stack, tn Tuning) *Cluster {
	return NewCluster(eng, []string{"a", "b"}, topology.Default(), cpumodel.Default(), s, tn, fabric.Config{})
}

func (r *rig) run(d time.Duration) { r.eng.Run(sim.Time(d)) }

// Validate and NewCluster reject the same configurations, each with an
// error naming the field the caller set.
func TestOptionsValidate(t *testing.T) {
	if err := Validate(AllOptimizations(), Tuning{}); err != nil {
		t.Fatalf("AllOptimizations invalid: %v", err)
	}
	bad := []struct {
		edit func(*Stack, *Tuning)
		want string
	}{
		{func(s *Stack, _ *Tuning) { s.LRO = true }, "core: LRO and GRO are mutually exclusive"},
		{func(s *Stack, _ *Tuning) { s.RxDescriptors = -1 }, "core: negative RxDescriptors"},
		{func(s *Stack, _ *Tuning) { s.RcvBufBytes = -1 }, "core: negative RcvBufBytes"},
		{func(s *Stack, _ *Tuning) { s.SndBufBytes = -1 }, "core: negative SndBufBytes"},
		{func(s *Stack, _ *Tuning) { s.CC = "vegas" }, `core: unknown congestion control "vegas"`},
		{func(s *Stack, _ *Tuning) { s.Steering = "aRFS" }, `hostsim: unknown steering "aRFS"`},
		{func(_ *Stack, tn *Tuning) { tn.PagesetCap = -2 }, "core: PagesetCap -2 below -1 (none)"},
	}
	for _, c := range bad {
		s, tn := AllOptimizations(), Tuning{}
		c.edit(&s, &tn)
		if err := Validate(s, tn); err == nil || err.Error() != c.want {
			t.Errorf("Validate: got %v, want %q", err, c.want)
		}
		func() {
			defer func() {
				if r, ok := recover().(error); !ok || r.Error() != c.want {
					t.Errorf("NewCluster: recovered %v, want %q", r, c.want)
				}
			}()
			newPair(sim.NewEngine(1), s, tn)
		}()
	}
}

// resolve applies every default and off switch of a Stack and Tuning in
// one place: the MTU, MSS and skb size, the parsed steering slug, and
// the zero-means-default and -1-means-off tuning rules.
func TestOptionsDerived(t *testing.T) {
	spec := topology.Default()
	res := func(s Stack, tn Tuning) stackSettings {
		t.Helper()
		c, err := resolve(s, tn, spec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	all := res(AllOptimizations(), Tuning{})
	if all.nic != nic.DefaultConfig() {
		t.Errorf("all-optimizations NIC config = %+v, want the default %+v", all.nic, nic.DefaultConfig())
	}
	if want := tcp.DefaultConfig(9000 - 66); all.tcp != want {
		t.Errorf("all-optimizations TCP config = %+v, want %+v", all.tcp, want)
	}
	if all.steer != SteerARFS || all.granularity != exec.DefaultGranularity || all.pagesetCap != mem.DefaultPagesetCap {
		t.Errorf("all-optimizations steer/granularity/pageset = %d/%v/%d", all.steer, all.granularity, all.pagesetCap)
	}
	s := AllOptimizations()
	s.JumboFrames = false
	if c := res(s, Tuning{}); c.nic.MTU != 1500 || c.tcp.SegmentBytes != 64*units.KB {
		t.Errorf("1500B MTU/skb = %d/%d, want 1500/64KB", c.nic.MTU, c.tcp.SegmentBytes)
	}
	s.TSO, s.GSO = false, false
	if c := res(s, Tuning{}); c.tcp.SegmentBytes != c.tcp.MSS {
		t.Errorf("SegmentBytes without TSO/GSO = %d, want MSS", c.tcp.SegmentBytes)
	}
	if no := res(NoOptimizations(), Tuning{}); no.tcp.SegmentBytes != no.tcp.MSS || no.steer != SteerWorstCase {
		t.Error("NoOptimizations should send MSS-sized skbs under worst-case steering")
	}
	for slug, want := range map[string]SteeringMode{"arfs": SteerARFS, "worst": SteerWorstCase, "rss": SteerRSSHash,
		"rfs": SteerRFS, "rps": SteerRPS, "same-numa": SteerSameNUMA} {
		s := NoOptimizations()
		s.Steering = slug
		if got := res(s, Tuning{}).steer; got != want {
			t.Errorf("steering %q = %d, want %d", slug, got, want)
		}
	}
	s = AllOptimizations()
	s.DCAAwareDRS = true
	if c := res(s, Tuning{}); c.tcp.RcvBufMax != spec.DCACapacity() {
		t.Errorf("DCA-aware autotuning cap = %d, want %d", c.tcp.RcvBufMax, spec.DCACapacity())
	}
	s.RcvBufBytes, s.SndBufBytes, s.RxDescriptors = 3200<<10, 1<<20, 256
	if c := res(s, Tuning{}); c.tcp.RcvBuf != 3200*units.KB || c.tcp.RcvBufMax != 0 || c.tcp.SndBuf != units.MB || c.nic.RxRing != 256 {
		t.Errorf("pinned buffers: rcv %d (max %d), snd %d, ring %d", c.tcp.RcvBuf, c.tcp.RcvBufMax, c.tcp.SndBuf, c.nic.RxRing)
	}
	set := res(AllOptimizations(), Tuning{TSQBytes: 1 << 17, SchedGranularity: time.Microsecond,
		ModerationDelay: 3 * time.Microsecond, PagesetCap: 7, DCAHazardFactor: 0.5})
	if set.tcp.TSQBytes != 128*units.KB || set.granularity != time.Microsecond || set.nic.ModerationDelay != 3*time.Microsecond ||
		set.pagesetCap != 7 || set.nic.DCAHazardFactor != 0.5 {
		t.Errorf("tuning not applied: %+v", set)
	}
	if off := res(AllOptimizations(), Tuning{PagesetCap: -1, DCAHazardFactor: -1}); off.pagesetCap != 0 || off.nic.DCAHazardFactor != 0 {
		t.Errorf("-1 should turn off the pageset and the hazard: cap %d, factor %v", off.pagesetCap, off.nic.DCAHazardFactor)
	}
}

func TestSteeringCoreARFS(t *testing.T) {
	r := newRig(t, AllOptimizations())
	for _, core := range []int{0, 5, 13, 23} {
		if got := r.a.steeringCoreFor(core); got != core {
			t.Errorf("aRFS steering for core %d = %d, want same", core, got)
		}
	}
}

func TestSteeringCoreWorstCase(t *testing.T) {
	r := newRig(t, NoOptimizations())
	spec := r.a.spec
	for _, core := range []int{0, 5, 7, 23} {
		got := r.a.steeringCoreFor(core)
		if spec.NodeOf(got) == spec.NodeOf(core) {
			t.Errorf("worst-case steering for core %d = %d (same NUMA node)", core, got)
		}
	}
	// Distinct app cores on one node get distinct IRQ cores.
	if r.a.steeringCoreFor(0) == r.a.steeringCoreFor(1) {
		t.Error("worst-case steering should spread IRQ cores")
	}
}

func TestOpenConnRegistersEndpoints(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 2, r.b, 3)
	if epA.AppCore() != 2 || epB.AppCore() != 3 {
		t.Error("app cores not bound")
	}
	if r.a.Endpoints() != 1 || r.b.Endpoints() != 1 {
		t.Error("endpoints not registered")
	}
	if epA.Host() != r.a || epB.Host() != r.b {
		t.Error("host back-references wrong")
	}
}

// Every host comes with its NIC, and a connection joins two hosts of
// one cluster only: no route joins two fabrics.
func TestOpenConnAcrossClustersPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	one, two := newPair(eng, AllOptimizations(), Tuning{}), newPair(eng, AllOptimizations(), Tuning{})
	for _, h := range append(one.Hosts(), two.Hosts()...) {
		if h.NIC == nil {
			t.Fatalf("host %s built without its NIC", h.Name())
		}
	}
	defer func() {
		if r := recover(); r != "core: OpenConn needs two hosts of one cluster" {
			t.Errorf("OpenConn across clusters: recovered %v", r)
		}
	}()
	OpenConn(one.hosts[0], 0, two.hosts[1], 0)
}

// transfer pushes bytes from epA's app to epB's and returns delivered.
func transfer(t *testing.T, r *rig, epA, epB *Endpoint, total units.Bytes, d time.Duration) units.Bytes {
	t.Helper()
	got := startTransfer(r, epA, epB, total)
	r.run(d)
	return *got
}

// startTransfer arms a writer thread on epA's app core and a reader on
// epB's, without running the engine, so several transfers can share one
// run. It returns the reader's running byte count.
func startTransfer(r *rig, epA, epB *Endpoint, total units.Bytes) *units.Bytes {
	var sent units.Bytes
	sendCore := r.a.Sys.Core(epA.AppCore())
	th := sendCore.NewThread("writer", func(ctx *exec.Ctx) {
		if sent >= total {
			ctx.Block()
			return
		}
		w := epA.Write(ctx, total-sent)
		sent += w
		if w == 0 {
			ctx.Block()
		}
	})
	epA.SetNotify(Notify{Writable: func(ctx *exec.Ctx, _ *Endpoint) { ctx.Wake(th) }})
	var got units.Bytes
	recvCore := r.b.Sys.Core(epB.AppCore())
	rth := recvCore.NewThread("reader", func(ctx *exec.Ctx) {
		n := epB.Read(ctx, 128*units.KB)
		got += n
		if n == 0 {
			ctx.Block()
		}
	})
	epB.SetNotify(Notify{Readable: func(ctx *exec.Ctx, _ *Endpoint) { ctx.Wake(rth) }})
	th.Wake()
	return &got
}

// TestRcvSchedulerDeterministic runs the receiver-driven scheduler with
// more flows than K on two receiving app cores, so every rotation tick
// re-clamps windows on both cores. The tick visits the cores in order, so
// two same-seed runs must match exactly, down to the order of the traced
// events.
func TestRcvSchedulerDeterministic(t *testing.T) {
	run := func() string {
		s := AllOptimizations()
		s.RcvSchedulerK = 1
		r := newRig(t, s)
		tr := trace.New(1 << 20)
		r.a.SetTracer(tr)
		r.b.SetTracer(tr)
		var got []*units.Bytes
		for core := 0; core < 2; core++ {
			for i := 0; i < 3; i++ {
				epA, epB := OpenConn(r.a, core, r.b, core)
				got = append(got, startTransfer(r, epA, epB, 64*units.MB))
			}
		}
		r.run(12 * time.Millisecond)
		var b strings.Builder
		for i, g := range got {
			fmt.Fprintf(&b, "flow %d delivered %d\n", i, *g)
		}
		for _, h := range []*Host{r.a, r.b} {
			fmt.Fprintf(&b, "%s conn %+v\nnic %+v\ndca %+v\n",
				h.Name(), h.AggregateConnStats(), h.NIC.Stats(), h.DCA.Stats())
			for c := 0; c < h.spec.NumCores(); c++ {
				fmt.Fprintf(&b, "core %d busy %v\n", c, h.Sys.Core(c).BusyTime())
			}
		}
		fmt.Fprintf(&b, "events %d\n", r.eng.Fired())
		for _, e := range tr.Take() {
			fmt.Fprintf(&b, "%+v\n", e)
		}
		return b.String()
	}
	first := strings.Split(run(), "\n")
	second := strings.Split(run(), "\n")
	if len(first) != len(second) {
		t.Fatalf("two same-seed runs diverged: %d vs %d lines", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("two same-seed runs diverged at line %d:\n  %s\n  %s", i, first[i], second[i])
		}
	}
}

func TestEndToEndByteConservation(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	const total = 2 * units.MB
	got := transfer(t, r, epA, epB, total, 50*time.Millisecond)
	if got != total {
		t.Fatalf("delivered %d bytes, want %d", got, total)
	}
	if r.b.Copied() != total {
		t.Errorf("host Copied = %d, want %d", r.b.Copied(), total)
	}
	if r.a.Written() != total {
		t.Errorf("host Written = %d, want %d", r.a.Written(), total)
	}
}

func TestDataPathChargesExpectedCategories(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	sBd := r.a.Sys.TotalBreakdown()
	rBd := r.b.Sys.TotalBreakdown()
	for _, check := range []struct {
		name string
		got  units.Cycles
	}{
		{"sender DataCopy", sBd[cpumodel.DataCopy]},
		{"sender TCPIP", sBd[cpumodel.TCPIP]},
		{"sender Netdev", sBd[cpumodel.Netdev]},
		{"sender Memory", sBd[cpumodel.Memory]},
		{"receiver DataCopy", rBd[cpumodel.DataCopy]},
		{"receiver TCPIP", rBd[cpumodel.TCPIP]},
		{"receiver Netdev", rBd[cpumodel.Netdev]},
		{"receiver SKBMgmt", rBd[cpumodel.SKBMgmt]},
		{"receiver Memory", rBd[cpumodel.Memory]},
		{"receiver Lock", rBd[cpumodel.Lock]},
		{"receiver Etc", rBd[cpumodel.Etc]},
	} {
		if check.got <= 0 {
			t.Errorf("%s = %d, want > 0", check.name, check.got)
		}
	}
}

func TestIOMMUChargesMemory(t *testing.T) {
	with := AllOptimizations()
	with.IOMMU = true
	r1 := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r1.a, 0, r1.b, 0)
	transfer(t, r1, epA, epB, units.MB, 50*time.Millisecond)
	base := r1.b.Sys.TotalBreakdown()[cpumodel.Memory]

	r2 := newRig(t, with)
	epA2, epB2 := OpenConn(r2.a, 0, r2.b, 0)
	transfer(t, r2, epA2, epB2, units.MB, 50*time.Millisecond)
	iommu := r2.b.Sys.TotalBreakdown()[cpumodel.Memory]
	if iommu < base*3/2 {
		t.Errorf("IOMMU memory cycles (%d) should far exceed baseline (%d)", iommu, base)
	}
}

func TestWorstCaseSteeringUsesTwoCores(t *testing.T) {
	r := newRig(t, NoOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 80*time.Millisecond)
	// Receiver: app on core 0, IRQ/softirq on a remote-node core.
	app := r.b.Sys.Core(0).BusyTime()
	irqCore := r.b.steeringCoreFor(0)
	irq := r.b.Sys.Core(irqCore).BusyTime()
	if app == 0 || irq == 0 {
		t.Fatalf("expected both app core (%v) and IRQ core (%v) busy", app, irq)
	}
	// Lock contention must show up.
	if r.b.Sys.TotalBreakdown()[cpumodel.Lock] < 1000 {
		t.Error("worst-case steering should cause contended-lock charges")
	}
}

func TestRemoteNUMACopyCostsMore(t *testing.T) {
	// App on NIC-remote node: every copied byte pays the remote/DRAM rate.
	r := newRig(t, AllOptimizations())
	remoteCore := r.b.spec.CoresOnNode(2)[0]
	epA, epB := OpenConn(r.a, 0, r.b, remoteCore)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	if miss := r.b.CopyMissRate(); miss < 0.95 {
		t.Errorf("remote-NUMA copy miss rate = %.2f, want ~1", miss)
	}
}

func TestLatencyAndSKBMetricsPopulated(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	if r.b.Latency().Count() == 0 {
		t.Error("latency histogram empty")
	}
	if r.b.SKBSizes().Count() == 0 {
		t.Error("skb size histogram empty")
	}
	if r.b.Latency().Mean() <= 0 {
		t.Error("latency mean should be positive")
	}
}

func TestResetMetrics(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	r.b.ResetMetrics()
	if r.b.Copied() != 0 || r.b.Latency().Count() != 0 || r.b.SKBSizes().Count() != 0 {
		t.Error("ResetMetrics should clear host counters")
	}
	if r.b.Sys.TotalBusy() != 0 {
		t.Error("ResetMetrics should clear CPU accounting")
	}
}

func TestAggregateConnStats(t *testing.T) {
	r := newRig(t, AllOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	aSt := r.a.AggregateConnStats()
	bSt := r.b.AggregateConnStats()
	if aSt.SentBytes != units.MB {
		t.Errorf("sender SentBytes = %d", aSt.SentBytes)
	}
	if bSt.DeliveredBytes != units.MB {
		t.Errorf("receiver DeliveredBytes = %d", bSt.DeliveredBytes)
	}
	if bSt.AcksSent == 0 || aSt.AcksReceived == 0 {
		t.Error("ack counters empty")
	}
}

func TestNoOptSmallSKBs(t *testing.T) {
	r := newRig(t, NoOptimizations())
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, 256*units.KB, 100*time.Millisecond)
	if avg := r.b.SKBSizes().Mean(); avg > 1500 {
		t.Errorf("no-opt mean skb = %.0fB, want MTU-sized (<=1500)", avg)
	}
	r2 := newRig(t, AllOptimizations())
	epA2, epB2 := OpenConn(r2.a, 0, r2.b, 0)
	transfer(t, r2, epA2, epB2, 256*units.KB, 100*time.Millisecond)
	if avg := r2.b.SKBSizes().Mean(); avg < 9000 {
		t.Errorf("all-opt mean skb = %.0fB, want GRO aggregates", avg)
	}
}

func TestLROBypassesGROCPU(t *testing.T) {
	lro := AllOptimizations()
	lro.GRO, lro.LRO = false, true
	r := newRig(t, lro)
	epA, epB := OpenConn(r.a, 0, r.b, 0)
	transfer(t, r, epA, epB, units.MB, 50*time.Millisecond)
	if r.b.NIC.Stats().LROCoalesce == 0 {
		t.Error("LRO should coalesce in hardware")
	}
	if avg := r.b.SKBSizes().Mean(); avg < 9000 {
		t.Errorf("LRO mean skb = %.0fB, want aggregates", avg)
	}
}

// A socket is one allocation: OpenConn makes each endpoint's Endpoint,
// with its tcp.Conn inside, its congestion controller and its bound
// Tx-completion body, six objects a pair. AllocsPerRun truncates to whole
// objects, so the amortized growth of the flow table and the endpoint
// lists, well under one object a pair, does not count. A method value or
// closure bound per socket again adds two objects a pair and fails.
func TestOpenConnAllocations(t *testing.T) {
	r := newRig(t, AllOptimizations())
	if allocs := testing.AllocsPerRun(200, func() { OpenConn(r.a, 0, r.b, 0) }); allocs > 6 {
		t.Errorf("OpenConn allocated %v objects per pair, want at most 6", allocs)
	}
}

// BenchmarkNewCluster64 measures the build of a 64-host incast with no
// simulated time: every host with its cores, allocator and NIC, the
// fabric, and one connection from each of 63 senders into host 0.
func BenchmarkNewCluster64(b *testing.B) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("h%d", i)
	}
	spec, costs := topology.Default(), cpumodel.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewCluster(sim.NewEngine(1), names, spec, costs, AllOptimizations(), Tuning{}, fabric.Config{})
		hosts := c.Hosts()
		for j, h := range hosts[1:] {
			OpenConn(h, j%spec.NumCores(), hosts[0], j%spec.NumCores())
		}
	}
}
