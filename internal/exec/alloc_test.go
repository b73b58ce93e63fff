package exec

import (
	"testing"

	"hostsim/internal/cpumodel"
	"hostsim/internal/sim"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// A host's cores are one array: NewSystem makes as many objects for 48
// cores as for 4, where a pointer per core once made one object per core.
func TestNewSystemAllocationsFlatInCores(t *testing.T) {
	eng, costs := sim.NewEngine(1), cpumodel.Default()
	build := func(nodes, perNode int) float64 {
		spec := topology.Default()
		spec.NUMANodes, spec.CoresPerNode = nodes, perNode
		return testing.AllocsPerRun(20, func() { NewSystem(eng, spec, costs) })
	}
	small, large := build(1, 4), build(4, 12)
	if small != large {
		t.Errorf("NewSystem allocates %v objects for 4 cores and %v for 48, want the same", small, large)
	}
}

// With no charge log installed (nil profiler) the per-charge hooks —
// Charge, SetFlowTag — must be free: plain field updates, zero
// allocations. This guards PR 2's pooled-event-loop invariant against
// the profiler layer.
func TestChargeNilLogAllocationFree(t *testing.T) {
	eng, s := newSys()
	var allocs float64
	s.Core(0).RaiseSoftirq(func(ctx *Ctx) {
		allocs = testing.AllocsPerRun(100, func() {
			ctx.SetFlowTag(7)
			ctx.Charge(cpumodel.Netdev, 100)
			ctx.Charge(cpumodel.TCPIP, 50)
			ctx.SetFlowTag(0)
		})
	})
	eng.Run(eng.Now() + 1_000_000)
	if allocs != 0 {
		t.Errorf("nil-charge-log Charge path allocates %v per op, want 0", allocs)
	}
}

// With a charge log installed, steady state must also be allocation-free:
// the log buffer comes from a pool and same-(flow,category) charges merge
// in place, so after one warm-up work item the charge path never grows.
func TestChargeWithLogAllocationFree(t *testing.T) {
	eng, s := newSys()
	var flushed int
	s.SetChargeLog(func(core int, softirq bool, thread string, log []FlowCharge) {
		flushed += len(log)
	})
	charge := func(ctx *Ctx) {
		ctx.SetFlowTag(7)
		ctx.Charge(cpumodel.Netdev, 100)
		ctx.SetFlowTag(9)
		ctx.Charge(cpumodel.TCPIP, 50)
		ctx.SetFlowTag(0)
	}
	// Warm-up: returns a log buffer with capacity to the pool.
	s.Core(0).RaiseSoftirq(charge)
	eng.Run(eng.Now() + 1_000_000)

	var allocs float64
	s.Core(0).RaiseSoftirq(func(ctx *Ctx) {
		allocs = testing.AllocsPerRun(100, func() { charge(ctx) })
	})
	eng.Run(eng.Now() + 1_000_000)
	if allocs != 0 {
		t.Errorf("steady-state charge-log path allocates %v per op, want 0", allocs)
	}
	if flushed == 0 {
		t.Fatal("charge log never flushed")
	}
}

// A flow-tagged softirq starts with its flow tag set. With a charge log
// installed, raising and running one allocates nothing per item (the tag
// rides in the queue entry, not in a wrapper closure), and its charges are
// logged under the tag; an untagged item on the same core logs flow 0.
func TestTaggedSoftirqAllocationFree(t *testing.T) {
	eng, s := newSys()
	cycles := map[int32]units.Cycles{0: 0, 7: 0}
	s.SetChargeLog(func(core int, softirq bool, thread string, log []FlowCharge) {
		for _, e := range log {
			if _, ok := cycles[e.Flow]; !ok {
				t.Errorf("charge logged under flow %d", e.Flow)
			}
			cycles[e.Flow] += e.Cycles
		}
	})
	c := s.Core(0)
	fn := func(ctx *Ctx) { ctx.Charge(cpumodel.Netdev, 100) }
	raise := func() {
		c.RaiseTaggedSoftirq(fn, 7)
		eng.Run(eng.Now() + 1_000_000)
	}
	raise() // warm-up: fills the context and charge-log pools
	if allocs := testing.AllocsPerRun(100, raise); allocs != 0 {
		t.Errorf("tagged softirq with a charge log allocates %v per item, want 0", allocs)
	}
	if want := units.Cycles(102 * 100); cycles[7] != want || cycles[0] != 0 {
		t.Errorf("logged cycles by flow %v, want %d under flow 7 and none under 0", cycles, want)
	}
	c.RaiseSoftirq(fn)
	eng.Run(eng.Now() + 1_000_000)
	if cycles[0] != 100 {
		t.Errorf("untagged softirq logged %d cycles under flow 0, want 100", cycles[0])
	}
}

// The charge log must coalesce repeat charges to the same (flow, category)
// and split by flow tag.
func TestChargeLogContent(t *testing.T) {
	eng, s := newSys()
	var got []FlowCharge
	s.SetChargeLog(func(core int, softirq bool, thread string, log []FlowCharge) {
		got = append(got, log...)
	})
	s.Core(0).RaiseSoftirq(func(ctx *Ctx) {
		ctx.SetFlowTag(7)
		ctx.Charge(cpumodel.Netdev, 100)
		ctx.Charge(cpumodel.TCPIP, 50)
		ctx.Charge(cpumodel.Netdev, 25)
		ctx.SetFlowTag(0)
	})
	eng.Run(eng.Now() + 1_000_000)
	want := []FlowCharge{
		{Flow: 7, Cat: cpumodel.Netdev, Cycles: 125},
		{Flow: 7, Cat: cpumodel.TCPIP, Cycles: 50},
	}
	if len(got) != len(want) {
		t.Fatalf("charge log = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("charge log[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func BenchmarkSoftirqNilChargeLog(b *testing.B) {
	eng, s := newSys()
	c := s.Core(0)
	fn := func(ctx *Ctx) {
		ctx.Charge(cpumodel.Netdev, 100)
		ctx.Charge(cpumodel.TCPIP, 50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RaiseSoftirq(fn)
		eng.Run(eng.Now() + 1_000_000)
	}
}

func BenchmarkSoftirqWithChargeLog(b *testing.B) {
	eng, s := newSys()
	s.SetChargeLog(func(core int, softirq bool, thread string, log []FlowCharge) {})
	c := s.Core(0)
	fn := func(ctx *Ctx) {
		ctx.SetFlowTag(7)
		ctx.Charge(cpumodel.Netdev, 100)
		ctx.Charge(cpumodel.TCPIP, 50)
		ctx.SetFlowTag(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RaiseSoftirq(fn)
		eng.Run(eng.Now() + 1_000_000)
	}
}
