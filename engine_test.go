// The steady-state allocation budget of an end-to-end run. Speed is
// measured by the simulator-speed ledger under bench/ (`make bench`).
package hostsim_test

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"hostsim"
)

// TestRunAllocationBudget guards the hot-path allocation purge on six
// runs that reach different datapaths: the default single flow (aRFS),
// the same flow with every optimization off (worst-case IRQ steering,
// 1500 B frames, no GRO), a 64-host incast through the switch fabric
// (per-host build cost, slab warm-up, idle ACK-only Rx queues), a
// 16-host buffered incast with every observer armed, a bulk flow beside
// 4 RPC flows at 0.5 % wire loss (SACK recovery, out-of-order queueing,
// dropped frames), and 16 clients of 4 KB ping-pongs (timer churn, one
// socket pair per client). Every object budget sits about 10 % over the
// run's measured count, so a per-socket cost crept back in trips it, not
// only a per-packet or per-event one, which multiplies the count by
// orders of magnitude. Past budgets and what each caught:
//   - The observed run's observers keep per-run records, so a per-item
//     cost shows as thousands: the 5.2k wrapper closures a flow-tagged
//     softirq once allocated, the ~8k per-message allocations the message
//     tracer once made, or the ~7k closures and names the samplers made
//     when they registered one gauge per column instead of one block per
//     source.
//   - The incast made 16.6k objects per run while each application write
//     got its own page slab and each fresh pooled skb its own allocation,
//     and 12.1k once both were carved from blocks.
//   - Opening a socket made 19 objects while the tcp.Hooks were nine
//     method values and every timer a closure, and each host 24 Core
//     objects. With the connection inside its Endpoint and the cores one
//     array the counts fell: default 613 → 526, no-optimizations 1,230 →
//     1,143, incast 12,120 → 8,499, observed 6,565 → 5,718, lossy 1,085 →
//     831 and RPC 1,955 → 1,107. The budgets went from 1,800, 4,000,
//     31,000, 8,500, 1,350 and none to 580, 1,260, 9,350, 6,300, 915 and
//     1,220.
//
// Objects alone miss a log that regrows by append: a slice that keeps
// growing shows as a handful of allocations however many bytes it
// copies. So every run also has a bytes ceiling, about 10 % over its
// measured bytes per run. Past bytes and what they caught:
//   - The observed run allocated 5.59 MB per run when its change-point,
//     message and probe logs grew by append, and 3.81 MB once they grew
//     in chunks that are never copied.
//   - The incast allocated 5.40 MB before each DCA allocated its arrays
//     on first use, and 4.81 MB after: its 63 senders' NICs never DMA a
//     data page. The unused tails of the slab and skb blocks took it to
//     4.87 MB.
//   - The lossy run made 3,301 objects and 0.354 MB while the SACK merge
//     sorted through sort.Slice, the out-of-order drain leaked its
//     queue's front capacity, and frames the switch dropped were left to
//     the GC.
//   - A mem.Page was 16 bytes until its id and node were packed into one
//     word, and an skb.Frame 104 until CE moved into Flow's padding. At
//     8 and 96 bytes every page array and frame block shrank: default
//     0.201 → 0.142 MB, no-optimizations 0.433 → 0.388, incast 4.87 →
//     3.89, observed 3.12 → 2.93, lossy 0.272 → 0.193 and RPC 0.204 →
//     0.185, at the same object counts. The ceilings went from none,
//     none, 5.3, 4.2, 0.3 and 0.225 to 0.156, 0.427, 4.28, 3.22, 0.212
//     and 0.204.
//
// TestRunBytesFlatInDuration guards bytes that grow with the window.
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	noOpt := benchRunCfg()
	noOpt.Stack = hostsim.NoOptimizations()
	incast := benchRunCfg()
	incast.Warmup, incast.Duration = 5*time.Millisecond, 5*time.Millisecond
	incast.Fabric = &hostsim.FabricOptions{Hosts: 64}
	observed := benchRunCfg()
	observed.Warmup, observed.Duration = 20*time.Millisecond, 30*time.Millisecond
	observed.Fabric = &hostsim.FabricOptions{Hosts: 16, SharedBufferKB: 256}
	observed.Check = &hostsim.CheckOptions{Collect: true}
	observed.Inspect = &hostsim.InspectOptions{Probe: true, SS: true}
	observed.Telemetry = &hostsim.Telemetry{}
	observed.Profile = &hostsim.ProfileOptions{}
	observed.MsgTrace = &hostsim.MsgTraceOptions{}
	observed.FabricObs = &hostsim.FabricObsOptions{}
	observed.TraceEvents, observed.TraceSpans = 4096, true
	lossy := benchRunCfg()
	lossy.Warmup, lossy.Duration = 20*time.Millisecond, 30*time.Millisecond
	lossy.LossRate = 0.005
	rpc := benchRunCfg()
	rpc.Warmup, rpc.Duration = 20*time.Millisecond, 30*time.Millisecond
	single := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	for _, c := range []struct {
		name   string
		cfg    hostsim.Config
		wl     hostsim.Workload
		budget float64 // objects per run
		mb     float64 // MB per run
	}{
		{"default", benchRunCfg(), single, 580, 0.156},
		{"no-optimizations", noOpt, single, 1260, 0.427},
		{"incast64", incast, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), 9350, 4.28},
		{"observed16", observed, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0), 6300, 3.22},
		{"lossy-mixed", lossy, hostsim.MixedWorkload(4, 16384), 915, 0.212},
		{"rpc-incast", rpc, hostsim.RPCIncastWorkload(16, 4096), 1220, 0.204},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs, mb := perRun(3, func() {
				if _, err := hostsim.Run(c.cfg, c.wl); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocations, %.3f MB", allocs, mb)
			if allocs > c.budget {
				t.Errorf("Run allocated %.0f objects, budget %.0f; a hot-path allocation has crept back in", allocs, c.budget)
			}
			if mb > c.mb {
				t.Errorf("Run allocated %.3f MB, budget %.3f MB; a log or table may be regrowing by copying", mb, c.mb)
			}
		})
	}
}

// TestTracedRunHoldsOneRing arms a 4,096-event trace on the default
// single flow and bounds what it adds to the run's bytes at 15 % over one
// ring: Result.Trace is the tracer's ring, handed over whole. While the
// run copied the ring into a second slice of another event type, the
// trace added both, about 0.52 MB.
func TestTracedRunHoldsOneRing(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	const events = 4096
	runMB := func(cfg hostsim.Config) float64 {
		_, mb := perRun(3, func() {
			if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
				t.Fatal(err)
			}
		})
		return mb
	}
	traced := benchRunCfg()
	traced.TraceEvents = events
	extra := runMB(traced) - runMB(benchRunCfg())
	ring := float64(events*unsafe.Sizeof(hostsim.TraceEvent{})) / 1e6
	t.Logf("tracing added %.3f MB; one ring is %.3f MB", extra, ring)
	if extra > 1.15*ring {
		t.Errorf("tracing added %.3f MB, want at most %.3f MB (1.15 rings): the trace is held twice", extra, 1.15*ring)
	}
}

// perRun calls fn once to warm up, then n times on one P, as
// testing.AllocsPerRun does, and returns the objects and the MB it
// allocated per call.
func perRun(n int, fn func()) (objects, mb float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(n)
}

// TestRunBytesFlatInDuration guards what TestRunAllocationBudget cannot
// see: a queue whose memory follows the items that have passed through it
// rather than the items it holds. Such a queue grows by doubling, a handful
// of objects per run, but its bytes grow with the simulated window. Here
// the single flow runs for 40 ms and for 80 ms, with every optimization on
// and with none, and so does a bulk flow beside 4 RPC flows at 0.5 % wire
// loss, whose SACK scoreboard and out-of-order queue fill and drain all
// run long, and a 16-host incast, whose senders fill their send buffers
// with small writes, so their page slabs must stay warm-up cost. The
// longer run may allocate at most 10 % more bytes. The lossy run measured
// 1.29x while loss recovery still allocated per SACK report, per
// out-of-order drain and per dropped frame.
func TestRunBytesFlatInDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	runBytes := func(cfg hostsim.Config, wl hostsim.Workload, dur time.Duration) uint64 {
		cfg.Duration = dur
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := hostsim.Run(cfg, wl); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	noOpt := benchRunCfg()
	noOpt.Stack = hostsim.NoOptimizations()
	lossy := benchRunCfg()
	lossy.LossRate = 0.005
	incast := benchRunCfg()
	incast.Fabric = &hostsim.FabricOptions{Hosts: 16}
	single := hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)
	for _, c := range []struct {
		name string
		cfg  hostsim.Config
		wl   hostsim.Workload
	}{
		{"all-optimizations", benchRunCfg(), single},
		{"no-optimizations", noOpt, single},
		{"lossy-mixed", lossy, hostsim.MixedWorkload(4, 16384)},
		{"incast16", incast, hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			short := runBytes(c.cfg, c.wl, 40*time.Millisecond)
			long := runBytes(c.cfg, c.wl, 80*time.Millisecond)
			ratio := float64(long) / float64(short)
			t.Logf("%.2f MB at 40 ms, %.2f MB at 80 ms (%.2fx)", float64(short)/1e6, float64(long)/1e6, ratio)
			if ratio > 1.1 {
				t.Errorf("doubling the window multiplies a run's bytes by %.2f, want at most 1.1: some queue's memory grows with simulated time", ratio)
			}
		})
	}
}
