// End-to-end benchmarks and tests for the event-scheduler rework: the
// hierarchical timing wheel (the default) against the binary-heap
// reference, plus the steady-state allocation budget the hot-path purge
// bought. The Engine* pairs are quick `go test -bench` probes; the
// simulator-speed ledger under bench/ (`make bench`) is where speed
// claims are measured.
package hostsim_test

import (
	"reflect"
	"testing"

	"hostsim"
)

// benchEngine runs one short end-to-end simulation per iteration with the
// given scheduler. The workloads below are chosen for their distinct
// timer profiles: a single bulk flow (dense pacing/ack timers), an RPC
// incast (many short-lived flows churning timers), and a lossy mixed load
// (RTO arming/cancel traffic on top of both).
func benchEngine(b *testing.B, sched string, wl hostsim.Workload, loss float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchRunCfg()
		cfg.Scheduler = sched
		cfg.LossRate = loss
		if _, err := hostsim.Run(cfg, wl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineWheelIPerf(b *testing.B) {
	benchEngine(b, "wheel", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0)
}

func BenchmarkEngineHeapIPerf(b *testing.B) {
	benchEngine(b, "heap", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0)
}

func BenchmarkEngineWheelRPCIncast(b *testing.B) {
	benchEngine(b, "wheel", hostsim.RPCIncastWorkload(8, 16384), 0)
}

func BenchmarkEngineHeapRPCIncast(b *testing.B) {
	benchEngine(b, "heap", hostsim.RPCIncastWorkload(8, 16384), 0)
}

func BenchmarkEngineWheelLossyMixed(b *testing.B) {
	benchEngine(b, "wheel", hostsim.MixedWorkload(4, 16384), 0.005)
}

func BenchmarkEngineHeapLossyMixed(b *testing.B) {
	benchEngine(b, "heap", hostsim.MixedWorkload(4, 16384), 0.005)
}

// TestSchedulerResultEquivalence pins the contract stated on
// Config.Scheduler: the wheel and the heap produce identical results on
// every workload, not merely similar ones. Any divergence in dispatch
// order would cascade through the RNG streams and show up here.
func TestSchedulerResultEquivalence(t *testing.T) {
	workloads := []struct {
		name string
		wl   hostsim.Workload
		loss float64
	}{
		{"iperf", hostsim.LongFlowWorkload(hostsim.PatternSingle, 1), 0},
		{"incast", hostsim.LongFlowWorkload(hostsim.PatternIncast, 4), 0},
		{"rpc", hostsim.RPCIncastWorkload(8, 16384), 0},
		{"lossy mixed", hostsim.MixedWorkload(4, 16384), 0.005},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := benchRunCfg()
			cfg.LossRate = w.loss
			cfg.Scheduler = "wheel"
			wheel, err := hostsim.Run(cfg, w.wl)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduler = "heap"
			heap, err := hostsim.Run(cfg, w.wl)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wheel, heap) {
				t.Errorf("wheel and heap results diverged:\nwheel: %+v\nheap:  %+v", wheel, heap)
			}
		})
	}
}

// TestRunUnknownSchedulerRejected pins Run's validation of the knob.
func TestRunUnknownSchedulerRejected(t *testing.T) {
	cfg := benchRunCfg()
	cfg.Scheduler = "calendar"
	if _, err := hostsim.Run(cfg, hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err == nil {
		t.Fatal("unknown Scheduler should be rejected")
	}
}

// TestRunAllocationBudget guards the hot-path allocation purge: a default
// single-flow run must stay within a fixed allocation budget. With dense
// id tables instead of maps on the per-packet path the run makes roughly
// 1.86k allocations (setup + unavoidable growth); the bound below leaves
// ~2.5x headroom so it only trips on a real regression (a per-event or
// per-packet allocation reappearing multiplies the count by orders of
// magnitude, not percentages).
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	const budget = 4650
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("default Run allocated %.0f objects, budget %d; a hot-path allocation has crept back in", allocs, budget)
	}
}
