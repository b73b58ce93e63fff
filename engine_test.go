// The steady-state allocation budget of an end-to-end run. Speed is
// measured by the simulator-speed ledger under bench/ (`make bench`).
package hostsim_test

import (
	"testing"

	"hostsim"
)

// TestRunAllocationBudget guards the hot-path allocation purge: a default
// single-flow run must stay within a fixed allocation budget. With dense
// id tables instead of maps on the per-packet path and one event heap
// whose pending set grows with links and timers rather than with frames in
// flight, the run makes roughly 1.13k allocations (setup + unavoidable
// growth); the bound below leaves ~2.5x headroom so it only trips on a
// real regression (a per-event or per-packet allocation reappearing
// multiplies the count by orders of magnitude, not percentages).
func TestRunAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting run is not short")
	}
	const budget = 2800
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := hostsim.Run(benchRunCfg(), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("default Run allocated %.0f objects, budget %d; a hot-path allocation has crept back in", allocs, budget)
	}
}
