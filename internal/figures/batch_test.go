package figures

import (
	"math"
	"slices"
	"strings"
	"testing"

	"hostsim"
)

// dispatched returns the specs in the order planBatch hands them to the
// workers, one per distinct run.
func dispatched(specs []runSpec) []runSpec {
	jobs, _, order := planBatch(specs)
	out := make([]runSpec, len(order))
	for k, j := range order {
		out[k] = jobs[j].spec
	}
	return out
}

// TestPlanBatchOrder pins the dispatch rule on the two batches it was made
// for: Fig. 3a's seven columns are six distinct runs, the three 1500 B
// runs first (in submission order), then the three jumbo runs; the fabric
// ladder dispatches its 64-host run first and its 2-host run last.
func TestPlanBatchOrder(t *testing.T) {
	rc := Default()
	steps := append(ladder(), ablations()...)
	order := dispatched(singleFlowSpecs(steps)(rc))
	if len(order) != 6 {
		t.Fatalf("fig3a dispatches %d runs, want 6 (All Opt. is +aRFS (all))", len(order))
	}
	want := []hostsim.Stack{steps[0].Stack, steps[1].Stack, steps[6].Stack, // 1500 B
		steps[2].Stack, steps[3].Stack, steps[5].Stack} // jumbo
	for k, s := range order {
		if s.cfg.Stack != want[k] {
			t.Errorf("fig3a dispatch %d: stack %+v, want %+v", k, s.cfg.Stack, want[k])
		}
	}

	var hosts []int
	for _, s := range dispatched(scaleSpecs(hostsim.PatternIncast)(rc)) {
		hosts = append(hosts, s.cfg.Fabric.Hosts)
	}
	if got, want := hosts, []int{64, 16, 8, 4, 2}; !slices.Equal(got, want) {
		t.Errorf("fab1 dispatches hosts %v, want %v", got, want)
	}
}

// TestRunBatchDuplicateRunsOnce: a spec submitted twice is one job, and
// both of its slots get the one result.
func TestRunBatchDuplicateRunsOnce(t *testing.T) {
	rc := quick()
	rc.Jobs = 2
	specs := singleFlowSpecs([]stackStep{ladder()[3], ladder()[0], ladder()[3]})(rc)
	if jobs, _, _ := planBatch(specs); len(jobs) != 2 {
		t.Fatalf("%d jobs for 2 distinct specs", len(jobs))
	}
	ClearCache()
	defer ClearCache()
	res, err := values(runBatch(rc, specs))
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != res[2] || res[0] == res[1] {
		t.Error("the duplicated spec did not share one result")
	}
	if CacheSize() != 2 {
		t.Errorf("memo holds %d runs, want 2", CacheSize())
	}
}

// TestRunBatchSpecOrder: dispatch runs the 16-host spec first, yet the
// results and the error come back as a serial loop in spec order would
// give them, at one worker and at two, from runBatch and from RunAll.
func TestRunBatchSpecOrder(t *testing.T) {
	rc := quick()
	pair := runSpec{rc.config(hostsim.AllOptimizations()), hostsim.LongFlowWorkload(hostsim.PatternSingle, 1)}
	withHosts := func(h int) runSpec {
		s := runSpec{rc.config(hostsim.AllOptimizations()), hostsim.LongFlowWorkload(hostsim.PatternIncast, 0)}
		s.cfg.Fabric = &hostsim.FabricOptions{Hosts: h}
		return s
	}
	nanLoss := pair
	nanLoss.cfg.LossRate = math.NaN() // no memo key: JSON has no NaN
	specsOf := func(s runSpec) func(RunConfig) []runSpec {
		return func(RunConfig) []runSpec { return []runSpec{s} }
	}
	table2, _ := ByID("table2")

	_, tooFew := hostsim.Run(withHosts(1).cfg, withHosts(1).wl)
	if tooFew == nil {
		t.Fatal("a 1-host fabric ran")
	}
	for _, jobs := range []int{1, 2} {
		rc.Jobs = jobs
		ClearCache()
		res, err := values(runBatch(rc, []runSpec{pair, withHosts(16)}))
		if err != nil {
			t.Fatal(err)
		}
		if len(res[0].Hosts) != 2 || len(res[1].Hosts) != 16 {
			t.Errorf("jobs %d: results hold %d and %d hosts, want 2 and 16", jobs, len(res[0].Hosts), len(res[1].Hosts))
		}

		// Both later specs fail; the 300-host one is dispatched first.
		_, err = values(runBatch(rc, []runSpec{pair, withHosts(1), withHosts(300)}))
		if err == nil || err.Error() != tooFew.Error() {
			t.Errorf("jobs %d: error %v, want the first in spec order: %v", jobs, err, tooFew)
		}
		_, err = values(runBatch(rc, []runSpec{pair, nanLoss, withHosts(300)}))
		if err == nil || !strings.Contains(err.Error(), "run memo key") {
			t.Errorf("jobs %d: error %v, want the memo-key error of spec 1", jobs, err)
		}

		// RunAll's one batch names the first failing experiment in exps
		// order, though the later one's run is dispatched first.
		_, err = RunAll(rc, []Experiment{table2,
			{ID: "few", Runs: specsOf(withHosts(1)), Render: table2.Render},
			{ID: "many", Runs: specsOf(withHosts(300)), Render: table2.Render}})
		if err == nil || err.Error() != "few: "+tooFew.Error() {
			t.Errorf("jobs %d: RunAll error %v, want the first failing experiment's", jobs, err)
		}
	}
	ClearCache()
}

// BenchmarkFig3a regenerates Fig. 3a at the default windows through two
// workers from a cold memo, as the fig3a ledger workload does.
func BenchmarkFig3a(b *testing.B) {
	e, _ := ByID("fig3a")
	rc := Default()
	rc.Jobs = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ClearCache()
		if _, err := e.Run(rc); err != nil {
			b.Fatal(err)
		}
	}
	ClearCache()
}
