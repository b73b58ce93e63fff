package check

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/sim"
	"hostsim/internal/units"
)

func TestNewDefaults(t *testing.T) {
	if c := New(sim.NewEngine(1), false); c.collect {
		t.Error("New(eng, false) collects")
	}
	if c := New(sim.NewEngine(1), true); !c.collect {
		t.Error("New(eng, true) fails fast")
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	mustPanic(t, "nil engine", func() { New(nil, false) })
}

func TestAddRulePanicsOnEmpty(t *testing.T) {
	c := New(sim.NewEngine(1), false)
	mustPanic(t, "empty name", func() { c.AddRule("", func(FailFunc) {}) })
	mustPanic(t, "nil fn", func() { c.AddRule("x", nil) })
}

func TestFailFastPanicsWithFailure(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, false)
	c.AddRule("always-broken", func(fail FailFunc) { fail("leaked %d widgets", 3) })
	defer func() {
		r := recover()
		f, ok := r.(*Failure)
		if !ok {
			t.Fatalf("recovered %T, want *Failure", r)
		}
		if f.V.Rule != "always-broken" || !strings.Contains(f.V.Detail, "leaked 3 widgets") {
			t.Errorf("unexpected violation: %+v", f.V)
		}
	}()
	c.Audit()
	t.Fatal("Audit did not panic")
}

func TestCollectAccumulatesAndCaps(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, true)
	c.AddRule("noisy", func(fail FailFunc) {
		for i := range MaxViolations + 1 { // the last is over the cap: dropped
			fail("v%d", i)
		}
	})
	c.Audit()
	vs := c.Violations()
	if len(vs) != MaxViolations {
		t.Fatalf("got %d violations, want %d (capped)", len(vs), MaxViolations)
	}
	for i, v := range vs {
		if want := fmt.Sprintf("v%d", i); v.Detail != want {
			t.Fatalf("violation %d = %q, want %q: out of order", i, v.Detail, want)
		}
	}
}

func TestViolationCarriesSimulatedTime(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, true)
	c.AddRule("broken", func(fail FailFunc) { fail("boom") })
	eng.After(3*time.Millisecond, func() { c.Audit() })
	eng.Run(sim.Time(10 * time.Millisecond))
	vs := c.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	if vs[0].At != 3*time.Millisecond {
		t.Errorf("At = %v, want 3ms", vs[0].At)
	}
	if want := `invariant "broken" violated at t=3ms: boom`; vs[0].Error() != want {
		t.Errorf("Error() = %q, want %q", vs[0].Error(), want)
	}
}

func TestStartAuditsPeriodically(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, true)
	audits := 0
	c.AddRule("counter", func(FailFunc) { audits++ })
	c.Start()
	eng.Run(sim.Time(10*Interval + time.Microsecond))
	if audits != 10 {
		t.Errorf("got %d periodic audits over 10 intervals, want 10", audits)
	}
	mustPanic(t, "double Start", c.Start)
}

func TestCycleLedger(t *testing.T) {
	var l CycleLedger
	l.Record([]exec.FlowCharge{
		{Cat: cpumodel.DataCopy, Cycles: 100},
		{Cat: cpumodel.TCPIP, Cycles: 40},
		{Cat: cpumodel.DataCopy, Cycles: 11},
	})
	var want cpumodel.Breakdown
	want.Add(cpumodel.DataCopy, units.Cycles(111))
	want.Add(cpumodel.TCPIP, units.Cycles(40))
	if got := l.Total(); got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
	l.Reset()
	if got := l.Total(); got != (cpumodel.Breakdown{}) {
		t.Errorf("Total after Reset = %v, want zero", got)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}
