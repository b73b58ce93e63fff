package exec

import (
	"testing"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/sim"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

func newSys() (*sim.Engine, *System) {
	eng := sim.NewEngine(1)
	return eng, NewSystem(eng, topology.Default(), cpumodel.Default())
}

func TestWorkItemsSerializeOnACore(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var order []string
	c.RaiseSoftirq(func(x *Ctx) {
		order = append(order, "a")
		x.Charge(cpumodel.Etc, 3400) // 1us at 3.4GHz
	})
	c.RaiseSoftirq(func(x *Ctx) {
		order = append(order, "b")
		x.Charge(cpumodel.Etc, 3400)
	})
	eng.Run(sim.Time(10 * time.Microsecond))
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if c.BusyTime() != 2*time.Microsecond {
		t.Errorf("BusyTime = %v, want 2us", c.BusyTime())
	}
}

func TestSecondItemStartsAfterFirstCompletes(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var secondStart sim.Time
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Etc, 3400) })
	c.RaiseSoftirq(func(x *Ctx) {
		secondStart = eng.Now()
		x.Charge(cpumodel.Etc, 3400)
	})
	eng.Run(sim.Time(time.Millisecond))
	if secondStart != sim.Time(time.Microsecond) {
		t.Errorf("second item started at %v, want 1us", secondStart)
	}
}

func TestSoftirqPreemptsThreads(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var order []string
	th := c.NewThread("app", func(x *Ctx) {
		order = append(order, "thread")
		x.Charge(cpumodel.DataCopy, 3400)
		x.Block()
	})
	// Queue softirq then wake thread at the same instant: softirq first.
	th.Wake()
	c.RaiseSoftirq(func(x *Ctx) {
		order = append(order, "softirq")
		x.Charge(cpumodel.Netdev, 3400)
	})
	eng.Run(sim.Time(time.Millisecond))
	// Thread was woken first, so it is mid-quantum when softirq arrives;
	// but thread.Wake dispatches it immediately. Both must run.
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
}

func TestSoftirqRunsBeforeQueuedThread(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var order []string
	th := c.NewThread("app", func(x *Ctx) {
		order = append(order, "thread")
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	// Occupy the core so both arrivals queue behind a running item.
	c.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.Etc, 3400)
		th2 := th
		_ = th2
	})
	eng.At(100, func() {
		th.Wake() // queues thread (core busy)
		c.RaiseSoftirq(func(x *Ctx) {
			order = append(order, "softirq")
			x.Charge(cpumodel.Netdev, 100)
		})
	})
	eng.Run(sim.Time(time.Millisecond))
	if len(order) != 2 || order[0] != "softirq" {
		t.Fatalf("softirq must run before queued thread: %v", order)
	}
}

func TestContextSwitchChargedOnThreadChange(t *testing.T) {
	eng, s := newSys()
	costs := s.costs
	c := s.Core(0)
	mk := func(name string) *Thread {
		var th *Thread
		th = c.NewThread(name, func(x *Ctx) {
			x.Charge(cpumodel.DataCopy, 1000)
			x.Block()
		})
		return th
	}
	a, b := mk("a"), mk("b")
	a.Wake()
	b.Wake()
	eng.Run(sim.Time(time.Millisecond))
	acct := c.Accounting()
	if acct[cpumodel.Sched] != 2*costs.ContextSwitch {
		t.Errorf("Sched = %d, want 2 context switches (%d)", acct[cpumodel.Sched], 2*costs.ContextSwitch)
	}
}

func TestNoContextSwitchForSameThreadResumed(t *testing.T) {
	eng, s := newSys()
	costs := s.costs
	c := s.Core(0)
	quanta := 0
	th := c.NewThread("app", func(x *Ctx) {
		quanta++
		x.Charge(cpumodel.DataCopy, 1000)
		if quanta >= 3 {
			x.Block()
		}
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if quanta != 3 {
		t.Fatalf("quanta = %d, want 3", quanta)
	}
	acct := c.Accounting()
	if acct[cpumodel.Sched] != costs.ContextSwitch {
		t.Errorf("Sched = %d, want exactly one context switch (%d)", acct[cpumodel.Sched], costs.ContextSwitch)
	}
}

func TestRoundRobinBetweenRunnableThreads(t *testing.T) {
	eng, s := newSys()
	// A sub-quantum timeslice forces rotation after every quantum.
	s.SetGranularity(time.Nanosecond)
	c := s.Core(0)
	var order []string
	mk := func(name string, quanta int) *Thread {
		n := 0
		return c.NewThread(name, func(x *Ctx) {
			order = append(order, name)
			x.Charge(cpumodel.DataCopy, 1000)
			n++
			if n >= quanta {
				x.Block()
			}
		})
	}
	a, b := mk("a", 2), mk("b", 2)
	a.Wake()
	b.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	// With a sub-quantum granularity neither thread may run to completion
	// before the other starts: the schedule must interleave.
	if order[1] == order[0] && order[2] == order[0] {
		t.Fatalf("order = %v: thread %q monopolised the core", order, order[0])
	}
	counts := map[string]int{}
	for _, n := range order {
		counts[n]++
	}
	if counts["a"] != 2 || counts["b"] != 2 {
		t.Fatalf("unfair schedule: %v", order)
	}
}

func TestTimesliceKeepsThreadOnCPU(t *testing.T) {
	eng, s := newSys()
	s.SetGranularity(10 * time.Microsecond)
	c := s.Core(0)
	var order []string
	mk := func(name string, quanta int) *Thread {
		n := 0
		return c.NewThread(name, func(x *Ctx) {
			order = append(order, name)
			x.Charge(cpumodel.DataCopy, 3400) // 1us per quantum
			n++
			if n >= quanta {
				x.Block()
			}
		})
	}
	a, b2 := mk("a", 4), mk("b", 4)
	a.Wake()
	b2.Wake()
	eng.Run(sim.Time(time.Millisecond))
	// 4us < 10us slice: a runs all its quanta before b gets the core.
	want := []string{"a", "a", "a", "a", "b", "b", "b", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (timeslice should batch)", order, want)
		}
	}
}

func TestTimesliceExpiryRotates(t *testing.T) {
	eng, s := newSys()
	s.SetGranularity(2 * time.Microsecond)
	c := s.Core(0)
	var order []string
	mk := func(name string) *Thread {
		n := 0
		return c.NewThread(name, func(x *Ctx) {
			order = append(order, name)
			x.Charge(cpumodel.DataCopy, 3400) // 1us quanta
			n++
			if n >= 4 {
				x.Block()
			}
		})
	}
	a, b2 := mk("a"), mk("b")
	a.Wake()
	b2.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if len(order) != 8 {
		t.Fatalf("order = %v", order)
	}
	// The 2us granularity bounds bursts: with 1us quanta no thread may
	// hold the core longer than 2x the granularity, and the schedule must
	// alternate bursts rather than run one thread to completion.
	burst, maxBurst := 1, 1
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			burst++
			if burst > maxBurst {
				maxBurst = burst
			}
		} else {
			burst = 1
		}
	}
	if maxBurst > 4 {
		t.Errorf("burst of %d quanta exceeds the granularity bound: %v", maxBurst, order)
	}
	if order[0] == order[len(order)-1] && maxBurst == 4 && order[0] != order[4] {
		// fine: alternating 4-bursts
		_ = order
	}
	counts := map[string]int{}
	for _, n := range order {
		counts[n]++
	}
	if counts["a"] != 4 || counts["b"] != 4 {
		t.Fatalf("unfair schedule: %v", order)
	}
}

func TestSetGranularityPanicsOnZero(t *testing.T) {
	_, s := newSys()
	defer func() {
		if recover() == nil {
			t.Error("zero timeslice should panic")
		}
	}()
	s.SetGranularity(0)
}

func TestBlockedThreadStaysBlocked(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	runs := 0
	th := c.NewThread("app", func(x *Ctx) {
		runs++
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if runs != 1 {
		t.Errorf("runs = %d, want 1", runs)
	}
	if !th.Blocked() {
		t.Error("thread should be blocked")
	}
}

func TestWakeDuringRunningQuantumIsNotLost(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	runs := 0
	var th *Thread
	th = c.NewThread("app", func(x *Ctx) {
		runs++
		x.Charge(cpumodel.DataCopy, 34000) // 10us quantum
		x.Block()
	})
	th.Wake()
	// Wake lands mid-quantum (5us): must keep the thread runnable.
	eng.At(sim.Time(5*time.Microsecond), func() { th.Wake() })
	eng.Run(sim.Time(time.Millisecond))
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (wake during quantum must not be lost)", runs)
	}
}

func TestWakeOnRunnableThreadIsNoop(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	runs := 0
	th := c.NewThread("app", func(x *Ctx) {
		runs++
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	// Keep the core busy so the thread sits runnable (not running).
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Etc, 34000) })
	th.Wake()
	th.Wake() // runnable, not yet running: must be a no-op
	eng.Run(sim.Time(time.Millisecond))
	if runs != 1 {
		t.Errorf("runs = %d, want 1", runs)
	}
}

func TestCtxWakeChargesWaker(t *testing.T) {
	eng, s := newSys()
	costs := s.costs
	c0, c1 := s.Core(0), s.Core(1)
	th := c1.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	c0.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.Netdev, 100)
		x.Wake(th)
	})
	eng.Run(sim.Time(time.Millisecond))
	acct := c0.Accounting()
	want := costs.Wakeup + costs.IdleWake // target core was idle
	if acct[cpumodel.Sched] != want {
		t.Errorf("waker Sched = %d, want %d", acct[cpumodel.Sched], want)
	}
	if th.Blocked() != true {
		t.Error("woken thread should have run and re-blocked")
	}
	if c1.Accounting()[cpumodel.DataCopy] != 100 {
		t.Error("woken thread never ran on its core")
	}
}

func TestCrossCoreWakeLandsAtLogicalTime(t *testing.T) {
	eng, s := newSys()
	c0, c1 := s.Core(0), s.Core(1)
	var wokenAt sim.Time
	th := c1.NewThread("app", func(x *Ctx) {
		wokenAt = eng.Now()
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	c0.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.Netdev, 34000) // 10us of work first
		x.Wake(th)
	})
	eng.Run(sim.Time(time.Millisecond))
	if wokenAt < sim.Time(10*time.Microsecond) {
		t.Errorf("thread ran at %v, before the waker's logical wake point (10us)", wokenAt)
	}
}

func TestZeroCostNonBlockingQuantumPanics(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	th := c.NewThread("bad", func(x *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Error("zero-cost non-blocking quantum should panic")
		}
	}()
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
}

func TestAccountingPerCategory(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	c.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.TCPIP, 1000)
		x.Charge(cpumodel.Netdev, 500)
		x.ChargeBytes(cpumodel.DataCopy, 0.5, 1000)
	})
	eng.Run(sim.Time(time.Millisecond))
	acct := c.Accounting()
	if acct[cpumodel.TCPIP] != 1000 || acct[cpumodel.Netdev] != 500 || acct[cpumodel.DataCopy] != 500 {
		t.Errorf("acct = %v", acct)
	}
	if acct.Total() != 2000 {
		t.Errorf("total = %d, want 2000", acct.Total())
	}
}

func TestResetAccounting(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Etc, 3400) })
	eng.Run(sim.Time(time.Millisecond))
	s.ResetAccounting()
	acct := c.Accounting()
	if c.BusyTime() != 0 || acct.Total() != 0 {
		t.Error("reset should clear busy time and accounting")
	}
}

func TestUtilization(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	// 3400 cycles = 1us busy in a 10us window = 0.1 utilization.
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Etc, 3400) })
	eng.Run(sim.Time(10 * time.Microsecond))
	if u := c.Utilization(10 * time.Microsecond); u < 0.099 || u > 0.101 {
		t.Errorf("Utilization = %v, want 0.1", u)
	}
	if c.Utilization(0) != 0 {
		t.Error("zero window should report 0")
	}
}

func TestDeferRunsAtLogicalOffset(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var deferredAt sim.Time
	c.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.Etc, 3400) // 1us
		x.Defer(func() { deferredAt = eng.Now() })
		x.Charge(cpumodel.Etc, 3400) // another 1us after the defer point
	})
	eng.Run(sim.Time(time.Millisecond))
	if deferredAt != sim.Time(time.Microsecond) {
		t.Errorf("deferred side effect at %v, want 1us", deferredAt)
	}
}

func TestChargeAfterCompletionPanics(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	var leaked *Ctx
	c.RaiseSoftirq(func(x *Ctx) {
		leaked = x
		x.Charge(cpumodel.Etc, 100)
	})
	eng.Run(sim.Time(time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Error("charging a completed ctx should panic")
		}
	}()
	leaked.Charge(cpumodel.Etc, 1)
}

func TestBlockOutsideThreadPanics(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	panicked := false
	c.RaiseSoftirq(func(x *Ctx) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		x.Block()
	})
	eng.Run(sim.Time(time.Millisecond))
	if !panicked {
		t.Error("Block in softirq context should panic")
	}
}

func TestTotalBusyAndBreakdown(t *testing.T) {
	eng, s := newSys()
	s.Core(0).RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.TCPIP, 3400) })
	s.Core(5).RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.DataCopy, 6800) })
	eng.Run(sim.Time(time.Millisecond))
	if s.TotalBusy() != 3*time.Microsecond {
		t.Errorf("TotalBusy = %v, want 3us", s.TotalBusy())
	}
	b := s.TotalBreakdown()
	if b[cpumodel.TCPIP] != 3400 || b[cpumodel.DataCopy] != 6800 {
		t.Errorf("breakdown = %v", b)
	}
}

func TestCoreGeometry(t *testing.T) {
	_, s := newSys()
	if s.NumCores() != 24 {
		t.Fatalf("NumCores = %d", s.NumCores())
	}
	if s.Core(7).ID() != 7 || s.spec.NodeOf(7) != 1 {
		t.Error("core 7 should be node 1")
	}
}

func TestIdleWakeNotChargedWhenTargetBusy(t *testing.T) {
	eng, s := newSys()
	costs := s.costs
	c0, c1 := s.Core(0), s.Core(1)
	th := c1.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 100)
		x.Block()
	})
	// Make c1 busy for 10us.
	c1.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Etc, 34000) })
	c0.RaiseSoftirq(func(x *Ctx) {
		x.Charge(cpumodel.Netdev, 100)
		x.Wake(th)
	})
	eng.Run(sim.Time(time.Millisecond))
	if got := c0.Accounting()[cpumodel.Sched]; got != costs.Wakeup {
		t.Errorf("Sched = %d, want bare Wakeup %d (no idle-exit)", got, costs.Wakeup)
	}
}

func TestThreadQuantumChain(t *testing.T) {
	// A thread doing N quanta of work accumulates the right busy time.
	eng, s := newSys()
	c := s.Core(0)
	n := 0
	th := c.NewThread("worker", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 3400)
		n++
		if n == 100 {
			x.Block()
		}
	})
	th.Wake()
	eng.Run(sim.Time(time.Second))
	wantBusy := 100*time.Microsecond + units.Cycles(s.costs.ContextSwitch).Duration(s.Spec().Frequency)
	if c.BusyTime() != wantBusy {
		t.Errorf("BusyTime = %v, want %v", c.BusyTime(), wantBusy)
	}
}

func TestBusyTimeSplitsSoftirqAndThread(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Netdev, 3400) }) // 1us
	th := c.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 6800) // 2us
		x.Block()
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if c.SoftirqTime() != time.Microsecond {
		t.Errorf("SoftirqTime = %v, want 1us", c.SoftirqTime())
	}
	// Thread quanta include the context-switch charge on top of the 2us
	// of work, so check a lower bound and the exact split identity below.
	if c.ThreadTime() < 2*time.Microsecond {
		t.Errorf("ThreadTime = %v, want >= 2us", c.ThreadTime())
	}
	if c.SoftirqTime()+c.ThreadTime() != c.BusyTime() {
		t.Errorf("split %v+%v != BusyTime %v",
			c.SoftirqTime(), c.ThreadTime(), c.BusyTime())
	}
}

func TestResetAccountingClearsSplitAndRunqWait(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Netdev, 3400) })
	th := c.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 3400)
		x.Block()
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	s.ResetAccounting()
	if c.SoftirqTime() != 0 || c.ThreadTime() != 0 || c.RunqWait() != 0 {
		t.Errorf("split/runq-wait not reset: %v %v %v",
			c.SoftirqTime(), c.ThreadTime(), c.RunqWait())
	}
}

func TestRunqWaitAccumulates(t *testing.T) {
	eng, s := newSys()
	c := s.Core(0)
	// Occupy the core with a 5us softirq, then wake a thread at t=0: the
	// thread sits on the runqueue until the softirq finishes.
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Netdev, 17000) }) // 5us
	th := c.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 3400)
		x.Block()
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if c.RunqWait() < 4*time.Microsecond {
		t.Errorf("RunqWait = %v, want >= 4us (thread queued behind softirq)", c.RunqWait())
	}
}

func TestSpanObserverSeesEveryWorkItem(t *testing.T) {
	eng, s := newSys()
	type span struct {
		core    int
		softirq bool
		thread  string
		start   sim.Time
		end     sim.Time
		cycles  units.Cycles
		dom     cpumodel.Category
	}
	var spans []span
	s.SetSpanObserver(func(core int, softirq bool, thread string,
		start, end sim.Time, acct *cpumodel.Breakdown, cycles units.Cycles) {
		dom := cpumodel.Category(0)
		for i := 1; i < len(acct); i++ {
			if acct[i] > acct[dom] {
				dom = cpumodel.Category(i)
			}
		}
		spans = append(spans, span{core, softirq, thread, start, end, cycles, dom})
	})
	c := s.Core(0)
	c.RaiseSoftirq(func(x *Ctx) { x.Charge(cpumodel.Netdev, 3400) })
	th := c.NewThread("app", func(x *Ctx) {
		x.Charge(cpumodel.DataCopy, 6800)
		x.Block()
	})
	th.Wake()
	eng.Run(sim.Time(time.Millisecond))
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	si, app := spans[0], spans[1]
	if !si.softirq || si.thread != "" || si.dom != cpumodel.Netdev || si.cycles != 3400 {
		t.Errorf("softirq span = %+v", si)
	}
	if si.end.Duration()-si.start.Duration() != time.Microsecond {
		t.Errorf("softirq span duration = %v", si.end.Duration()-si.start.Duration())
	}
	// The quantum also carries the context-switch charge, so cycles
	// exceed the 6800 the work item itself charged.
	if app.softirq || app.thread != "app" || app.dom != cpumodel.DataCopy || app.cycles < 6800 {
		t.Errorf("thread span = %+v", app)
	}
}
