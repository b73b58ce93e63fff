// Package exec models CPU cores and the scheduling of network-stack work
// onto them.
//
// Each core executes work items serially at its clock frequency. Two kinds
// of work exist, mirroring the kernel contexts the paper profiles:
//
//   - softirq work (IRQ handlers, NAPI polling, receive-side TCP/IP) —
//     strictly prioritised over threads, run in FIFO order, charged no
//     context-switch cost;
//   - threads (application/syscall context) — round-robin scheduled, with
//     a context-switch charge when the core changes threads, a wakeup
//     charge paid by the waker, and a sleep/wake protocol that is safe
//     against lost wakeups (a wake racing a quantum that decided to block
//     keeps the thread runnable, like the kernel's try_to_wake_up).
//
// Every cycle executed lands in one of the paper's Table-1 accounting
// categories, which is how the CPU-breakdown figures are produced.
package exec

import (
	"fmt"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/fifo"
	"hostsim/internal/sim"
	"hostsim/internal/topology"
	"hostsim/internal/units"
)

// DefaultGranularity is the scheduler's wakeup/preemption granularity: a
// running thread keeps its core until another runnable thread's virtual
// runtime falls this far behind (CFS's sched_wakeup_granularity idea).
// It balances batching (cheap context switches) against responsiveness;
// CFS's default is of millisecond order once scaled.
const DefaultGranularity = 250 * time.Microsecond

// SleeperCredit is the vruntime credit a thread may accumulate
// while sleeping. Keeping it below the granularity means a woken
// IO-bound thread does NOT preempt the incumbent immediately — it waits
// out the remaining wakeup granularity (CFS's wakeup_granularity check).
// This wait is what throttles ping-pong RPC threads sharing a core with
// a bulk flow (§3.7, Fig. 11 of the paper).
const SleeperCredit = 50 * time.Microsecond

// System owns the cores of one host. Threads are scheduled with a
// simplified CFS: each thread accrues virtual runtime while executing;
// the scheduler runs the thread with the smallest vruntime, with a
// granularity hysteresis in favour of the incumbent, and wakeups grant at
// most one granularity of sleeper credit.
type System struct {
	eng         *sim.Engine
	spec        topology.MachineSpec
	costs       *cpumodel.Costs
	cores       []Core // one array: a host's cores are a single allocation
	granularity units.Cycles
	sleepCredit units.Cycles
	spanObs     SpanObserver
	chargeLog   ChargeLogFunc
	logPool     [][]FlowCharge
	ctxPool     []*Ctx // recycled work-item contexts; dispatch is allocation-free in steady state
}

// getCtx hands out a zeroed work-item context from the free list.
func (s *System) getCtx() *Ctx {
	if n := len(s.ctxPool); n > 0 {
		x := s.ctxPool[n-1]
		s.ctxPool = s.ctxPool[:n-1]
		return x
	}
	return &Ctx{}
}

// putCtx recycles a completed work-item context. Safe because a Ctx is
// only ever passed down synchronous call chains — nothing retains one past
// its item's completion. done stays set while pooled so a leaked handle
// still trips the Charge-after-completion guard.
func (s *System) putCtx(x *Ctx) {
	*x = Ctx{done: true}
	s.ctxPool = append(s.ctxPool, x)
}

// SpanObserver receives one callback per completed work item: the core it
// ran on, whether it was softirq or thread context (thread = the thread's
// name, empty for softirq), its start/end times, the per-category cycle
// accounting, and total cycles charged. Observers must not mutate acct.
// Used by the telemetry layer to export per-core execution spans.
type SpanObserver func(core int, softirq bool, thread string,
	start, end sim.Time, acct *cpumodel.Breakdown, cycles units.Cycles)

// SetSpanObserver installs obs (nil disables span observation). Zero-cost
// work items (pure blocking quanta) are not reported.
func (s *System) SetSpanObserver(obs SpanObserver) { s.spanObs = obs }

// FlowCharge is one line of a work item's charge log: cycles charged to
// one Table-1 category while the context carried one flow tag (0 = work
// not attributable to a single flow: NAPI poll overhead, IRQ entry,
// scheduler work).
type FlowCharge struct {
	Flow   int32
	Cat    cpumodel.Category
	Cycles units.Cycles
}

// ChargeLogFunc receives the merged per-flow, per-category charge log of
// one completed work item. It fires at the same instant the item's cycles
// merge into the core's Breakdown accounting, so a consumer that sums the
// log reconciles exactly with System.TotalBreakdown over any window. The
// log slice is owned by the system and recycled after the call returns —
// consumers must not retain it. Zero-charge items are not reported.
type ChargeLogFunc func(core int, softirq bool, thread string, log []FlowCharge)

// SetChargeLog installs fn (nil disables charge logging). While installed,
// every work item accumulates its Charge/ChargeBytes calls into a per-item
// log keyed by (flow tag, category); the log is flushed to fn when the
// item completes. The log buffers come from a free list, so steady-state
// profiling does not allocate; with fn nil the Charge fast path is a
// single pointer test.
func (s *System) SetChargeLog(fn ChargeLogFunc) { s.chargeLog = fn }

// getLog hands out a charge-log buffer from the free list.
func (s *System) getLog() []FlowCharge {
	if n := len(s.logPool); n > 0 {
		l := s.logPool[n-1]
		s.logPool = s.logPool[:n-1]
		return l[:0]
	}
	return make([]FlowCharge, 0, 16)
}

// putLog recycles a flushed charge-log buffer.
func (s *System) putLog(l []FlowCharge) { s.logPool = append(s.logPool, l) }

// SetGranularity overrides the scheduling granularity (tests, ablations).
func (s *System) SetGranularity(d time.Duration) {
	if d <= 0 {
		panic("exec: non-positive granularity")
	}
	s.granularity = units.CyclesIn(d, s.spec.Frequency)
}

// NewSystem builds the cores for spec.
func NewSystem(eng *sim.Engine, spec topology.MachineSpec, costs *cpumodel.Costs) *System {
	if eng == nil || costs == nil {
		panic("exec: nil engine or cost table")
	}
	s := &System{eng: eng, spec: spec, costs: costs,
		granularity: units.CyclesIn(DefaultGranularity, spec.Frequency),
		sleepCredit: units.CyclesIn(SleeperCredit, spec.Frequency)}
	s.cores = make([]Core, spec.NumCores())
	for i := range s.cores {
		s.cores[i].sys, s.cores[i].id = s, i
	}
	return s
}

// Core returns core i.
func (s *System) Core(i int) *Core { return &s.cores[i] }

// NumCores returns the core count.
func (s *System) NumCores() int { return len(s.cores) }

// SoftirqBacklogTotal sums the queued softirq work items across all cores
// — the host-wide backlog depth for ss-style queue diagnostics.
func (s *System) SoftirqBacklogTotal() int {
	total := 0
	for i := range s.cores {
		total += s.cores[i].SoftirqBacklog()
	}
	return total
}

// Spec returns the machine description.
func (s *System) Spec() topology.MachineSpec { return s.spec }

// ResetAccounting zeroes all cores' cycle accounting and busy time; used
// to discard warm-up before a measurement window.
func (s *System) ResetAccounting() {
	for i := range s.cores {
		c := &s.cores[i]
		c.acct = cpumodel.Breakdown{}
		c.busy = 0
		c.softirqBusy = 0
		c.threadBusy = 0
		c.runqWait = 0
		c.items = 0
	}
}

// CompletedItems returns the number of work items completed across all
// cores since the last reset. Busy time is the truncated per-item sum of
// cycle durations, so it can trail the exact cycle total by up to one
// clock tick per item — callers bounding busy-vs-cycles drift need this.
func (s *System) CompletedItems() int64 {
	var n int64
	for i := range s.cores {
		n += s.cores[i].items
	}
	return n
}

// TotalBusy returns the summed busy time across cores.
func (s *System) TotalBusy() time.Duration {
	var t time.Duration
	for i := range s.cores {
		t += s.cores[i].busy
	}
	return t
}

// TotalBreakdown returns the merged per-category accounting of all cores.
func (s *System) TotalBreakdown() cpumodel.Breakdown {
	var b cpumodel.Breakdown
	for i := range s.cores {
		b.Merge(&s.cores[i].acct)
	}
	return b
}

// threadState tracks the scheduling lifecycle.
type threadState int

const (
	stateBlocked threadState = iota
	stateRunnable
	stateRunning
)

// Thread is an application-context execution entity pinned to one core.
type Thread struct {
	name        string
	core        *Core
	state       threadState
	run         func(*Ctx)
	willBlock   bool
	pendingWake bool
	vruntime    units.Cycles // fair-share accounting (CFS-style)
	queuedAt    sim.Time     // when the thread last entered the runqueue
}

// Blocked reports whether the thread is parked waiting for a wake.
func (t *Thread) Blocked() bool { return t.state == stateBlocked }

// Core is one CPU core.
type Core struct {
	sys *System
	id  int

	running  bool
	current  *Thread         // last thread context that ran (for switch detection)
	softirq  fifo.Ring[sirq] // raised work, run before any thread
	runq     []*Thread       // runnable threads, selected by min vruntime
	minVR    units.Cycles
	acct     cpumodel.Breakdown
	busy     time.Duration
	inflight *Ctx

	// Context-split busy time and cumulative run-queue wait, for the
	// telemetry layer's per-core softirq-vs-thread and scheduler-delay
	// metrics.
	softirqBusy time.Duration
	threadBusy  time.Duration
	runqWait    time.Duration
	items       int64 // work items completed since the last reset
}

// SkewAccounting adds cycles to the core's category tally WITHOUT going
// through a work item or the charge log. It exists solely so tests can
// inject an accounting discrepancy (a "double charge") and prove the
// cycle-conservation checker catches it; production code must never call
// it.
func (c *Core) SkewAccounting(cat cpumodel.Category, n units.Cycles) {
	c.acct.Add(cat, n)
}

// enqueueWoken admits a freshly woken thread with bounded sleeper credit:
// it may claim at most one granularity of vruntime headstart, so sleepers
// preempt promptly without being able to monopolise the core.
func (c *Core) enqueueWoken(t *Thread) {
	t.state = stateRunnable
	floor := c.minVR - c.sys.sleepCredit
	if t.vruntime < floor {
		t.vruntime = floor
	}
	t.queuedAt = c.sys.eng.Now()
	c.runq = append(c.runq, t)
}

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// BusyTime returns accumulated busy time since the last reset.
func (c *Core) BusyTime() time.Duration { return c.busy }

// SoftirqTime returns busy time spent in softirq context since the last
// reset.
func (c *Core) SoftirqTime() time.Duration { return c.softirqBusy }

// ThreadTime returns busy time spent in thread (application/syscall)
// context since the last reset.
func (c *Core) ThreadTime() time.Duration { return c.threadBusy }

// RunqWait returns the cumulative time runnable threads spent queued on
// this core before being granted the CPU, since the last reset.
func (c *Core) RunqWait() time.Duration { return c.runqWait }

// RunqLen returns the number of currently runnable (queued) threads.
func (c *Core) RunqLen() int { return len(c.runq) }

// Accounting returns a copy of the per-category cycle tally.
func (c *Core) Accounting() cpumodel.Breakdown { return c.acct }

// Utilization returns busy/window, clamped to [0,1].
func (c *Core) Utilization(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	u := float64(c.busy) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}

// NewThread creates a thread pinned to this core. run is invoked each time
// the scheduler grants the thread a quantum; it must either charge cycles
// or block (a zero-cost non-blocking quantum would livelock the core and
// panics). Threads start blocked; call Wake (or WakeFromCtx) to start.
func (c *Core) NewThread(name string, run func(*Ctx)) *Thread {
	if run == nil {
		panic("exec: nil thread body")
	}
	return &Thread{name: name, core: c, run: run, state: stateBlocked}
}

// RaiseSoftirq queues softirq work on the core. The work runs before any
// thread gets the CPU. Safe to call from outside any work item (e.g. a
// simulated hardware event); dispatch is triggered immediately.
func (c *Core) RaiseSoftirq(fn func(*Ctx)) { c.RaiseTaggedSoftirq(fn, 0) }

// RaiseTaggedSoftirq is RaiseSoftirq for work done on behalf of one flow:
// the item starts with its flow tag set to flow, so its charges are
// attributed without a wrapper closure.
func (c *Core) RaiseTaggedSoftirq(fn func(*Ctx), flow int32) {
	if fn == nil {
		panic("exec: nil softirq")
	}
	c.softirq.Push(sirq{fn: fn, tag: flow})
	c.dispatch()
}

// sirq is one queued softirq work item and the flow tag it starts with.
type sirq struct {
	fn  func(*Ctx)
	tag int32
}

// SoftirqBacklog returns the number of queued softirq items.
func (c *Core) SoftirqBacklog() int { return c.softirq.Len() }

// Wake makes t runnable from outside any work item (hardware events,
// timer expiry). No wakeup cost is charged — use Ctx.Wake from inside
// stack code, which charges the waker.
func (t *Thread) Wake() { t.wake() }

func (t *Thread) wake() bool {
	switch t.state {
	case stateBlocked:
		t.core.enqueueWoken(t)
		t.core.dispatch()
		return true
	case stateRunning:
		t.pendingWake = true
		return false
	default:
		return false
	}
}

// dispatch starts the next work item if the core is free.
func (c *Core) dispatch() {
	if c.running {
		return
	}
	var (
		fn       func(*Ctx)
		tag      int32
		thread   *Thread
		switchTo bool
	)
	switch {
	case c.softirq.Len() > 0:
		it := c.softirq.Pop()
		fn, tag = it.fn, it.tag
	case len(c.runq) > 0:
		thread = c.pickThread()
		thread.state = stateRunning
		switchTo = thread != c.current
		fn = thread.run
	default:
		return // idle
	}
	c.running = true
	ctx := c.sys.getCtx()
	ctx.core = c
	ctx.start = c.sys.eng.Now()
	ctx.thread = thread
	ctx.flowTag = tag
	ctx.done = false
	if c.sys.chargeLog != nil {
		ctx.charges = c.sys.getLog()
		ctx.logging = true
	}
	c.inflight = ctx
	if thread != nil && switchTo {
		ctx.Charge(cpumodel.Sched, c.sys.costs.ContextSwitch)
		c.current = thread
	}
	fn(ctx)
	ctx.done = true
	c.inflight = nil
	if ctx.cycles <= 0 {
		if thread != nil && !ctx.blocked {
			panic(fmt.Sprintf("exec: thread %q ran a zero-cost non-blocking quantum", thread.name))
		}
		if ctx.cycles < 0 {
			panic("exec: negative charge")
		}
		// Zero-cost blocking quantum: complete instantly.
		c.complete(ctx)
		return
	}
	d := ctx.cycles.Duration(c.sys.spec.Frequency)
	c.sys.eng.AfterArg(d, completeEv, ctx)
}

// completeEv is the work-item completion event; static so scheduling a
// completion never allocates.
func completeEv(a any) {
	x := a.(*Ctx)
	x.core.complete(x)
}

// pickThread removes and returns the next thread to run: the minimum
// vruntime, except the incumbent keeps the CPU while it is within one
// granularity of the minimum (batching hysteresis).
func (c *Core) pickThread() *Thread {
	best := 0
	for i, t := range c.runq {
		if t.vruntime < c.runq[best].vruntime {
			best = i
		}
	}
	if c.current != nil && c.current != c.runq[best] {
		for i, t := range c.runq {
			if t == c.current {
				if t.vruntime < c.runq[best].vruntime+c.sys.granularity {
					best = i
				}
				break
			}
		}
	}
	t := c.runq[best]
	c.runq = append(c.runq[:best], c.runq[best+1:]...)
	if t.vruntime > c.minVR {
		c.minVR = t.vruntime
	}
	if now := c.sys.eng.Now(); now > t.queuedAt {
		c.runqWait += time.Duration(now - t.queuedAt)
	}
	return t
}

// complete finishes a work item: applies accounting, resolves the
// thread's next state, and dispatches further work.
func (c *Core) complete(ctx *Ctx) {
	c.acct.Merge(&ctx.acct)
	c.items++
	d := ctx.cycles.Duration(c.sys.spec.Frequency)
	c.busy += d
	if ctx.thread == nil {
		c.softirqBusy += d
	} else {
		c.threadBusy += d
	}
	if obs := c.sys.spanObs; obs != nil && ctx.cycles > 0 {
		name := ""
		if ctx.thread != nil {
			name = ctx.thread.name
		}
		obs(c.id, ctx.thread == nil, name, ctx.start, ctx.start.Add(d), &ctx.acct, ctx.cycles)
	}
	if ctx.logging {
		if fn := c.sys.chargeLog; fn != nil && len(ctx.charges) > 0 {
			name := ""
			if ctx.thread != nil {
				name = ctx.thread.name
			}
			fn(c.id, ctx.thread == nil, name, ctx.charges)
		}
		c.sys.putLog(ctx.charges)
		ctx.charges = nil
		ctx.logging = false
	}
	if t := ctx.thread; t != nil {
		t.vruntime += ctx.cycles
		if ctx.blocked && !t.pendingWake {
			t.state = stateBlocked
		} else {
			t.state = stateRunnable
			t.queuedAt = c.sys.eng.Now()
			c.runq = append(c.runq, t)
		}
		t.pendingWake = false
		t.willBlock = false
	}
	c.running = false
	c.sys.putCtx(ctx)
	c.dispatch()
}

// Ctx is the execution context of one work item. All cycle charges and
// side effects of the item flow through it.
type Ctx struct {
	core    *Core
	thread  *Thread
	start   sim.Time
	cycles  units.Cycles
	acct    cpumodel.Breakdown
	blocked bool
	done    bool

	// Charge-log state (profiling). flowTag labels subsequent charges
	// with the flow being processed; charges holds the item's merged
	// (flow, category) tallies while a ChargeLogFunc is installed.
	flowTag int32
	logging bool
	charges []FlowCharge
}

// SetFlowTag labels subsequent charges of this work item with a flow id
// (0 = unattributed). Data-path code sets it when it starts processing a
// specific flow's data; a plain field write, free when profiling is off.
func (x *Ctx) SetFlowTag(f int32) { x.flowTag = f }

// FlowTag returns the current flow label.
func (x *Ctx) FlowTag() int32 { return x.flowTag }

// Charge adds cycles in category cat to the running item.
func (x *Ctx) Charge(cat cpumodel.Category, c units.Cycles) {
	if x.done {
		panic("exec: Charge after work item completed")
	}
	if c < 0 {
		panic("exec: negative charge")
	}
	x.cycles += c
	x.acct.Add(cat, c)
	if x.logging {
		x.logCharge(cat, c)
	}
}

// logCharge merges one charge into the item's charge log, newest entries
// first (repeat charges to the same (flow, category) pair are adjacent in
// practice, so the scan terminates almost immediately).
func (x *Ctx) logCharge(cat cpumodel.Category, c units.Cycles) {
	for i := len(x.charges) - 1; i >= 0; i-- {
		e := &x.charges[i]
		if e.Flow == x.flowTag && e.Cat == cat {
			e.Cycles += c
			return
		}
	}
	x.charges = append(x.charges, FlowCharge{Flow: x.flowTag, Cat: cat, Cycles: c})
}

// ChargeBytes charges a per-byte cost over n bytes.
func (x *Ctx) ChargeBytes(cat cpumodel.Category, p units.PerByte, n units.Bytes) {
	x.Charge(cat, p.Of(n))
}

// Now returns the item's logical time: start plus cycles charged so far.
func (x *Ctx) Now() sim.Time {
	return x.start.Add(x.cycles.Duration(x.core.sys.spec.Frequency))
}

// Core returns the core the item runs on.
func (x *Ctx) Core() *Core { return x.core }

// Costs returns the system cost table.
func (x *Ctx) Costs() *cpumodel.Costs { return x.core.sys.costs }

// Defer schedules fn at the item's current logical time — i.e. after the
// work charged so far has "executed". Use it for side effects that leave
// the core (transmits, cross-core wakes).
func (x *Ctx) Defer(fn func()) {
	x.core.sys.eng.At(x.Now(), fn)
}

// DeferArg is Defer for hot paths: fn is typically a static function or a
// stored method value, so deferring allocates nothing.
func (x *Ctx) DeferArg(fn func(any), arg any) {
	x.core.sys.eng.AtArg(x.Now(), fn, arg)
}

// Block marks the current thread as wanting to sleep at quantum end. Only
// valid in thread context.
func (x *Ctx) Block() {
	if x.thread == nil {
		panic("exec: Block outside thread context")
	}
	x.blocked = true
}

// Wake makes t runnable, charging the wakeup cost (plus the idle-exit
// cost if t's core was idle) to this context — the waker pays, as in the
// kernel.
func (x *Ctx) Wake(t *Thread) {
	costs := x.core.sys.costs
	if t.state != stateBlocked {
		// Awake already (running or queued): the waker still walks the
		// waitqueue (sock_def_readable on an awake task), a cheap but
		// real cost, and a running target re-checks its condition.
		x.Charge(cpumodel.Sched, costs.WakeCheck)
		if t.state == stateRunning {
			t.pendingWake = true
		}
		return
	}
	x.Charge(cpumodel.Sched, costs.Wakeup)
	tc := t.core
	if tc != x.core && !tc.running && len(tc.runq) == 0 && tc.SoftirqBacklog() == 0 {
		x.Charge(cpumodel.Sched, costs.IdleWake)
	}
	if tc == x.core {
		// Same core: wake takes effect when observed — mark immediately;
		// dispatch happens at this item's completion.
		tc.enqueueWoken(t)
		return
	}
	// Cross-core: the wake lands at this item's logical time.
	x.DeferArg(wakeEv, t)
}

// wakeEv is the cross-core wake event; static so waking never allocates.
func wakeEv(a any) { a.(*Thread).wake() }
