// Package check is the simulator's conservation-law invariant engine.
//
// The paper's credibility rests on its accounting adding up: every CPU
// cycle lands in exactly one Table-1 category and every byte is either
// delivered, dropped, queued, or in flight. This package provides the
// machinery to assert exactly that, continuously, while a simulation
// runs: a Checker owns a set of named audit rules (closures installed by
// internal/core over the live host pair) and evaluates them between
// simulation events — periodically on a timer and on demand at drain
// points. Rules are pure reads: they never charge cycles, draw random
// numbers, or mutate stack state, so a run behaves identically with
// checking on or off.
//
// A violation carries the simulated timestamp, the rule name, and a
// pointed diagnostic. By default the first violation aborts the run
// (panic with a *Failure, converted to an error at the API boundary);
// Collect mode accumulates violations instead, for tests that want to
// census them.
package check

import (
	"fmt"
	"time"

	"hostsim/internal/cpumodel"
	"hostsim/internal/exec"
	"hostsim/internal/sim"
)

// Interval is the periodic audit cadence. 500µs keeps dozens of audits
// inside even a short measurement window while staying far off the
// per-packet hot path.
const Interval = 500 * time.Microsecond

// MaxViolations bounds Collect-mode accumulation: further violations are
// dropped, keeping a broken run from flooding memory.
const MaxViolations = 64

// Violation is one observed invariant breach.
type Violation struct {
	At     time.Duration // simulated time of the audit
	Rule   string        // name of the breached rule
	Detail string        // pointed diagnostic
}

// Error implements error.
func (v Violation) Error() string {
	return fmt.Sprintf("invariant %q violated at t=%v: %s", v.Rule, v.At, v.Detail)
}

// Failure is the panic payload of a fail-fast Checker; the simulation
// driver recovers it and returns the violation as an error.
type Failure struct {
	V Violation
}

// Error implements error.
func (f *Failure) Error() string { return f.V.Error() }

// FailFunc reports one violation from inside a rule.
type FailFunc func(format string, args ...any)

// Checker evaluates invariant rules against a running simulation.
type Checker struct {
	eng        *sim.Engine
	collect    bool
	rules      []rule
	violations []Violation
	started    bool
}

type rule struct {
	fn   func(FailFunc)
	fail FailFunc // reports under the rule's name, bound once at AddRule
}

// New builds a Checker bound to eng. With collect set it accumulates
// violations instead of failing fast on the first.
func New(eng *sim.Engine, collect bool) *Checker {
	if eng == nil {
		panic("check: nil engine")
	}
	return &Checker{eng: eng, collect: collect}
}

// AddRule registers a named audit. fn must be a pure read of simulation
// state, reporting each breach through the supplied FailFunc.
func (c *Checker) AddRule(name string, fn func(FailFunc)) {
	if name == "" || fn == nil {
		panic("check: empty rule")
	}
	fail := func(format string, args ...any) { c.report(name, format, args...) }
	c.rules = append(c.rules, rule{fn: fn, fail: fail})
}

// Start arms the periodic audit timer. Call once, after all rules are
// registered.
func (c *Checker) Start() {
	if c.started {
		panic("check: Start called twice")
	}
	c.started = true
	var tick func()
	tick = func() {
		c.Audit()
		c.eng.After(Interval, tick)
	}
	c.eng.After(Interval, tick)
}

// Audit evaluates every rule now. Call it between simulation events (the
// periodic timer does; drain points after Engine.Run may too).
func (c *Checker) Audit() {
	for _, r := range c.rules {
		r.fn(r.fail)
	}
}

func (c *Checker) report(rule, format string, args ...any) {
	v := Violation{
		At:     time.Duration(c.eng.Now()),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
	}
	if !c.collect {
		panic(&Failure{V: v})
	}
	if len(c.violations) < MaxViolations {
		c.violations = append(c.violations, v)
	}
}

// Violations returns the breaches accumulated in Collect mode.
func (c *Checker) Violations() []Violation { return c.violations }

// CycleLedger tallies charge-log lines into a per-category total. It is
// the checker's independent view of cycle accounting: the exec layer
// flushes each work item's charge log at the same instant the item's
// cycles merge into the core Breakdown, so a ledger fed from the charge
// log must reconcile exactly with System.TotalBreakdown at every event
// boundary — any drift means cycles were double-charged or lost.
type CycleLedger struct {
	total cpumodel.Breakdown
}

// Record folds one work item's charge log into the ledger.
func (l *CycleLedger) Record(log []exec.FlowCharge) {
	for _, e := range log {
		l.total.Add(e.Cat, e.Cycles)
	}
}

// Reset zeroes the ledger (warmup boundary, alongside ResetAccounting).
func (l *CycleLedger) Reset() { l.total = cpumodel.Breakdown{} }

// Total returns the accumulated per-category tally.
func (l *CycleLedger) Total() cpumodel.Breakdown { return l.total }
