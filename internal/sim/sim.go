// Package sim implements the discrete-event simulation engine at the heart
// of hostsim.
//
// The engine owns a virtual clock (nanosecond resolution), one pending
// event queue, and a seeded random source. Everything in a simulation —
// packet arrivals, CPU work completions, timers — is an event. The engine
// is strictly single-threaded and deterministic: events dispatch in
// strictly ascending (time, sequence) order, where the sequence number is
// taken from a per-engine counter when the event is scheduled (or
// reserved, see ReserveSeq), so events at the same timestamp fire in
// scheduling order. All randomness flows from the engine's seed.
//
// The queue is a 4-ary min-heap of {at, seq, *event} entries: sift
// comparisons read the keys stored inline in the heap slice and never
// dereference an event. Schedule, cancel and reset are O(log n).
//
// Dispatch happens in place. The firing event's root slot stays in the
// heap as a hole while its callback runs, and the callback's first
// schedule takes that slot and sifts down once, instead of a pop that
// sifts a leaf down and a push that sifts the new entry up. A callback
// that schedules nothing has the root popped after it returns. The hole
// keeps the fired key (Now(), its seq), which is below every key that can
// enter the heap while it is open, so no sift ever moves past it and
// dispatch order stays strictly (time, sequence).
//
// The scheduling fast path is allocation-free in steady state: fired and
// stopped events return to a per-engine free list, Timer.Reset reschedules
// a pending timer in place, and the AtArg/AfterArg variants carry a
// pointer argument into the callback so call sites need no capturing
// closure.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// run.
type Time int64

// Duration converts t to a time.Duration from the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns t advanced by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

func (t Time) String() string { return time.Duration(t).String() }

// An event is a callback scheduled at a time. Its dispatch key (at, seq)
// lives in the heap entry that points at it; the event keeps its own copy
// of seq as the generation guard that stops stale Timer handles from
// touching a pooled event after it has been recycled for a new schedule.
//
// An event carries either fn (niladic) or fnA+arg (one-argument): the
// argument form lets hot paths schedule a prebound function with a pointer
// payload instead of allocating a capturing closure per event.
type event struct {
	seq uint64
	fn  func()
	fnA func(any)
	arg any
	idx int32 // heap index; negative when not pending (fired, stopped, never scheduled)
}

// entry is one heap slot: the dispatch key inline, then the event.
type entry struct {
	at  Time
	seq uint64
	ev  *event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Timer is a handle to a scheduled event that may be cancelled or
// rescheduled before it fires. Timers are small values: store and copy
// them freely. The zero Timer is valid and never pending.
type Timer struct {
	e   *event
	eng *Engine
	seq uint64 // must match e.seq, else e was recycled for another schedule
}

// valid reports whether the handle still refers to its own live event
// (pending in the queue, not fired, not recycled).
func (t *Timer) valid() bool {
	return t != nil && t.e != nil && t.e.seq == t.seq && t.e.idx >= 0
}

// Stop cancels the timer. It reports whether the timer was pending (false
// if it already fired, was stopped, or is the zero Timer). The handle
// drops its event reference either way, so a stopped-then-pooled event can
// never be resurrected through a stale handle.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	if !t.valid() {
		t.e = nil
		return false
	}
	t.eng.remove(int(t.e.idx))
	t.eng.release(t.e)
	t.e = nil
	return true
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool { return t.valid() }

// When returns the time the timer is scheduled to fire, or 0 if it is not
// pending.
func (t *Timer) When() Time {
	if !t.valid() {
		return 0
	}
	return t.eng.q[t.e.idx].at
}

// Reset reschedules a pending timer to fire at absolute time at, keeping
// its callback. The heap entry is re-keyed in place without allocation.
// Like a fresh schedule, the reset timer moves to the back of the FIFO
// tie-break order at its new timestamp. Reset reports whether the timer
// was pending; a fired or stopped timer cannot be revived — schedule a new
// one instead.
func (t *Timer) Reset(at Time) bool {
	if !t.valid() {
		return false
	}
	eng := t.eng
	if at < eng.now {
		panic(fmt.Sprintf("sim: resetting timer to %v before now %v", at, eng.now))
	}
	ev := t.e
	ev.seq = eng.seq
	eng.seq++
	t.seq = ev.seq
	i := int(ev.idx)
	eng.q[i].at = at
	eng.q[i].seq = ev.seq
	eng.fix(i)
	return true
}

// Engine drives a simulation run.
type Engine struct {
	now   Time
	seq   uint64
	rng   *rand.Rand
	fired uint64
	dseq  uint64   // seq+1 of the event dispatched at now; 0 if none has yet
	hole  bool     // q[0] is the dispatching event's slot, free for its first schedule
	q     []entry  // 4-ary min-heap on (at, seq)
	free  []*event // recycled event structs (steady-state scheduling is allocation-free)
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled events. Work that a component
// keeps queued outside the engine is not counted: a wire link holds one
// event for the frame at the head of its in-flight FIFO, and the frames
// behind the head are not engine events until they reach it; a NIC whose
// Tx queues are empty holds its Tx-done as a reserved seq, not an event.
// Inside a callback the dispatching event is no longer counted, whether
// or not a schedule has taken its heap slot yet.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.q) - 1
	}
	return len(e.q)
}

// Passed reports whether an event keyed (at, seq) would already have
// dispatched: at is before Now(), or at == Now() and seq is at or below
// that of the event dispatching now (or last dispatched, after a callback
// panicked out of Run). After Run advances the clock to its horizon,
// nothing at the new Now() has dispatched. A reservation that has not
// Passed may still be scheduled with AtArgSeq and lands where it would
// have; inside a callback, its key is above the dispatching one, so it
// may take the dispatching event's heap slot like any other first
// schedule.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return at < e.now || (at == e.now && seq < e.dseq)
}

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes an event from the free list, or heap-allocates one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &event{idx: -1}
}

// release returns a fired or cancelled event to the free list. The seq it
// carries stays in place until the struct is reused, so stale Timer
// handles see a negative idx (not pending) now and a mismatched seq later.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.fnA = nil
	ev.arg = nil
	ev.idx = -1
	e.free = append(e.free, ev)
}

// ReserveSeq takes the next scheduling sequence number without scheduling
// anything. An event later scheduled under it with AtArgSeq dispatches
// exactly where it would have if it had been scheduled at the moment of
// the reservation. Components that release work in order (a link's frame
// FIFO) use it to keep one pending event instead of one per queued item.
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

func (e *Engine) schedule(t Time, seq uint64, fn func(), fnA func(any), arg any) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.seq = seq
	ev.fn = fn
	ev.fnA = fnA
	ev.arg = arg
	if e.hole {
		e.hole = false
		e.q[0] = entry{at: t, seq: seq, ev: ev}
		e.down(0)
	} else {
		e.q = append(e.q, entry{at: t, seq: seq, ev: ev})
		e.up(len(e.q) - 1)
	}
	return Timer{e: ev, eng: e, seq: seq}
}

// At schedules fn at absolute time t and returns a cancellable Timer.
// Scheduling in the past panics: it always indicates a logic error.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.schedule(t, e.ReserveSeq(), fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. It is At for hot paths: the
// callback is typically a prebound method value stored once per object, so
// scheduling allocates nothing (a pointer-shaped arg boxes for free).
func (e *Engine) AtArg(t Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	return e.schedule(t, e.ReserveSeq(), nil, fn, arg)
}

// AtArgSeq schedules fn(arg) at absolute time t under seq, a number taken
// earlier from ReserveSeq. Dispatch order is strict (at, seq), so the
// event lands exactly where a schedule made at reservation time would
// have, provided nothing ordered after (t, seq) has dispatched yet, that
// is, provided !Passed(t, seq). Scheduling under a passed key panics.
func (e *Engine) AtArgSeq(t Time, seq uint64, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: scheduling nil event")
	}
	if seq >= e.seq {
		panic(fmt.Sprintf("sim: sequence %d was never reserved", seq))
	}
	if e.Passed(t, seq) {
		panic(fmt.Sprintf("sim: scheduling at %v under sequence %d, which has passed", t, seq))
	}
	return e.schedule(t, seq, nil, fn, arg)
}

// After schedules fn after delay d.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// AfterArg schedules fn(arg) after delay d.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) Timer {
	if d < 0 {
		d = 0
	}
	return e.AtArg(e.now.Add(d), fn, arg)
}

// Run executes events until the queue empties or the horizon passes, and
// returns the clock, which then stands at the horizon (or at Now() if the
// horizon was not after it).
//
// The horizon is exclusive: an event scheduled exactly at the horizon does
// not run, so a run to horizon H observes the half-open interval [0, H).
// The clock never moves backward: a horizon at or before Now() dispatches
// nothing and leaves the clock where it is.
func (e *Engine) Run(horizon Time) Time {
	if e.hole {
		e.closeHole()
	}
	for len(e.q) > 0 && e.q[0].at < horizon {
		e.dispatch()
	}
	if e.now < horizon {
		// The horizon was reached or the queue drained before it: time
		// still advances to it so rate metrics divide by the full window.
		// Nothing at the new instant has dispatched yet.
		e.now = horizon
		e.dseq = 0
	}
	return e.now
}

// dispatch fires the root entry in place: it advances the clock to the
// root's key, recycles the event, opens the root slot as a hole for the
// callback's first schedule, and runs the callback. The callback fields
// are read out first: the event struct may be reused for a schedule
// performed inside the callback itself. The queue must be non-empty.
func (e *Engine) dispatch() {
	top := &e.q[0]
	e.now = top.at
	e.dseq = top.seq + 1
	e.fired++
	ev := top.ev
	fn, fnA, arg := ev.fn, ev.fnA, ev.arg
	e.release(ev)
	e.hole = true
	if fnA != nil {
		fnA(arg)
	} else {
		fn()
	}
	if e.hole {
		e.closeHole()
	}
}

// closeHole pops the root hole: its callback scheduled nothing, or it
// panicked and the panic was recovered outside the engine.
func (e *Engine) closeHole() {
	e.hole = false
	last := len(e.q) - 1
	e.q[0] = e.q[last]
	e.q[last] = entry{}
	e.q = e.q[:last]
	if last > 0 {
		e.down(0)
	}
}

// remove deletes the entry at heap index i (Timer.Stop).
func (e *Engine) remove(i int) {
	last := len(e.q) - 1
	e.q[i].ev.idx = -1
	if i != last {
		e.q[i] = e.q[last]
	}
	e.q[last] = entry{}
	e.q = e.q[:last]
	if i != last {
		e.fix(i)
	}
}

// fix restores heap order after the key at index i changed.
func (e *Engine) fix(i int) {
	if i > 0 && e.q[i].before(e.q[(i-1)/4]) {
		e.up(i)
	} else {
		e.down(i)
	}
}

// up sifts the entry at i toward the root, moving parents down into the
// hole instead of swapping.
func (e *Engine) up(i int) {
	q := e.q
	x := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = int32(i)
		i = p
	}
	q[i] = x
	x.ev.idx = int32(i)
}

// down sifts the entry at i toward the leaves.
func (e *Engine) down(i int) {
	q := e.q
	n := len(q)
	x := q[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(x) {
			break
		}
		q[i] = q[m]
		q[i].ev.idx = int32(i)
		i = m
	}
	q[i] = x
	x.ev.idx = int32(i)
}
